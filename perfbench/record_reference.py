"""Record the reference outputs every benchmark run is checked against.

Run once, from a checkout of the commit whose outputs are the reference:

    python3 perfbench/record_reference.py --label <commit>

It runs every invocation of every workload through the CLI and writes
`perfbench/reference.json`: exit codes, the checked stdout tokens, the
sha256 of each output file, and for the discrepancy CSV a digest that lets
its floats be compared to a relative tolerance.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys

import harness


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--label", required=True, help="the commit the outputs come from")
    args = ap.parse_args()

    env = harness.child_env()
    harness.check_apfree_location(env)
    workdir = harness.ROOT / ".perfbench_work" / "reference"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    ref: dict = {"recorded_from": args.label, "invocations": {}, "discrepancy": {}}
    try:
        invocations = [harness.SETUP] + [
            inv for units in harness.WORKLOADS.values() for unit in units for inv in unit
        ]
        for inv in invocations:
            result = harness.run_invocation(inv, workdir, env)
            tokens = harness.stdout_tokens(result.stdout)
            entry = {
                "command": harness.describe(inv),
                "exit_code": result.exit_code,
                "stdout": {key: tokens.get(key) for key in inv.stdout_keys},
                "sha256": {},
            }
            for name in inv.outputs:
                if name.startswith("discrepancy"):
                    ref["discrepancy"][name] = harness.discrepancy_summary(workdir / name)
                else:
                    entry["sha256"][name] = harness.sha256_file(workdir / name)
            ref["invocations"][inv.name] = entry
            print(f"{inv.name}: exit {result.exit_code}, {result.wall_s:.2f} s",
                  file=sys.stderr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    harness.REFERENCE.write_text(json.dumps(ref, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
