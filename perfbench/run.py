"""apfree benchmark: drives the CLI as a user would and checks every output.

    python3 perfbench/run.py --workload shell --seed 1 --seconds 30 --trace 0

Closed loop, one client: one `python -m apfree` child at a time, each
single-threaded.  A run repeats passes until the next pass would end after
--seconds and reports medians over passes.  With --trace 0 a pass is
SETUP_REPS timings of `apfree --help` (setup_s) and then the workload's
invocations.

With --trace 0 it prints the end-to-end metrics.  With --trace 1 a pass
is an untraced CLI pass followed by a traced in-process pass in a fresh
interpreter (trace_pipeline.py); it prints the per-layer metrics.  The last
line of stdout is one JSON object: correct, attempted, failed, metrics.

The seed only permutes the order of invocation units within a pass; the
inputs are fixed reference points of the paper.  Exits 2 without a result
when the checkout's apfree or the reference outputs are missing.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import random
import shutil
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

import harness

#: `apfree --help` timings before each pass; spread over the run, their median
#: is setup_s.
SETUP_REPS = 2

END_TO_END = {"setup_s": "s", "workload_s": "s", "peak_rss_mb": "MB"}

#: Spans whose summed duration per pass is reported as `<span>.s`.
SPAN_METRICS = (
    "numeric.exact_moments",
    "numeric.bounds",
    "lattice.build_histogram",
    "lattice.select_shell",
    "lattice.shell_members",
    "lattice.discrepancy_scan",
    "elkin.enumerate_witnesses",
    "elkin.filter_survivors",
    "elkin.sort",
    "codec.encode_all",
    "codec.apfreeset",
    "codec.write_json",
    "codec.read_set",
    "behrend.sort",
    "behrend.construct_behrend",
    "elkin.construct_elkin",
    "verify.midpoint_free",
    "verify.exact_nu",
    "verify.exact_nu_bb",
    "cli.write_csv",
)

#: Work counters recorded by the traced pass, with their units.
COUNT_METRICS = {
    "lattice.build_histogram.conv_ops": "count",
    "lattice.shell_members.cube_points": "count",
    "lattice.shell_members.members": "count",
    "lattice.count_dp.cells": "count",
    "elkin.witnesses": "count",
    "elkin.filter.dot_products": "count",
    "codec.encode_all.elements": "count",
    "codec.json_bytes": "B",
    "verify.midpoint_free.pairs_checked": "count",
}

#: Least share of each pipeline's traced time (summed over a pass) that its
#: stage spans must cover, so that the stage self times add up to it.
STAGE_SHARE = 0.98

CLI_COMMANDS = ("construct", "sweep", "verify", "nu", "discrepancy", "histogram")

PER_LAYER: dict[str, str] = {
    **{f"{name}.s": "s" for name in SPAN_METRICS},
    "lattice.shell_members.threads2_s": "s",
    **COUNT_METRICS,
    "lattice.shell_members.yield": "ratio",
    "elkin.filter.survivor_frac": "ratio",
    "verify.midpoint_free.pairs_per_s": "1/s",
    **{f"cli.{cmd}_s": "s" for cmd in CLI_COMMANDS},
    "cli.import_s": "s",
    "cli.overhead_s": "s",
    "trace.coverage": "ratio",
    "trace.overhead_s": "s",
}


class Run:
    """One benchmark run: its work directory, child environment and tallies."""

    def __init__(self, workload: str, seed: int, workdir: Path) -> None:
        self.workload = workload
        self.rng = random.Random(seed)
        self.workdir = workdir
        self.env = harness.child_env()
        self.reference = json.loads(harness.REFERENCE.read_text(encoding="utf-8"))
        self.attempted = 0
        self.failed = 0

    def invoke(self, inv: harness.Invocation) -> harness.ChildResult:
        result = harness.run_invocation(inv, self.workdir, self.env)
        problems = harness.check_invocation(inv, result, self.reference, self.workdir)
        self._tally(1, problems)
        return result

    def _tally(self, attempted: int, problems: list[str], failed: int | None = None):
        self.attempted += attempted
        self.failed += bool(problems) if failed is None else failed
        for problem in problems:
            print(f"FAILED {problem}", file=sys.stderr)

    def cli_pass(self) -> dict:
        """One pass over the workload: wall per command and the largest child RSS."""
        walls: dict[str, float] = defaultdict(float)
        peak = 0.0
        invocations = harness.pass_order(self.workload, self.rng)
        for inv in invocations:
            result = self.invoke(inv)
            walls[inv.command] += result.wall_s
            peak = max(peak, result.peak_rss_mb)
        return {"walls": walls, "workload_s": sum(walls.values()),
                "peak_rss_mb": peak, "invocations": len(invocations)}

    def traced_pass(self, untraced_first: bool) -> dict:
        """Run trace_pipeline.py in a fresh interpreter and return its record."""
        trace_dir = self.workdir / "trace"
        trace_dir.mkdir(exist_ok=True)
        argv = [sys.executable, str(Path(__file__).with_name("trace_pipeline.py")),
                "--workload", self.workload, "--workdir", str(trace_dir)]
        if untraced_first:
            argv.append("--untraced-first")
        result = harness.run_child(argv, trace_dir, self.env)
        checks = sum(len(unit) for unit in harness.WORKLOADS[self.workload])
        if result.exit_code != 0:
            self._tally(checks, [f"trace pass exited {result.exit_code}: "
                                 f"{result.stderr.strip()[-500:]}"], failed=checks)
            return {}
        record = json.loads(result.stdout.strip().splitlines()[-1])
        self._tally(record["checked"], record["problems"], failed=record["failed"])
        for name, (stage, traced, untraced) in pipeline_sums(record).items():
            print(f"trace {name}: untraced {untraced:.4f} s, traced {traced:.4f} s, "
                  f"stages {stage:.4f} s, coverage {_ratio(stage, untraced):.3f}",
                  file=sys.stderr)
            short = stage < STAGE_SHARE * traced
            self._tally(1, [f"stage spans cover {_ratio(stage, traced):.3f} of {name}, "
                            f"below {STAGE_SHARE}"] if short else [])
        return record


def timed_passes(seconds: float, one_pass) -> list:
    """Repeat one_pass until the next one would end after `seconds`; at least once."""
    results, start = [], time.perf_counter()
    while True:
        t0 = time.perf_counter()
        results.append(one_pass(len(results)))
        took = time.perf_counter() - t0
        if time.perf_counter() - start + took > seconds:
            return results


def _durations(spans: list[dict]) -> tuple[list[float], list[float]]:
    """Each span's duration, and the part of it that its child spans cover."""
    duration = [s["end"] - s["start"] for s in spans]
    covered = [0.0] * len(spans)
    for span, d in zip(spans, duration):
        if span["parent"] is not None:
            covered[span["parent"]] += d
    return duration, covered


def pipeline_sums(record: dict) -> dict[str, list[float]]:
    """Per pipeline name: [stage self time, traced time, untraced time] of a pass.

    The stage spans have no children, so the stage self times under a
    pipeline span sum to the part of it that its children cover.
    """
    duration, covered = _durations(record["spans"])
    sums: dict[str, list[float]] = defaultdict(lambda: [0.0, 0.0, 0.0])
    for pipe in record["untraced"]:
        i = pipe["span"]
        row = sums[record["spans"][i]["name"]]
        row[0] += covered[i]
        row[1] += duration[i]
        row[2] += pipe["untraced_s"]
    return sums


def trace_metrics(record: dict, cli: dict) -> dict[str, float]:
    """Per-layer metrics of one pass from its spans, counts and CLI walls."""
    spans = record["spans"]
    duration, _ = _durations(spans)
    totals: dict[str, float] = defaultdict(float)
    for span, d in zip(spans, duration):
        totals[span["name"]] += d
    counts = defaultdict(float, record["counts"])
    m = {f"{name}.s": totals[name] for name in SPAN_METRICS}
    m["lattice.shell_members.threads2_s"] = totals["lattice.shell_members.threads2"]
    m.update({name: counts[name] for name in COUNT_METRICS})
    m["lattice.shell_members.yield"] = _ratio(counts["lattice.shell_members.members"],
                                              counts["lattice.shell_members.cube_points"])
    m["elkin.filter.survivor_frac"] = _ratio(counts["elkin.filter.survivors"],
                                             counts["elkin.filter.points"])
    m["verify.midpoint_free.pairs_per_s"] = _ratio(
        counts["verify.midpoint_free.pairs_checked"], m["verify.midpoint_free.s"])
    m.update({f"cli.{cmd}_s": cli["walls"].get(cmd, 0.0) for cmd in CLI_COMMANDS})

    pipelines = pipeline_sums(record).values()
    stage_s, traced_s, untraced_s = (sum(row[i] for row in pipelines) for i in range(3))
    m["trace.coverage"] = _ratio(stage_s, untraced_s)
    m["trace.overhead_s"] = traced_s - untraced_s
    # The command spans also hold the untraced pipeline runs; take those out.
    in_process = sum(d for s, d in zip(spans, duration)
                     if s["name"].startswith("cmd.")) - untraced_s
    m["cli.import_s"] = record["import_s"]
    m["cli.overhead_s"] = (cli["workload_s"] - cli["invocations"] * record["import_s"]
                           - in_process)
    return m


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def medians(per_pass: list[dict[str, float]], units: dict[str, str]) -> dict:
    return {name: {"value": statistics.median(p[name] for p in per_pass), "unit": unit}
            for name, unit in units.items()}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(harness.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    try:
        harness.check_apfree_location(harness.child_env())
        run = Run(args.workload, args.seed,
                  harness.ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}")
    except (RuntimeError, OSError) as exc:
        print(f"perfbench: cannot run: {exc}", file=sys.stderr)
        return 2

    shutil.rmtree(run.workdir, ignore_errors=True)
    run.workdir.mkdir(parents=True)
    try:
        if args.trace:
            def one_pass(i: int) -> dict[str, float]:
                cli = run.cli_pass()
                record = run.traced_pass(untraced_first=i % 2 == 1)
                return trace_metrics(record, cli) if record else {}

            per_pass = [p for p in timed_passes(args.seconds, one_pass) if p]
            metrics = medians(per_pass, PER_LAYER) if per_pass else {}
        else:
            def one_pass(i: int) -> tuple[list[float], dict]:
                setups = [run.invoke(harness.SETUP).wall_s for _ in range(SETUP_REPS)]
                return setups, run.cli_pass()

            passes = timed_passes(args.seconds, one_pass)
            values = {
                "setup_s": [t for setups, _ in passes for t in setups],
                "workload_s": [cli["workload_s"] for _, cli in passes],
                "peak_rss_mb": [cli["peak_rss_mb"] for _, cli in passes],
            }
            metrics = {name: {"value": statistics.median(values[name]), "unit": unit}
                       for name, unit in END_TO_END.items()}
            print(f"{len(passes)} passes of {args.workload}", file=sys.stderr)
    finally:
        shutil.rmtree(run.workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            run.workdir.parent.rmdir()

    for name, metric in metrics.items():
        print(f"{name} {metric['value']:.6g} {metric['unit']}")
    correct = run.failed == 0 and bool(metrics)
    print(json.dumps({"correct": correct, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
