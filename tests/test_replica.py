"""The benchmark's invocations and its traced replica still run against the program.

perfbench/trace_pipeline.py calls the public functions of each module the
way the CLI does and checks every output against perfbench/reference.json.
A program change that renames or reshapes one of those functions breaks the
benchmark, not the program's own tests; this runs the replica's oracles
workload, and its shell workload (the only one that compares a two-thread
shell scan and checks the 2^32 set file), each in a fresh interpreter, so
that such a change fails here first.
The replica builds its parameters itself, so every benchmark invocation is
also run through the real CLI, in process, and checked the same way.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from apfree.cli import main

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import harness  # noqa: E402


@pytest.mark.parametrize("workload", ["oracles", "shell"])
def test_oracles_replica_passes(tmp_path, workload):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "trace_pipeline.py"),
         "--workload", workload, "--workdir", str(tmp_path)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    record = json.loads(proc.stdout)
    assert record["checked"] > 0
    assert record["failed"] == 0 and record["problems"] == []


def test_cli_matches_the_reference_on_every_workload(capsys, monkeypatch, tmp_path):
    reference = json.loads(harness.REFERENCE.read_text(encoding="utf-8"))
    monkeypatch.chdir(tmp_path)
    checked = set()
    for units in harness.WORKLOADS.values():
        for inv in (inv for unit in units for inv in unit):
            code = main(list(inv.argv))
            out = capsys.readouterr()
            result = harness.ChildResult(code, 0.0, 0.0, out.out, out.err)
            assert harness.check_invocation(inv, result, reference, tmp_path) == []
            checked.add(inv.name)
    assert checked == set(reference["invocations"]) - {harness.SETUP.name}
