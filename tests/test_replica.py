"""The benchmark's traced replica still runs against the program.

perfbench/trace_pipeline.py calls the public functions of each module the
way the CLI does and checks every output against perfbench/reference.json.
A program change that renames or reshapes one of those functions breaks the
benchmark, not the program's own tests; this runs the replica's quickest
workload in a fresh interpreter so that such a change fails here first.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_oracles_replica_passes(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "trace_pipeline.py"),
         "--workload", "oracles", "--workdir", str(tmp_path)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    record = json.loads(proc.stdout)
    assert record["checked"] > 0
    assert record["failed"] == 0 and record["problems"] == []
