"""Smoke tests of the scripts under scripts/: each runs on a tiny range, in a
fresh interpreter, and writes the rows its arguments ask for; a malformed
range is refused with a one-line usage error."""

import csv
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *argv, cwd):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *argv],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=120,
    )


def test_density_sweep(tmp_path):
    proc = run_script("density_sweep.py", "--exponents", "12:16:4", "--out", "d.csv",
                      cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    rows = list(csv.DictReader((tmp_path / "d.csv").open()))
    assert [(r["e"], r["method"]) for r in rows] == [
        ("12", "behrend"), ("12", "elkin"), ("16", "behrend"), ("16", "elkin")]
    # the derived (5, 2) and (6, 3) shells; g = 1 empties both annuli
    assert [int(r["size"]) for r in rows] == [10, 0, 90, 0]


def test_discrepancy_lab(tmp_path):
    proc = run_script("discrepancy_lab.py", "--t-lo", "10", "--t-hi", "100",
                      "--k-values", "2,3", "--out", "lab.csv", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    summary = proc.stdout.splitlines()
    # one line per (k, m): m = 1 and m = k + 1
    assert [line.split()[:2] for line in summary[1:5]] == [
        ["2", "1"], ["2", "3"], ["3", "1"], ["3", "4"]]
    rows = list(csv.DictReader((tmp_path / "lab.csv").open()))
    grid = sorted({int(r["t"]) for r in rows})
    assert grid[0] == 10 and grid[-1] == 100
    assert len(rows) == 4 * len(grid)
    assert {(r["k"], r["m"]) for r in rows} == {("2", "1"), ("2", "3"), ("3", "1"),
                                                ("3", "4")}


@pytest.mark.parametrize("name, argv, refusal", [
    ("density_sweep.py", ["--exponents", "16:32"], "lo:hi:step integers"),
    ("density_sweep.py", ["--exponents", "16:32:0"], "step must be >= 1, got 0"),
    ("density_sweep.py", ["--exponents", "x"], "lo:hi:step integers, got 'x'"),
    ("discrepancy_lab.py", ["--t-lo", "0"], "must be >= 1, got 0 and 10000"),
    ("discrepancy_lab.py", ["--t-hi", "-1"], "must be >= 1, got 100 and -1"),
    ("discrepancy_lab.py", ["--k-values", "3,x"], "integers, got '3,x'"),
    ("discrepancy_lab.py", ["--k-values", "3,1"], "--k-values must be >= 2, got 1"),
], ids=["sweep-two-fields", "sweep-zero-step", "sweep-not-a-range", "lab-t-lo-0",
        "lab-t-hi-negative", "lab-k-not-a-list", "lab-k-1"])
def test_malformed_ranges_are_refused_in_one_line(tmp_path, name, argv, refusal):
    proc = run_script(name, *argv, cwd=tmp_path)
    assert proc.returncode == 2 and proc.stdout == ""
    assert "Traceback" not in proc.stderr
    last = proc.stderr.splitlines()[-1]
    assert last.startswith(f"{name}: error: ") and refusal in last
