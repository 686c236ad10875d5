"""Workload definitions, the child runner and the output checker.

Every invocation runs as `python -m apfree ...` in a fresh child process
against the checkout's own `src/` tree, one child at a time, single-threaded.
Outputs are checked against `reference.json`, which `record_reference.py`
wrote from the seed commit.
"""

from __future__ import annotations

import csv
import hashlib
import math
import os
import random
import shlex
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
REFERENCE = Path(__file__).resolve().parent / "reference.json"

#: Relative tolerance for the floating-point columns of the discrepancy CSV.
FLOAT_RTOL = 1e-12


@dataclass(frozen=True)
class Invocation:
    """One CLI call: its name, argv after `python -m apfree`, and what to check.

    `outputs` are files the call writes, relative to the work directory;
    `stdout_keys` are the `key=value` (or bare) tokens of stdout that must
    match the reference.
    """

    name: str
    argv: tuple[str, ...]
    outputs: tuple[str, ...] = ()
    stdout_keys: tuple[str, ...] = ()

    @property
    def command(self) -> str:
        return self.argv[0]


def _construct(name: str, method: str, n: int, out: str) -> Invocation:
    return Invocation(
        name,
        ("construct", "--method", method, "--n", str(n), "--reproducible",
         "--threads", "1", "--out", out),
        outputs=(out,),
        stdout_keys=("method", "n", "k", "y", "shell", "size"),
    )


def _verify(name: str, path: str) -> Invocation:
    return Invocation(name, ("verify", path), stdout_keys=("ok", "size"))


# A workload is a list of units; a unit is a run of invocations that must stay
# in order (a verify reads the file its construct wrote).  The seed permutes
# the units of a pass and nothing else: the inputs are fixed reference points.
WORKLOADS: dict[str, list[tuple[Invocation, ...]]] = {
    "shell": [
        (_construct("construct_behrend_2^32", "behrend", 2**32, "shell.json"),),
    ],
    "annulus": [
        (Invocation(
            "sweep_elkin_k4-9_y3-5_g3",
            ("sweep", "--method", "elkin", "--k-range", "4:9", "--y-range", "3:5",
             "--g", "3", "--threads", "1", "--out", "sweep.csv"),
            outputs=("sweep.csv",),
        ),),
    ],
    "oracles": [
        (_construct("construct_behrend_2^26", "behrend", 2**26, "behrend26.json"),
         _verify("verify_behrend_2^26", "behrend26.json")),
        (_construct("construct_elkin_2^28", "elkin", 2**28, "elkin28.json"),
         _verify("verify_elkin_2^28", "elkin28.json")),
        (Invocation("nu_48", ("nu", "--n", "48"),
                    stdout_keys=("nu", "oracle_agree")),),
        (Invocation("discrepancy_k5_t10000_m1",
                    ("discrepancy", "--k", "5", "--t-max", "10000", "--m", "1",
                     "--out", "discrepancy.csv"),
                    outputs=("discrepancy.csv",)),),
        (Invocation("histogram_k2_y200",
                    ("histogram", "--k", "2", "--y", "200", "--out", "histogram.csv"),
                    outputs=("histogram.csv",)),),
    ],
}

SETUP = Invocation("help", ("--help",), stdout_keys=("usage:",))


def pass_order(workload: str, rng: random.Random) -> list[Invocation]:
    """The invocations of one pass, units shuffled by `rng`."""
    units = list(WORKLOADS[workload])
    rng.shuffle(units)
    return [inv for unit in units for inv in unit]


def child_env(root: Path = ROOT) -> dict[str, str]:
    """Environment that pins children to this checkout and to one thread."""
    env = dict(os.environ)
    env.pop("APFREE_THREADS", None)
    env["PYTHONPATH"] = str(root / "src")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def check_apfree_location(env: dict[str, str], root: Path = ROOT) -> str:
    """Import apfree as the children will and require it to come from `root/src`.

    Raises RuntimeError otherwise, so a stale installed copy is never measured.
    """
    proc = subprocess.run(
        [sys.executable, "-c", "import apfree; print(apfree.__file__)"],
        env=env, cwd=root, capture_output=True, text=True, timeout=120,
    )
    where = proc.stdout.strip()
    src = (root / "src").resolve()
    if proc.returncode != 0 or not where or src not in Path(where).resolve().parents:
        raise RuntimeError(
            f"apfree must import from {src}, got {where or proc.stderr.strip()!r}"
        )
    return where


@dataclass(frozen=True)
class ChildResult:
    exit_code: int
    wall_s: float
    peak_rss_mb: float
    stdout: str
    stderr: str


def run_child(argv: list[str], cwd: Path, env: dict[str, str]) -> ChildResult:
    """Run one child to completion; its peak RSS comes from wait4 on its own pid.

    `resource.getrusage(RUSAGE_CHILDREN)` keeps a running maximum over every
    child reaped so far, so it would report an earlier, larger child's peak.
    """
    out_path, err_path = cwd / ".child.stdout", cwd / ".child.stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=out, stderr=err,
                                stdin=subprocess.DEVNULL)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    stdout = out_path.read_text(encoding="utf-8", errors="replace")
    stderr = err_path.read_text(encoding="utf-8", errors="replace")
    out_path.unlink()
    err_path.unlink()
    # ru_maxrss is in KiB on Linux.
    return ChildResult(proc.returncode, wall, usage.ru_maxrss / 1024, stdout, stderr)


def run_invocation(inv: Invocation, workdir: Path, env: dict[str, str]) -> ChildResult:
    for name in inv.outputs:
        (workdir / name).unlink(missing_ok=True)
    return run_child([sys.executable, "-m", "apfree", *inv.argv], workdir, env)


# ---------------------------------------------------------------------------
# Checking against the reference.


def sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def stdout_tokens(stdout: str) -> dict[str, str]:
    """`key=value` tokens of stdout; a bare token maps to the empty string."""
    tokens: dict[str, str] = {}
    for word in stdout.split():
        key, _, value = word.partition("=")
        tokens.setdefault(key, value)
    return tokens


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=FLOAT_RTOL, abs_tol=0.0)


def discrepancy_summary(path: Path) -> dict:
    """Digest of a discrepancy CSV: exact-integer columns hashed, floats fitted.

    Each volume column is a constant times a power of t (the capped-ball
    volume formula), so the seed's constants pin every float row to
    FLOAT_RTOL without storing all of them.
    """
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    ints = hashlib.sha256()
    for row in body:
        ints.update((",".join(row[:4]) + "\n").encode())
    k = int(body[0][0]) if body else 0
    return {
        "header": header,
        "rows": len(body),
        "int_columns_sha256": ints.hexdigest(),
        "k": k,
        "volume_at_t1": float(body[0][4]) if body else None,
        "reference_volume_at_t1": float(body[0][5]) if body else None,
    }


def check_discrepancy(path: Path, ref: dict) -> list[str]:
    got = discrepancy_summary(path)
    problems = [
        f"discrepancy {key}: {got[key]!r} != {ref[key]!r}"
        for key in ("header", "rows", "int_columns_sha256", "k")
        if got[key] != ref[key]
    ]
    if problems:
        return problems
    k, c_vol, c_ref = ref["k"], ref["volume_at_t1"], ref["reference_volume_at_t1"]
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        for row in reader:
            t, count = int(row[1]), int(row[3])
            volume, reference, ratio = (float(x) for x in row[4:7])
            want_vol = c_vol * t ** (k / 2)
            want_ref = c_ref * t ** ((k - 2) / 2)
            want_ratio = abs(count - want_vol) / want_ref
            if not (_close(volume, want_vol) and _close(reference, want_ref)
                    and _close(ratio, want_ratio)):
                return [f"discrepancy row t={t}: floats differ beyond {FLOAT_RTOL}"]
    return []


def check_invocation(inv: Invocation, result: ChildResult, ref: dict,
                     workdir: Path) -> list[str]:
    """Everything about one finished invocation that differs from the reference."""
    want = ref["invocations"][inv.name]
    problems = []
    if result.exit_code != want["exit_code"]:
        problems.append(f"exit code {result.exit_code} != {want['exit_code']}: "
                        f"{result.stderr.strip()[-300:]}")
    tokens = stdout_tokens(result.stdout)
    for key in inv.stdout_keys:
        if tokens.get(key) != want["stdout"].get(key):
            problems.append(f"stdout {key}={tokens.get(key)!r} != "
                            f"{want['stdout'].get(key)!r}")
    for name in inv.outputs:
        path = workdir / name
        if not path.is_file():
            problems.append(f"missing output {name}")
        elif name in ref.get("discrepancy", {}):
            problems.extend(check_discrepancy(path, ref["discrepancy"][name]))
        elif sha256_file(path) != want["sha256"][name]:
            problems.append(f"{name}: sha256 differs from the reference")
    return [f"{inv.name}: {p}" for p in problems]


def describe(inv: Invocation) -> str:
    return "apfree " + shlex.join(inv.argv)
