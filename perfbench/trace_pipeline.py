"""One traced pass of a workload, in process, in a fresh interpreter.

Calls the public functions of each apfree module in the order the CLI calls
them, with a span around every call and work counts at the same boundaries.
Each construct pipeline also runs once untraced through its real entry point
(`construct_behrend` / `construct_elkin`); that time is what the stage self
times are compared with (trace.coverage) and what tracing overhead is
measured against.  The traced copy must give the same set as the real
pipeline, and every traced output is checked against the reference like a
CLI output.

    python3 perfbench/trace_pipeline.py --workload shell --workdir DIR [--untraced-first]

Prints one JSON object: import time, spans, counts, untraced pipeline times
and any problems.  A fresh interpreter per pass matters: exact_nu and
exact_nu_bb cache their results at module level.
"""

# Time the import first, before anything else loads modules it shares.
import time

_t0 = time.perf_counter()
import apfree.cli  # noqa: E402

IMPORT_S = time.perf_counter() - _t0

import argparse  # noqa: E402
import csv  # noqa: E402
import dataclasses  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import sys  # noqa: E402
from contextlib import contextmanager  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import NamedTuple  # noqa: E402

from apfree import behrend, codec, elkin, lattice, numeric, verify  # noqa: E402

import harness  # noqa: E402

#: Invocations whose shell enumeration is also timed with two threads.
THREADS2_INVOCATIONS = {"construct_behrend_2^32"}


class Tracer:
    """Spans (name, start, end, parent index) and counters, kept in memory."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.counts: dict[str, float] = {}
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        record = {"name": name, "start": time.perf_counter(), "end": None,
                  "parent": parent}
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield index
        finally:
            self._stack.pop()
            record["end"] = time.perf_counter()

    def count(self, name: str, amount: float) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount


def conv_ops(k: int, y: int) -> int:
    """Multiply-adds of build_histogram's k-1 dense int64 convolutions."""
    base = (y - 1) ** 2 + 1
    return sum((i * (base - 1) + 1) * base for i in range(1, k))


def cube_points(k: int, y: int, t_high: int) -> int:
    """Cube points shell_members unravels: every point whose first coordinate
    is at most min(y - 1, isqrt(t_high))."""
    return (min(y - 1, math.isqrt(t_high)) + 1) * y ** (k - 1)


def count_dp_cells(k: int, t_max: int) -> int:
    """Array cells the capped-ball counting DP updates for squared radius t_max."""
    root = math.isqrt(t_max)
    return k * sum(t_max + 1 - a * a for a in range(1, root + 1))


class Built(NamedTuple):
    """What a traced pipeline produced: its span, shell, set and filter tallies."""

    span: int
    shell: lattice.ShellSelection
    set: codec.APFreeSet
    points: int
    survivors: int


class Replica:
    """The CLI's command bodies, re-expressed as traced calls into the modules."""

    def __init__(self, tracer: Tracer, workdir: Path, untraced_first: bool) -> None:
        self.tr = tracer
        self.workdir = workdir
        self.untraced_first = untraced_first
        self.untraced: list[dict] = []
        self.last_construct = None

    # -- pipelines ---------------------------------------------------------

    def _stages_common(self, params):
        tr, k, y = self.tr, params.k, params.y
        with tr.span("numeric.exact_moments"):
            moments = numeric.exact_moments(k, y)
        with tr.span("lattice.build_histogram"):
            hist = lattice.build_histogram(k, y, lattice.DEFAULT_BUDGET)
        tr.count("lattice.build_histogram.conv_ops", conv_ops(k, y))
        return moments, hist

    def _shell_members(self, params, shell):
        tr, k, y = self.tr, params.k, params.y
        with tr.span("lattice.shell_members"):
            vectors = lattice.shell_members(k, y, shell, budget=lattice.DEFAULT_BUDGET,
                                            threads=1)
        tr.count("lattice.shell_members.cube_points", cube_points(k, y, shell.t_high))
        tr.count("lattice.shell_members.members", len(vectors))
        return vectors

    def _encode_sorted(self, pipeline: str, vectors, params) -> tuple[int, ...]:
        tr = self.tr
        with tr.span("codec.encode_all"):
            codes = codec.encode_all(vectors, params.y, params.k)
        tr.count("codec.encode_all.elements", len(codes))
        with tr.span(f"{pipeline}.sort"):
            return tuple(sorted(codes))

    def _traced_behrend(self, params):
        tr = self.tr
        with tr.span("behrend.construct_behrend") as index:
            moments, hist = self._stages_common(params)
            with tr.span("lattice.select_shell"):
                shell = lattice.select_behrend_shell(hist, moments, params.a)
                if shell.t_low == 0:
                    nonzero = {t: c for t, c in hist.counts.items() if t != 0}
                    shell = lattice.select_behrend_shell(
                        lattice.NormHistogram(k=hist.k, y=hist.y, counts=nonzero),
                        moments, params.a)
            vectors = self._shell_members(params, shell)
            elements = self._encode_sorted("behrend", vectors, params)
            if len(elements) != len(vectors):
                raise RuntimeError("digit map must be injective on the cube")
            with tr.span("codec.apfreeset"):
                apset = codec.APFreeSet(n=params.n, elements=elements, method="behrend",
                                        params_echo=params)
        return Built(index, shell, apset, len(vectors), len(vectors))

    def _traced_elkin(self, params):
        tr, k = self.tr, params.k
        with tr.span("elkin.construct_elkin") as index:
            g = params.effective_g()
            moments, hist = self._stages_common(params)
            with tr.span("lattice.select_shell"):
                shell = lattice.select_elkin_annulus(hist, moments, g)
            members = self._shell_members(params, shell)
            with tr.span("elkin.enumerate_witnesses"):
                witnesses = elkin.enumerate_witnesses(k, g, lattice.DEFAULT_BUDGET)
            tr.count("elkin.witnesses", len(witnesses))
            with tr.span("elkin.filter_survivors"):
                survivors, _ = elkin.filter_survivors(members, witnesses, g)
            tr.count("elkin.filter.dot_products", len(members) * len(witnesses))
            tr.count("elkin.filter.points", len(members))
            tr.count("elkin.filter.survivors", len(survivors))
            elements = self._encode_sorted("elkin", survivors, params) if survivors else ()
            with tr.span("codec.apfreeset"):
                apset = codec.APFreeSet(n=params.n, elements=elements, method="elkin",
                                        params_echo=params)
        return Built(index, shell, apset, len(members), len(survivors))

    def pipeline(self, method: str, params) -> tuple[Built, list[str]]:
        """Run one construction traced and untraced; both must give the same set."""
        real = behrend.construct_behrend if method == "behrend" else elkin.construct_elkin
        traced = self._traced_behrend if method == "behrend" else self._traced_elkin

        def untraced():
            gc.collect()
            start = time.perf_counter()
            artifact = real(params, budget=lattice.DEFAULT_BUDGET, threads=1)
            return time.perf_counter() - start, artifact.set.elements

        if self.untraced_first:
            untraced_s, elements = untraced()
        gc.collect()
        built = traced(params)
        if not self.untraced_first:
            untraced_s, elements = untraced()
        self.untraced.append({"span": built.span, "untraced_s": untraced_s})
        if elements != built.set.elements:
            return built, [f"traced {method} pipeline differs from construct_{method}"]
        return built, []

    # -- commands ----------------------------------------------------------

    def construct(self, args):
        params = numeric.default_params(args.n, args.method)
        built, problems = self.pipeline(args.method, params)
        shell, apset = built.shell, built.set
        self.last_construct = (params, shell, apset)
        with self.tr.span("codec.write_json"):
            with open(self.workdir / args.out, "w", encoding="utf-8", newline="") as fh:
                apset.write_json(fh, reproducible=args.reproducible)
        self.tr.count("codec.json_bytes", (self.workdir / args.out).stat().st_size)
        stdout = (f"method={args.method} n={params.n} k={params.k} y={params.y} "
                  f"shell=[{shell.t_low},{shell.t_high}] size={apset.size}")
        empty = args.method == "elkin" and not apset.elements
        return apfree.cli.EXIT_EMPTY if empty else apfree.cli.EXIT_OK, stdout, problems

    def threads2(self):
        """The last construct's shell enumerated with two threads, outside every
        pipeline span; its set must equal the single-thread one."""
        params, shell, apset = self.last_construct
        gc.collect()
        with self.tr.span("lattice.shell_members.threads2"):
            two = lattice.shell_members(params.k, params.y, shell,
                                        budget=lattice.DEFAULT_BUDGET, threads=2)
        if tuple(sorted(codec.encode_all(two, params.y, params.k))) != apset.elements:
            return ["shell_members differs between 1 and 2 threads"]
        return []

    def sweep(self, args):
        if args.method != "elkin":
            raise ValueError("the traced sweep covers --method elkin only")
        rows, problems = [], []
        for k in _inclusive(args.k_range):
            for y in _inclusive(args.y_range):
                n = (2 * y) ** k
                params = numeric.ConstructionParams(n=n, k=k, y=y)
                if args.g is not None:
                    params = dataclasses.replace(params, g=args.g)
                built, found = self.pipeline("elkin", params)
                problems += found
                with self.tr.span("numeric.bounds"):
                    bounds = (numeric.behrend_bound(n), numeric.elkin_bound(n))
                rows.append([k, y, n, built.shell.t_low, built.shell.t_high,
                             built.set.size, built.set.density, *bounds,
                             built.survivors / built.points if built.points else 0.0])
        with self.tr.span("cli.write_csv"):
            with open(self.workdir / args.out, "w", encoding="utf-8", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(["k", "y", "n", "shell_lo", "shell_hi", "size", "density",
                                 "behrend_bound", "elkin_bound", "survivor_fraction"])
                writer.writerows(rows)
        return apfree.cli.EXIT_OK, f"wrote {len(rows)} rows to {args.out}", problems

    def verify(self, args):
        with self.tr.span("codec.read_set"):
            with open(self.workdir / args.in_path, encoding="utf-8") as fh:
                apset = codec.read_set(fh)
        report = self._midpoint_free(apset)
        if report.ok:
            return apfree.cli.EXIT_OK, f"ok size={apset.size}", []
        return apfree.cli.EXIT_ERROR, "witness", []

    def _midpoint_free(self, s):
        with self.tr.span("verify.midpoint_free"):
            report = verify.midpoint_free(s)
        self.tr.count("verify.midpoint_free.pairs_checked", report.pairs_checked)
        return report

    def nu(self, args):
        with self.tr.span("verify.exact_nu"):
            value, witness = verify.exact_nu(args.n)
        with self.tr.span("verify.exact_nu_bb"):
            value_bb = verify.exact_nu_bb(args.n)
        agree = value == value_bb and self._midpoint_free(witness).ok
        if agree:
            return apfree.cli.EXIT_OK, f"nu={value} oracle_agree=true", []
        return apfree.cli.EXIT_DISAGREE, f"nu={value} oracle_agree=false", []

    def discrepancy(self, args):
        grid = list(range(args.t_step, args.t_max + 1, args.t_step))
        with self.tr.span("lattice.discrepancy_scan"):
            records = lattice.discrepancy_scan(args.k, grid, args.m, budget=args.budget)
        self.tr.count("lattice.count_dp.cells", count_dp_cells(args.k, max(grid)))
        with self.tr.span("cli.write_csv"):
            with open(self.workdir / args.out, "w", encoding="utf-8", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(["k", "t", "m", "count_exact", "volume",
                                 "reference_volume", "ratio"])
                for r in records:
                    writer.writerow([r.k, r.t, r.m, r.count_exact, r.volume,
                                     r.reference_volume, r.ratio])
        return apfree.cli.EXIT_OK, "", []

    def histogram(self, args):
        with self.tr.span("lattice.build_histogram"):
            hist = lattice.build_histogram(args.k, args.y, budget=args.budget)
        self.tr.count("lattice.build_histogram.conv_ops", conv_ops(args.k, args.y))
        with self.tr.span("cli.write_csv"):
            with open(self.workdir / args.out, "w", encoding="utf-8", newline="") as fh:
                lattice.write_histogram_csv(hist, fh)
        return apfree.cli.EXIT_OK, "", []


def _inclusive(spec: str) -> range:
    lo, _, hi = spec.partition(":")
    return range(int(lo), int(hi) + 1)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(harness.WORKLOADS))
    ap.add_argument("--workdir", required=True, type=Path)
    ap.add_argument("--untraced-first", action="store_true",
                    help="run each untraced pipeline before its traced replica")
    args = ap.parse_args()

    src = (harness.ROOT / "src").resolve()
    if not Path(apfree.__file__).resolve().is_relative_to(src):
        print(f"apfree must import from {src}, got {apfree.__file__}", file=sys.stderr)
        return 2
    reference = json.loads(harness.REFERENCE.read_text(encoding="utf-8"))
    tracer = Tracer()
    replica = Replica(tracer, args.workdir, args.untraced_first)
    parser = apfree.cli.build_parser()
    problems: list[str] = []
    checked = failed = 0
    for unit in harness.WORKLOADS[args.workload]:
        for inv in unit:
            cli_args = parser.parse_args(list(inv.argv))
            with tracer.span(f"cmd.{inv.command}"):
                exit_code, stdout, found = getattr(replica, inv.command)(cli_args)
            result = harness.ChildResult(exit_code, 0.0, 0.0, stdout, "")
            found += harness.check_invocation(inv, result, reference, args.workdir)
            if inv.name in THREADS2_INVOCATIONS:
                found += replica.threads2()
            checked += 1
            failed += bool(found)
            problems += found
    print(json.dumps({
        "import_s": IMPORT_S,
        "spans": tracer.spans,
        "counts": tracer.counts,
        "untraced": replica.untraced,
        "checked": checked,
        "failed": failed,
        "problems": problems,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
