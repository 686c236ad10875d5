"""Commands: construct, verify, sweep, nu, discrepancy, witness-count, histogram.

Exit codes: 0 success, 1 generic error, 2 empty result, 3 input parse error,
4 oracle disagreement.  All commands are deterministic; construct's JSON
output carries a timestamp unless --reproducible is given.
"""

from __future__ import annotations

import argparse
import csv
import sys

from . import behrend, elkin, lattice, numeric, verify as verify_mod
from .codec import read_set
from .errors import ApfreeError, SetFormatError
from .numeric import ConstructionParams

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_EMPTY = 2
EXIT_PARSE = 3
EXIT_DISAGREE = 4


class _Parser(argparse.ArgumentParser):
    # Usage mistakes are generic errors (exit 1); 2 is reserved for EmptyResult.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_ERROR, f"{self.prog}: error: {message}\n")


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


def _add_common(p: argparse.ArgumentParser, threads: bool = True) -> None:
    p.add_argument("--budget", type=_positive_int, default=lattice.DEFAULT_BUDGET,
                   help="work budget of every stage; exceeding it aborts up front")
    if threads:
        p.add_argument("--threads", type=_positive_int, default=1,
                       help="accepted for compatibility; has no effect")


def _add_knobs(p: argparse.ArgumentParser) -> None:
    # Unset knobs stay None and keep the ConstructionParams defaults.
    p.add_argument("--a", type=float, help="Chebyshev multiplier")
    p.add_argument("--epsilon", type=float, help="annulus width ratio")
    p.add_argument("--g", type=int, help="annulus squared-width")


def _parse_range(spec: str) -> range:
    lo, _, hi = spec.partition(":")
    try:
        values = range(int(lo), int(hi) + 1)
    except ValueError:
        raise ValueError(
            f"range {spec!r} must be LO:HI with integer ends, e.g. 2:4"
        ) from None
    if not values:
        raise ValueError(f"range {spec!r} is empty: LO exceeds HI")
    return values


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="apfree", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="build a progression-free set")
    p.add_argument("--method", required=True, choices=["behrend", "elkin"])
    p.add_argument("--n", type=int, help="interval bound; k and y are derived")
    p.add_argument("--k", type=int, help="dimension (with --y, instead of --n)")
    p.add_argument("--y", type=int, help="cube side (with --k, instead of --n)")
    _add_knobs(p)
    p.add_argument("--out", help="write the set to this path")
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.add_argument("--reproducible", action="store_true",
                   help="omit the timestamp so outputs are byte-stable")
    _add_common(p)

    p = sub.add_parser("verify", help="check a serialized set for arithmetic triples")
    p.add_argument("in_path", help="apfree-set/1 JSON file")
    _add_common(p, threads=False)

    p = sub.add_parser("sweep", help="construct over a (k, y) grid, write a CSV")
    p.add_argument("--method", required=True, choices=["behrend", "elkin"])
    p.add_argument("--k-range", required=True, help="inclusive range, e.g. 2:4")
    p.add_argument("--y-range", required=True, help="inclusive range, e.g. 2:8")
    _add_knobs(p)
    p.add_argument("--out", required=True, help="CSV output path")
    _add_common(p)

    p = sub.add_parser("nu", help="exact optimum by two independent searches")
    p.add_argument("--n", type=int, required=True)

    p = sub.add_parser("discrepancy", help="exact counts vs volumes of capped balls")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--t-max", type=int, required=True)
    p.add_argument("--m", type=int, required=True,
                   help="coordinates with index >= m are constrained nonnegative")
    p.add_argument("--t-step", type=_positive_int, default=1)
    p.add_argument("--out", help="CSV output path (default stdout)")
    _add_common(p, threads=False)

    p = sub.add_parser("witness-count",
                       help="count short certificate vectors with the norm DP")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--g", type=int, required=True)
    p.add_argument("--epsilon", type=float, default=None)
    _add_common(p, threads=False)

    p = sub.add_parser("histogram", help="squared-norm census of the cube as CSV")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--y", type=int, required=True)
    p.add_argument("--out", help="CSV output path (default stdout)")
    _add_common(p, threads=False)

    return parser


def _params(args, n=None, k=None, y=None) -> ConstructionParams:
    """numeric.resolve_params from n, or for the cube [0, y-1]^k, whose
    enumeration budget is checked first, before its bound n is formed."""
    if (n is None) == (k is None and y is None):
        raise ValueError("give exactly one of --n or (--k and --y)")
    if n is None:
        if k is None or y is None:
            raise ValueError("--k and --y must be given together")
        lattice.check_enumeration_budget(k, y, args.budget)
    return numeric.resolve_params(args.method, n, k, y, args.a, args.epsilon, args.g)


def _write(path: str | None, write) -> None:
    """write(fh) on the file at path, or on stdout without one."""
    if path:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            write(fh)
    else:
        write(sys.stdout)


_CONSTRUCT = {"behrend": behrend.construct_behrend, "elkin": elkin.construct_elkin}


def cmd_construct(args) -> int:
    params = _params(args, args.n, args.k, args.y)
    artifact = _CONSTRUCT[args.method](params, budget=args.budget)
    apset, shell = artifact.set, artifact.shell
    if args.out:
        _write(args.out, apset.write_csv if args.format == "csv" else
               lambda fh: apset.write_json(fh, reproducible=args.reproducible))
    print(f"method={args.method} n={params.n} k={params.k} y={params.y} "
          f"shell=[{shell.t_low},{shell.t_high}] size={apset.size} "
          f"density={apset.density}")
    if args.method == "elkin" and artifact.is_empty:
        print("empty result: the certificate filter removed every annulus point",
              file=sys.stderr)
        return EXIT_EMPTY
    return EXIT_OK


def cmd_verify(args) -> int:
    with open(args.in_path, "r", encoding="utf-8") as fh:
        apset = read_set(fh)
    report = verify_mod.progression_free(apset, budget=args.budget)
    if report.ok:
        print(f"ok size={apset.size} check={report.check} "
              f"pairs_checked={report.pairs_checked}")
        return EXIT_OK
    i, j, l = report.witness
    print(f"witness {i} = ({j}+{l})/2")
    return EXIT_ERROR


def cmd_sweep(args) -> int:
    k_range, y_range = _parse_range(args.k_range), _parse_range(args.y_range)
    rows = []
    for k in k_range:
        for y in y_range:
            params = _params(args, k=k, y=y)
            n = params.n
            art = _CONSTRUCT[args.method](params, budget=args.budget)
            fraction = art.survivor_fraction if args.method == "elkin" else ""
            rows.append([
                k, y, n, art.shell.t_low, art.shell.t_high, art.set.size,
                art.set.density, numeric.behrend_bound(n), numeric.elkin_bound(n),
                fraction,
            ])
    header = ["k", "y", "n", "shell_lo", "shell_hi", "size", "density",
              "behrend_bound", "elkin_bound", "survivor_fraction"]
    _write(args.out, lambda fh: csv.writer(fh).writerows([header, *rows]))
    print(f"wrote {len(rows)} rows to {args.out}")
    return EXIT_OK


def cmd_nu(args) -> int:
    value, witness = verify_mod.exact_nu(args.n)
    value_bb = verify_mod.exact_nu_bb(args.n)
    agree = value == value_bb and verify_mod.midpoint_free(witness).ok
    if agree:
        print(f"nu={value} oracle_agree=true")
        return EXIT_OK
    print(f"nu={value} nu_bb={value_bb} oracle_agree=false")
    return EXIT_DISAGREE


def cmd_discrepancy(args) -> int:
    grid = list(range(args.t_step, args.t_max + 1, args.t_step))
    if not grid:
        raise ValueError(f"empty t grid: --t-max {args.t_max} is below "
                         f"--t-step {args.t_step}")
    records = lattice.discrepancy_scan(args.k, grid, args.m, budget=args.budget)
    _write(args.out, lambda fh: lattice.write_discrepancy_csv(records, fh))
    return EXIT_OK


def cmd_witness_count(args) -> int:
    check = elkin.dhat_bound_check(args.k, args.g, args.epsilon, budget=args.budget)
    ok = "true" if check.ok else "false"
    print(f"dhat={check.enumerated} bound={check.bound} ok={ok}")
    return EXIT_OK


def cmd_histogram(args) -> int:
    hist = lattice.build_histogram(args.k, args.y, budget=args.budget)
    _write(args.out, lambda fh: lattice.write_histogram_csv(hist, fh))
    return EXIT_OK


_COMMANDS = {
    "construct": cmd_construct,
    "verify": cmd_verify,
    "sweep": cmd_sweep,
    "nu": cmd_nu,
    "discrepancy": cmd_discrepancy,
    "witness-count": cmd_witness_count,
    "histogram": cmd_histogram,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except SetFormatError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (ApfreeError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
