#!/usr/bin/env python3
"""Compare achieved set densities against the two asymptotic comparators.

For each n = 2^e in the requested exponent range, derive parameters, run
both constructions, and tabulate |S|, |S|/n, and the classical/improved
comparator values at that n.  The annulus rows also report how much of the
annulus survived the certificate filter.

Example:
    python scripts/density_sweep.py --exponents 16:36:4 --out densities.csv
"""

import argparse
import csv
import sys

from apfree import (
    DEFAULT_BUDGET,
    BudgetExceeded,
    DegenerateParameters,
    behrend_bound,
    construct_behrend,
    construct_elkin,
    default_params,
    elkin_bound,
)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--exponents", default="16:32:4",
                    help="lo:hi:step for n = 2^e")
    ap.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    ap.add_argument("--out", help="CSV path (default stdout table)")
    args = ap.parse_args()

    try:
        lo, hi, step = (int(x) for x in args.exponents.split(":"))
    except ValueError:
        ap.error(f"--exponents must be lo:hi:step integers, got {args.exponents!r}")
    if step < 1:
        ap.error(f"--exponents step must be >= 1, got {step}")
    rows = []
    for e in range(lo, hi + 1, step):
        n = 2**e
        for method in ("behrend", "elkin"):
            try:
                params = default_params(n, method)
            except DegenerateParameters as exc:
                print(f"n=2^{e} {method}: {exc}", file=sys.stderr)
                continue
            try:
                if method == "behrend":
                    art = construct_behrend(params, budget=args.budget)
                    fraction = ""
                else:
                    art = construct_elkin(params, budget=args.budget)
                    fraction = f"{art.survivor_fraction:.4f}"
            except BudgetExceeded as exc:
                print(f"n=2^{e} {method}: {exc}, skipped", file=sys.stderr)
                continue
            rows.append({
                "e": e, "method": method, "k": params.k, "y": params.y,
                "size": art.set.size, "density": art.set.density,
                "behrend_bound": behrend_bound(n), "elkin_bound": elkin_bound(n),
                "survivor_fraction": fraction,
            })

    fields = ["e", "method", "k", "y", "size", "density", "behrend_bound",
              "elkin_bound", "survivor_fraction"]
    if args.out:
        with open(args.out, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=fields)
            writer.writeheader()
            writer.writerows(rows)
        print(f"wrote {len(rows)} rows to {args.out}")
    else:
        print(" ".join(fields))
        for r in rows:
            print(" ".join(str(r[f]) for f in fields))
    return 0


if __name__ == "__main__":
    sys.exit(main())
