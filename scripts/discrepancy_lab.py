#!/usr/bin/env python3
"""Empirical lattice-point vs volume discrepancy for balls and capped balls.

Scans a geometric grid of squared radii, records the exact count A, the
volume V, and the normalized gap |A - V| / V_{k-2}(t), then summarizes the
growth trend as the ratio of decade means.  Unconstrained balls (m = k+1)
show no trend; with all coordinates constrained (m = 1) the closed facets
of the standard lattice contribute a systematic ~sqrt(t) growth, which this
lab makes visible.

Example:
    python scripts/discrepancy_lab.py --t-lo 100 --t-hi 10000 --out lab.csv
"""

import argparse
import math
import sys

from apfree.lattice import DEFAULT_BUDGET, discrepancy_scan, write_discrepancy_csv


def geometric_grid(t_lo: int, t_hi: int, points_per_decade: int) -> list[int]:
    decades = math.log10(t_hi / t_lo)
    n = max(2, round(points_per_decade * decades) + 1)
    grid = sorted({round(t_lo * (t_hi / t_lo) ** (j / (n - 1))) for j in range(n)})
    return [t for t in grid if t >= 1]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--k-values", default="3,4,5")
    ap.add_argument("--t-lo", type=int, default=100)
    ap.add_argument("--t-hi", type=int, default=10000)
    ap.add_argument("--points-per-decade", type=int, default=25)
    ap.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    ap.add_argument("--out", help="CSV path for the raw records")
    args = ap.parse_args()
    if min(args.t_lo, args.t_hi) < 1:
        ap.error(f"--t-lo and --t-hi must be >= 1, got {args.t_lo} and {args.t_hi}")
    try:
        ks = [int(s) for s in args.k_values.split(",")]
    except ValueError:
        ap.error(f"--k-values must be comma-separated integers, got {args.k_values!r}")
    if min(ks) < 2:
        ap.error(f"--k-values must be >= 2, got {min(ks)}")

    grid = geometric_grid(args.t_lo, args.t_hi, args.points_per_decade)
    split = (args.t_lo * args.t_hi) ** 0.5
    rows = []
    print("k  m   bottom_mean  top_mean  top/bottom")
    for k in ks:
        for m in (1, k + 1):
            records = discrepancy_scan(k, grid, m, budget=args.budget)
            bottom = [r.ratio for r in records if r.t <= split]
            top = [r.ratio for r in records if r.t >= split]
            mb = sum(bottom) / len(bottom)
            mt = sum(top) / len(top)
            print(f"{k}  {m:<2} {mb:11.4f} {mt:9.4f} {mt / mb:8.3f}")
            rows.extend(records)

    if args.out:
        with open(args.out, "w", newline="") as fh:
            write_discrepancy_csv(rows, fh)
        print(f"wrote {len(rows)} rows to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
