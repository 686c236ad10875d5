"""The discrete cube [0, y-1]^k: norm census, shell selection, point counting.

The squared-norm census and the capped-ball counts come from one exact
shift-add dynamic program over the squared norm: each coordinate adds
w * h[s - a^2] to h[s] for a = 1..top, so after k rounds h is the k-fold
convolution of the one-coordinate histogram, the same census an explicit
enumeration would produce.  A census round reads only the norms the earlier
rounds can reach, about k^2 * y^3 / 2 cells in all, plus one copy of the
k(y-1)^2 + 1 cells per round; not y^k.
The census is one dense array, counts[t] for t = 0..k(y-1)^2, from the DP
through selection to the CSV.  Both selections tile their window (Behrend
with single norms, Elkin with width-g sub-windows); one pick takes the most
populated tile, from one prefix sum of the census, and builds the selection.
Shell extraction scans the cube in lexicographic order by unraveling chunks
of ranks, keeps the ranks whose squared norm lies in the window, and unravels
those once into an (N, k) array of the least dtype that holds y - 1 (one
byte per digit for y <= 256; the scan's norms are int64); it can be narrowed
to a sub-cube [low, y-1]^k by unraveling in base y - low and adding low.
That array is the one point type of the pipelines; shell_members gives the
same rows as a list of plain int tuples for callers that want a Python
sequence.

Window ends are irrational (mu +- a*sigma with sigma a square root of a
rational), so the integer ends of a window are found in closed form with
math.isqrt, never through a float.

Counting lattice points in capped balls (alpha_i >= 0 for i >= m) runs the
same program and takes the prefix sum of its result, which commutes with the
linear shift-adds; the work is O(k * t * sqrt(t)) whatever the count.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import IO, Callable, Sequence

import numpy as np

from .errors import DEFAULT_BUDGET, BudgetExceeded, EmptyWindow
from .numeric import MomentSummary, ball_volume, int_dtype

#: Rows unraveled per scan step; measured faster than larger chunks (cache-sized).
_CHUNK = 1 << 14


@dataclass(frozen=True)
class ShellSelection:
    """A chosen squared-norm window [t_low, t_high] and its population.

    sigma_window is the real Chebyshev window the selection was made in;
    pigeonhole_bound is the guaranteed-population floor that was checked.
    """

    t_low: int
    t_high: int
    population: int
    sigma_window: tuple[float, float]
    pigeonhole_bound: float
    meets_bound: bool


def check_enumeration_budget(k: int, y: int, budget: int) -> None:
    """Refuse an enumeration of the cube [0, y-1]^k when y^k exceeds budget."""
    low = k * (y.bit_length() - 1)  # y^k >= 2^low, known before y^k is formed
    if low >= budget.bit_length():
        raise BudgetExceeded(f"y^k >= 2^{low} exceeds the enumeration budget {budget}")
    if y**k > budget:
        raise BudgetExceeded(f"y^k = {y**k} exceeds the enumeration budget {budget}")


#: Norm-DP cells one round's fixed cost is priced as: a round (an array copy
#: and its slice-adds) takes 3-5 us however few cells it touches, and an int64
#: cell about 1.0-1.4 ns (histogram --k 2 --y 400); 2-core Xeon VM, Python 3.11.
_ROUND_CELLS = 2500


def _norm_counts(
    length: int, top: int, rounds: int, two_sided: int, budget: int
) -> np.ndarray:
    """h[s] = vectors of squared norm s, for s < length.

    One shift-add round per coordinate: the first rounds - two_sided
    coordinates take 0..top, the last two_sided take -top..top (weight 2 on
    1..top).  Counts are int64 while the number of vectors is below 2^62,
    Python ints (object dtype) otherwise.  Before round j, h is zero above
    j * top^2, so that round reads only h[:reach_j].  A round also copies all
    length cells and costs _ROUND_CELLS more: the work sum(reach_j) * top +
    rounds * (length + _ROUND_CELLS) is checked, in closed form, first.
    """
    sq_top = top * top
    # reach_j = j * sq_top + 1 for the first `short` rounds, length after them
    short = rounds if sq_top == 0 else min(rounds, (length - 1) // sq_top + 1)
    reach_sum = short + sq_top * short * (short - 1) // 2 + (rounds - short) * length
    work = reach_sum * top + rounds * (length + _ROUND_CELLS)
    if work > budget:
        raise BudgetExceeded(f"norm-count work ~{work} exceeds {budget}")
    vectors = (top + 1) ** (rounds - two_sided) * (2 * top + 1) ** two_sided
    h = np.zeros(length, dtype=int_dtype(vectors))
    h[0] = 1
    for j in range(rounds):
        w = 1 if j < rounds - two_sided else 2
        r = min(j * sq_top + 1, length)
        new = h.copy()
        for a in range(1, top + 1):
            sq = a * a
            n = min(r, length - sq)
            new[sq : sq + n] += w * h[:n]
        h = new
    return h


def build_histogram(k: int, y: int, budget: int = DEFAULT_BUDGET) -> np.ndarray:
    """Exact squared-norm census of the cube [0, y-1]^k, priced by its DP work.

    counts[t] is the number of cube points of squared norm t, t = 0..k(y-1)^2;
    int64, or object (Python ints) when y^k passes int64.
    """
    if k < 1 or y < 1:
        raise ValueError(f"need k >= 1 and y >= 1, got k={k}, y={y}")
    return _norm_counts(k * (y - 1) ** 2 + 1, y - 1, k, 0, budget)


def write_histogram_csv(counts: np.ndarray, fh: IO[str]) -> None:
    """Dump the nonzero bins as `norm_sq,count` rows, ascending by norm_sq."""
    fh.write("norm_sq,count\n")
    norms = np.flatnonzero(counts)
    fh.writelines(f"{t},{c}\n" for t, c in zip(norms.tolist(), counts[norms].tolist()))


def write_discrepancy_csv(records: Sequence[DiscrepancyRecord], fh: IO[str]) -> None:
    """Dump as `k,t,m,count_exact,volume,reference_volume,ratio` CSV rows."""
    writer = csv.writer(fh)
    writer.writerow(
        ["k", "t", "m", "count_exact", "volume", "reference_volume", "ratio"]
    )
    writer.writerows(
        [r.k, r.t, r.m, r.count_exact, r.volume, r.reference_volume, r.ratio]
        for r in records
    )


def _window_ends(mu: Fraction, bound_sq: Fraction) -> tuple[int, int]:
    """Integer ends [ceil(mu - s), floor(mu + s)] for s = sqrt(bound_sq), exact.

    With mu = m/d and r = floor(d*s), an integer t lies in the window iff
    |d*t - m| <= r, since the left side is an integer.
    """
    m, d = mu.numerator, mu.denominator
    r = math.isqrt(d * d * bound_sq.numerator // bound_sq.denominator)
    return -((r - m) // d), (m + r) // d


def _best_tile(
    counts: np.ndarray, moments: MomentSummary, a: float, lo: int, hi: int,
    starts: np.ndarray, ends: np.ndarray, floor: Callable[[int], tuple[float, float]],
) -> ShellSelection:
    """The most populated tile [starts[i], ends[i]] of the mu +- a*sigma window [lo, hi].

    Ties go to the first tile; tiles may reach below norm 0 or past the census.
    floor(census total) gives the pigeonhole floor to record and the least
    population that meets it.  Raises EmptyWindow if every tile is empty.
    """
    prefix = np.concatenate(([0], np.cumsum(counts)))  # prefix[i] = sum(counts[:i])
    size = len(counts)
    pops = prefix[np.clip(ends + 1, 0, size)] - prefix[np.clip(starts, 0, size)]
    if not pops.any():
        raise EmptyWindow(f"no populated squared norm in [{lo}, {hi}]")
    best = int(np.argmax(pops))
    population = int(pops[best])
    bound, need = floor(int(prefix[-1]))
    mu, sigma = float(moments.mu_Z), moments.sigma_Z
    return ShellSelection(
        t_low=int(starts[best]), t_high=int(ends[best]), population=population,
        sigma_window=(mu - a * sigma, mu + a * sigma), pigeonhole_bound=bound,
        meets_bound=population >= need,
    )


def select_behrend_shell(
    counts: np.ndarray, moments: MomentSummary, a: float
) -> ShellSelection:
    """Pick the most populated squared norm t >= 1 inside [mu - a*sigma, mu + a*sigma].

    counts is the census from build_histogram.  The norm 0 is skipped: its
    one member, the origin, encodes to 0, outside [1, n].  Ties break toward
    the smallest norm.  The returned selection records the pigeonhole floor
    (1 - 1/a^2) * y^k / (2*a*sigma + 1), met within float rounding; an a so
    small that this floor passes the float range is refused (ValueError).
    """
    if not 0 < a < math.inf:
        raise ValueError(f"a must be finite and > 0, got {a}")
    a_sq = Fraction(a) ** 2
    lo, hi = _window_ends(moments.mu_Z, a_sq * moments.var_Z)
    # Width-1 tiles over the part of the window the census holds.
    norms = np.arange(max(lo, 1), min(hi, len(counts) - 1) + 1)

    def floor(total: int) -> tuple[float, float]:
        try:  # 1 - 1/a^2 passes the float range for a tiny a
            bound = float((1 - 1 / a_sq) * total) / (2 * a * moments.sigma_Z + 1)
        except OverflowError:
            msg = f"the pigeonhole floor at a = {a} overflows floats"
            raise ValueError(msg) from None
        return bound, bound - 1e-9

    return _best_tile(counts, moments, a, lo, hi, norms, norms, floor)


def annulus_count(moments: MomentSummary, g: int) -> int:
    """Number of width-g sub-windows tiling the a=2 Chebyshev window: ceil(4*sigma/g)."""
    if g < 1:
        raise ValueError(f"g must be >= 1, got {g}")
    c = math.isqrt(math.ceil(16 * moments.var_Z) - 1) + 1  # ceil(4*sigma), exact
    return -(-c // g)


def select_elkin_annulus(
    counts: np.ndarray, moments: MomentSummary, g: int
) -> ShellSelection:
    """Pick the most populated sub-window of the a=2 Chebyshev window.

    counts is the census from build_histogram.  The window is tiled into
    ell = ceil(4*sigma/g) integer sub-windows: the first ell-1 are half-open
    of width g (g integer norms each), the last is closed and absorbs the
    remainder (at most g+1 norms).  Ties break toward the smallest t_low.
    The pigeonhole floor is ceil((3/4) * y^k / ell), compared exactly.
    """
    lo, hi = _window_ends(moments.mu_Z, 4 * moments.var_Z)
    ell = annulus_count(moments, g)
    starts = np.arange(lo, hi + 1, g)[:ell]
    ends = starts + (g - 1)
    ends[-1:] = hi  # the last tile absorbs the remainder

    def floor(total: int) -> tuple[float, int]:
        bound = -((-3 * total) // (4 * ell))  # ceil(3*total / (4*ell))
        return float(bound), bound

    return _best_tile(counts, moments, 2, lo, hi, starts, ends, floor)


def _unravel(ranks: np.ndarray, k: int, y: int, dtype=np.int64) -> np.ndarray:
    """Cube points of [0, y-1]^k with the given lexicographic ranks, as an array."""
    coords = np.empty((len(ranks), k), dtype=dtype)
    for j in range(k - 1, -1, -1):
        ranks, coords[:, j] = np.divmod(ranks, y)
    return coords


def shell_points(
    k: int, y: int, shell: ShellSelection, budget: int = DEFAULT_BUDGET, low: int = 0
) -> np.ndarray:
    """All vectors of the sub-cube [low, y-1]^k with t_low <= ||v||^2 <= t_high,
    as an (N, k) array with rows in lexicographic order, in the least dtype
    that holds y - 1 (np.min_scalar_type: uint8 for y <= 256).

    low = 0 (the default) scans the whole cube; low >= y gives shape (0, k).
    The budget check is on the whole cube, y^k, whatever low is.
    """
    if low < 0:
        raise ValueError(f"low must be >= 0, got {low}")
    check_enumeration_budget(k, y, budget)
    t_low, t_high = shell.t_low, shell.t_high
    side = y - low
    # Skip first coordinates whose own square already exceeds the window top.
    first = max(min(y - 1, math.isqrt(max(t_high, 0))) - low + 1, 0)
    stop = first * side ** (k - 1)
    # Keep 1-D ranks per chunk, not rows: many small row blocks fragment the heap.
    # Chunks and their norms are int64: squares would wrap in the digit dtype.
    kept = [np.empty(0, dtype=np.int64)]
    for start in range(0, stop, _CHUNK):
        coords = _unravel(np.arange(start, min(start + _CHUNK, stop), dtype=np.int64),
                          k, side)
        if low:
            coords += low
        norms = np.einsum("ij,ij->i", coords, coords)
        kept.append(np.flatnonzero((norms >= t_low) & (norms <= t_high)) + start)
    points = _unravel(np.concatenate(kept), k, side, np.min_scalar_type(y - 1))
    if len(points):  # with no row low may be y or more, past that dtype
        points += low
    return points


def shell_members(
    k: int, y: int, shell: ShellSelection, budget: int = DEFAULT_BUDGET, threads: int = 1
) -> list[tuple[int, ...]]:
    """shell_points as a list of plain int tuples; threads has no effect."""
    return list(map(tuple, shell_points(k, y, shell, budget).tolist()))


def _capped_counts_table(k: int, t: int, m: int, budget: int) -> np.ndarray:
    """table[s] = lattice points with norm^2 <= s, for all s <= t."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if t < 0:
        raise ValueError(f"t must be >= 0, got {t}")
    if not 1 <= m <= k + 1:
        raise ValueError(f"m must be in [1, {k + 1}], got {m}")
    return np.cumsum(_norm_counts(t + 1, math.isqrt(t), k, m - 1, budget))


def count_capped_ball(k: int, t: int, m: int, budget: int = DEFAULT_BUDGET) -> int:
    """Exact number of alpha in Z^k with ||alpha||^2 <= t and alpha_i >= 0 for i >= m.

    m = k+1 means no half-space constraints, m = 1 constrains every coordinate.
    """
    table = _capped_counts_table(k, t, m, budget)
    return int(table[t])


def capped_ball_volume(k: int, t: float, m: int) -> float:
    """Volume beta_k / 2^max(k-m+1, 0) * t^(k/2); dimension 0 has volume 1."""
    if k == 0:
        return 1.0
    halves = max(k - m + 1, 0)
    return ball_volume(k, t) / 2.0**halves


@dataclass(frozen=True)
class DiscrepancyRecord:
    """Exact count vs volume of one capped ball, normalized two dimensions down."""

    k: int
    t: int
    m: int
    count_exact: int
    volume: float
    reference_volume: float

    @property
    def ratio(self) -> float:
        return abs(self.count_exact - self.volume) / self.reference_volume


def discrepancy_scan(
    k: int, t_grid: Sequence[int], m: int, budget: int = DEFAULT_BUDGET
) -> list[DiscrepancyRecord]:
    """One record per t: how far the exact count strays from the volume.

    The normalizer is the capped-ball volume in dimension k-2 at the same t,
    the natural scale of the count/volume gap.  Requires every t >= 1.
    """
    if k < 2:
        raise ValueError(f"discrepancy scans need k >= 2, got {k}")
    if any(t < 1 for t in t_grid):
        raise ValueError("every t in the grid must be >= 1")
    if not t_grid:
        return []
    t_max = max(t_grid)
    # capped_ball_volume(ell, t, m) is beta_ell * t^(ell/2) / 2^halves, in that
    # order: dividing first would round a subnormal coefficient.  Taking
    # beta_ell and 2^halves once per scan keeps every volume below equal to it
    # bit for bit.  Both volumes grow with t: finite at t_max, checked before
    # the DP runs, they are finite throughout.
    try:
        (beta, cap), (beta_ref, cap_ref) = (
            (ball_volume(ell, 1), 2.0 ** max(ell - m + 1, 0)) if ell else (1.0, 1.0)
            for ell in (k, k - 2)
        )
        tops = (beta * t_max ** (k / 2) / cap,
                beta_ref * t_max ** ((k - 2) / 2) / cap_ref)
    except OverflowError:
        tops = (math.inf,)
    if not all(map(math.isfinite, tops)):
        raise ValueError(f"ball volumes at k = {k}, t <= {t_max} overflow floats")
    table = _capped_counts_table(k, t_max, m, budget)
    return [
        DiscrepancyRecord(k=k, t=t, m=m, count_exact=int(table[t]),
                          volume=beta * t ** (k / 2) / cap,
                          reference_volume=beta_ref * t ** ((k - 2) / 2) / cap_ref)
        for t in t_grid
    ]
