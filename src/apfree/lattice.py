"""The discrete cube [0, y-1]^k: norm census, shell selection, point counting.

The census, the capped-ball counts (alpha_i >= 0 for i >= m; a prefix sum,
which commutes with the shift-adds) and Elkin's witness count come from one
exact shift-add DP over the squared norm: each coordinate is a range of
digits, whose squares a round adds, reading only the norms earlier rounds reach.
The census is one dense array, counts[t] for t = 0..k(y-1)^2, from the DP
through selection to the CSV.  Both selections tile their window (Behrend
with single norms, Elkin with width-g sub-windows); one pick takes the most
populated tile, from one prefix sum of the census, and builds the selection.
Shell extraction scans the cube in lexicographic order by unraveling chunks
of ranks, keeps each chunk's rows whose squared norm lies in the window in
the least dtype that holds y - 1 (one byte per digit for y <= 256; the
scan's norms are int64), and concatenates them once into an (N, k) array;
it can be narrowed to a sub-cube [low, y-1]^k by unraveling in base y - low
and adding low.
That array is the one point type of the pipelines; shell_members gives the
same rows as a list of plain int tuples for callers that want a Python
sequence.

Window ends are irrational (mu +- a*sigma with sigma a square root of a
rational), so the integer ends of a window are found in closed form with
math.isqrt, never through a float.
"""

from __future__ import annotations

import csv
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from operator import attrgetter
from typing import IO, Callable, Sequence

import numpy as np

from .errors import DEFAULT_BUDGET, BudgetExceeded, EmptyWindow
from .numeric import MomentSummary, ball_volume, exact_moments, exceeds, int_dtype

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
    if exceeds(y, k, budget):
        raise BudgetExceeded(f"y^k = {y}^{k} exceeds the enumeration budget {budget}")


#: Norm-DP cells one round's fixed cost is priced as: a round (an array copy
#: and its slice-adds) takes 3-5 us however few cells it touches, and an int64
#: cell about 1.0-1.4 ns (histogram --k 2 --y 400); 2-core Xeon VM, Python 3.11.
_ROUND_CELLS = 2500

#: Int64 cells one object-dtype (Python int) cell is priced as: 48-72 ns
#: against 1.1-1.8 ns, at (15, 50), (20, 9) and (30, 5) against (2, 400) and
#: (3, 120); counts of many digits cost more (163 ns at (7000, 2)).  Same VM.
_OBJECT_CELL = 40


def _norm_counts(
    length: int, kinds: Sequence[tuple[range, int]], budget: int
) -> np.ndarray:
    """h[s] = vectors of squared norm s, for s < length.

    kinds are (digits, rounds): rounds coordinates over the nonempty step-1
    range digits.  Counts are int64 below 2^62 vectors, else Python ints
    (object dtype).  A round reads h[:reach] per nonzero square, reach being
    1 + the earlier rounds' largest squares, copies all length cells and
    costs _ROUND_CELLS more; that work is summed from the ranges' ends and
    checked first, its cells weighted by _OBJECT_CELL for Python ints.
    """
    kinds = [kind for kind in kinds if kind[1]]
    cells, reach = 0, 1
    for digits, rounds in kinds:
        lo, hi = digits[0], digits[-1]
        top_sq = max(lo * lo, hi * hi)
        squares = max(-lo, hi) if lo <= 0 <= hi else hi - lo + 1
        # reach + i * top_sq for the first `short` rounds, length after them
        short = min(rounds, (length - reach) // top_sq + 1) if top_sq else rounds
        cells += squares * (short * reach + top_sq * short * (short - 1) // 2
                            + (rounds - short) * length) + rounds * length
        reach = min(reach + rounds * top_sq, length)
    work = cells + sum(rounds for _, rounds in kinds) * _ROUND_CELLS
    if work <= budget:  # rounds and ranges are bounded now: cheap to count and walk
        dtype = int_dtype(math.prod(len(digits) ** rounds for digits, rounds in kinds))
        if dtype is object:
            work += (_OBJECT_CELL - 1) * cells
    if work > budget:
        raise BudgetExceeded(f"norm-count work ~{work} exceeds {budget}")
    h = np.zeros(length, dtype=dtype)
    h[0] = 1
    reach = 1
    for digits, rounds in kinds:
        # +-d share one slice-add; Python ints, as int64 squares wrap past 3.04e9
        weights = Counter(d * d for d in digits if d and d * d < length)
        for _ in range(rounds):
            new = h * (0 in digits)  # the copy, dropped by a range without 0
            for v, w in weights.items():
                n = min(reach, length - v)
                new[v : v + n] += w * h[:n]
            h = new
            reach = min(reach + max(weights, default=0), length)
    return h


def build_histogram(k: int, y: int, budget: int = DEFAULT_BUDGET) -> np.ndarray:
    """Exact squared-norm census of the cube [0, y-1]^k, priced by its DP work.

    counts[t] is the number of cube points of squared norm t, t = 0..k(y-1)^2;
    int64, or object (Python ints) when y^k passes int64.
    """
    if k < 1 or y < 1:
        raise ValueError(f"need k >= 1 and y >= 1, got k={k}, y={y}")
    return _norm_counts(k * (y - 1) ** 2 + 1, [(range(y), k)], budget)


def write_histogram_csv(counts: np.ndarray, fh: IO[str]) -> None:
    """Dump the nonzero bins as `norm_sq,count` rows, ascending by norm_sq."""
    fh.write("norm_sq,count\n")
    norms = np.flatnonzero(counts)
    fh.writelines(f"{t},{c}\n" for t, c in zip(norms.tolist(), counts[norms].tolist()))


def write_discrepancy_csv(records: Sequence[DiscrepancyRecord], fh: IO[str]) -> None:
    """Dump as `k,t,m,count_exact,volume,reference_volume,ratio` CSV rows."""
    fields = ("k", "t", "m", "count_exact", "volume", "reference_volume", "ratio")
    writer = csv.writer(fh)
    writer.writerow(fields)
    writer.writerows(map(attrgetter(*fields), records))


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


def _unravel(ranks: np.ndarray, k: int, y: int) -> np.ndarray:
    """Cube points of [0, y-1]^k with the given lexicographic ranks, in int64."""
    coords = np.empty((len(ranks), k), dtype=np.int64)
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
    # Chunks and their norms are int64 (squares would wrap in the digit dtype);
    # each chunk's kept rows go to the digit dtype at once, concatenated once.
    digit = np.min_scalar_type(y - 1)
    kept = [np.empty((0, k), dtype=digit)]
    for start in range(0, stop, _CHUNK):
        coords = _unravel(np.arange(start, min(start + _CHUNK, stop), dtype=np.int64),
                          k, side)
        if low:
            coords += low
        norms = np.einsum("ij,ij->i", coords, coords)
        kept.append(coords[(norms >= t_low) & (norms <= t_high)].astype(digit))
    return np.concatenate(kept)


def select_and_scan(
    k: int, y: int, select: Callable[[np.ndarray, MomentSummary, float], ShellSelection],
    knob: float, budget: int, low: int = 0,
) -> tuple[ShellSelection, np.ndarray]:
    """The pipeline of both constructions: refuse y^k past budget, census, pick
    select(census, moments, knob), and scan that window's points in [low, y-1]^k."""
    check_enumeration_budget(k, y, budget)
    shell = select(build_histogram(k, y, budget), exact_moments(k, y), knob)
    return shell, shell_points(k, y, shell, budget, low)


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
    top = math.isqrt(t)
    kinds = [(range(top + 1), k - m + 1), (range(-top, top + 1), m - 1)]
    return np.cumsum(_norm_counts(t + 1, kinds, budget))


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
