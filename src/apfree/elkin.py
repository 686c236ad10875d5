"""Annulus construction: widen the shell, then keep only extreme points.

Instead of a single squared norm, take the annulus [t_low, t_high] that
pigeonhole picks among the tiles of the Chebyshev window mu +- 2*sigma, g
norms each and the last up to g+1; t_low < 0 when mu - 2*sigma < 0.
Points of the annulus that are convex combinations of other ball points
always admit a short certificate: a nonzero integer vector delta with
||delta||^2 <= g and 0 <= <b, delta> <= g.  Filtering out every point with
such a certificate leaves a subset of the ball's extreme points, which is
convexly independent and therefore encodes to a progression-free set.

Much of the filter's answer is known before it runs.  Each unit vector e_i
is a witness (||e_i||^2 = 1 <= g), and <b, e_i> = b_i, so every point with a
coordinate in [0, g] has a certificate.  All survivors therefore lie in the
sub-cube [g+1, y-1]^k, and construct_elkin enumerates and filters only the
annulus points there.  The prune is exact: each point it skips is one the
full filter removes, and each point it keeps is still tested against every
witness that can certify it (see enumerate_witnesses).  The annulus size
comes from the census, so the points the unit witnesses remove number the
annulus size minus the sub-cube's share of it.

Annulus points are an (N, k) array in shell_points' digit dtype (one byte
per digit for y <= 256) and witnesses an (M, k) int64 array; the filter is
one chunked matrix product of the two, which numpy forms in int64, so dot
products past a byte do not wrap.
filter_survivors takes any sequence of points and returns its survivors as
a list of plain int tuples.

The filter can empty the annulus at desk scale (small y relative to g); that
outcome is reported on the artifact, never raised, so parameter sweeps can
record it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .codec import APFreeSet
from .errors import BudgetExceeded
from .lattice import (
    DEFAULT_BUDGET,
    ShellSelection,
    count_capped_ball,
    select_and_scan,
    select_elkin_annulus,
)
from .numeric import ConstructionParams, eta


class DhatCheck(NamedTuple):
    enumerated: int
    bound: float
    ok: bool


def _witness_count(k: int, g: int, budget: int) -> int:
    """Exact number of nonzero delta in Z^k with ||delta||^2 <= g, by the norm DP."""
    if k < 1 or g < 1:
        raise ValueError(f"need k >= 1 and g >= 1, got k={k}, g={g}")
    return count_capped_ball(k, g, k + 1, budget) - 1


def enumerate_witnesses(k: int, g: int, budget: int = DEFAULT_BUDGET) -> np.ndarray:
    """All nonzero integer vectors delta in Z^k with ||delta||^2 <= g, as an
    (M, k) int64 array.

    Rows are in lexicographic order (negative entries first), each vector
    once.  The set is closed under delta -> -delta, and in this order row i
    is minus row M-1-i.  So the set splits into the sign-pure rows, the rows
    M/2.. with a negative entry (first nonzero entry positive), and their
    negatives.  On [g+1, y-1]^k a sign-pure delta gives |<b, delta>| > g, so
    b has a certificate iff |<b, delta>| <= g for a row of the middle part:
    construct_elkin tests only those (none at g = 1), while witness-count
    reports the full count.

    Built level by level: each kept prefix is extended by every digit in
    [-isqrt(g), isqrt(g)] and the prefixes of squared norm <= g are kept.  A
    kept prefix pads with zeros to a distinct witness or to zero, so no level
    holds more than (count + 1) * (2*isqrt(g) + 1) rows of k cells.  That
    price, from the exact count, is checked against budget before the walk.
    """
    count = _witness_count(k, g, budget)
    cells = (count + 1) * (2 * math.isqrt(g) + 1) * k
    if cells > budget:
        raise BudgetExceeded(f"{cells} cells for {count} witnesses exceed {budget}")
    digits = np.arange(-math.isqrt(g), math.isqrt(g) + 1, dtype=np.int64)
    prefixes = np.zeros((1, 0), dtype=np.int64)
    norms = np.zeros(1, dtype=np.int64)
    for _ in range(k):
        n = len(prefixes)
        prefixes = np.column_stack(
            (np.repeat(prefixes, len(digits), axis=0), np.tile(digits, n))
        )
        norms = np.repeat(norms, len(digits)) + np.tile(digits * digits, n)
        within = norms <= g
        prefixes, norms = prefixes[within], norms[within]
    return prefixes[norms > 0]


def _uncertified(points: np.ndarray, deltas: np.ndarray, g: int) -> np.ndarray:
    """Mask of the rows b of an (N, k) array with no witness row delta giving
    |<b, delta>| <= g."""
    keep = np.ones(len(points), dtype=bool)
    deltas = np.asarray(deltas, dtype=np.int64).reshape(len(deltas), points.shape[1])
    chunk = max(1, (1 << 22) // max(1, len(deltas)))
    for start in range(0, len(points), chunk):
        dots = points[start : start + chunk] @ deltas.T
        keep[start : start + chunk] = ~(np.abs(dots) <= g).any(axis=1)
    return keep


def filter_survivors(
    points: Sequence[Sequence[int]], witnesses: np.ndarray, g: int
) -> tuple[list[tuple[int, ...]], int]:
    """Keep points b whose every witness dot product avoids [-g, g].

    points is any sequence of coordinate sequences, or an (N, k) array.
    Survivors are returned in input order as a list of plain int tuples.  A
    removed point had some delta with |<b, delta>| <= g.  When witnesses is
    closed under delta -> -delta, as enumerate_witnesses is, that equals the
    one-sided certificate 0 <= <b, delta> <= g that b may be expressible as a
    convex combination of other ball points.
    """
    if len(points) == 0:
        return [], 0
    rows = np.asarray(points, dtype=np.int64)
    survivors = list(map(tuple, rows[_uncertified(rows, witnesses, g)].tolist()))
    return survivors, len(rows) - len(survivors)


@dataclass(frozen=True)
class ElkinArtifact:
    """One annulus run: selected window, census, filter outcome, encoded set.

    removed counts every annulus point the filter dropped; unit_removed
    counts those with a coordinate in [0, g], which a unit witness removes.
    decode_all(set.elements, k, y) gives the survivors, in code order.
    """

    params: ConstructionParams
    shell: ShellSelection
    annulus_points: int
    removed: int
    unit_removed: int
    set: APFreeSet

    @property
    def is_empty(self) -> bool:
        return self.set.size == 0

    @property
    def survivor_fraction(self) -> float:
        return self.set.size / self.annulus_points if self.annulus_points else 0.0


def construct_elkin(
    params: ConstructionParams,
    budget: int = DEFAULT_BUDGET,
    threads: int = 1,
) -> ElkinArtifact:
    """Run the annulus pipeline; an emptied filter is reported, not raised.

    Only the annulus points of the sub-cube [g+1, y-1]^k are enumerated and
    filtered, each against the witnesses enumerate_witnesses says can certify
    it; with no such point, no witness is enumerated.  select_and_scan checks
    the enumeration budget y^k before the census runs, and the tested dot
    products are checked before the filter runs.  threads has no effect.
    """
    k, g = params.k, params.effective_g()
    shell, points = select_and_scan(k, params.y, select_elkin_annulus, g, budget, g + 1)
    kept = points
    if len(points):
        half = enumerate_witnesses(k, g, budget)
        half = half[len(half) // 2 :]
        tested = half[(half < 0).any(axis=1)]
        dots = len(points) * len(tested)
        if dots > budget:
            raise BudgetExceeded(f"{dots} certificate dot products exceed {budget}")
        kept = points[_uncertified(points, tested, g)]
    return ElkinArtifact(
        params=params,
        shell=shell,
        annulus_points=shell.population,
        removed=shell.population - len(kept),
        unit_removed=shell.population - len(points),
        set=APFreeSet.from_points(kept, "elkin", params),
    )


def dhat_bound_check(
    k: int, g: int, epsilon: float | None = None, budget: int = DEFAULT_BUDGET
) -> DhatCheck:
    """Compare the witness count, from the norm-count DP, against 2 * 2^(eta * k).

    The exponent uses the caller's epsilon when g <= epsilon * k (the normal
    regime); otherwise, e.g. when the g >= 1 clamp is active, it is evaluated
    at the effective ratio g / k.
    """
    if epsilon is not None and not 0 < epsilon < math.inf:
        raise ValueError(f"epsilon must be finite and > 0, got {epsilon}")
    enumerated = _witness_count(k, g, budget)
    eps_eff = epsilon if epsilon is not None and g <= epsilon * k else g / k
    bound = 2.0 * 2.0 ** (eta(eps_eff) * k)
    return DhatCheck(enumerated=enumerated, bound=bound, ok=enumerated <= bound)
