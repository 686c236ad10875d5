"""Annulus construction: widen the shell, then keep only extreme points.

Instead of a single squared norm, take a window [T-g, T] of width g chosen
by pigeonhole among the tilings of the Chebyshev window.  Points of the
annulus that are convex combinations of other ball points always admit a
short certificate: a nonzero integer vector delta with ||delta||^2 <= g and
0 <= <b, delta> <= g.  Filtering out every point with such a certificate
leaves a subset of the ball's extreme points, which is convexly independent
and therefore encodes to a progression-free set.

Much of the filter's answer is known before it runs.  Each unit vector e_i
is a witness (||e_i||^2 = 1 <= g), and <b, e_i> = b_i, so every point with a
coordinate in [0, g] has a certificate.  All survivors therefore lie in the
sub-cube [g+1, y-1]^k, and construct_elkin enumerates and filters only the
annulus points there.  The prune is exact: each point it skips is one the
full filter removes, and each point it keeps is still tested against every
witness.  The annulus size comes from the census, so the points the unit
witnesses remove number the annulus size minus the sub-cube's share of it.

The filter can empty the annulus at desk scale (small y relative to g); that
outcome is reported on the artifact, never raised, so parameter sweeps can
record it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .codec import APFreeSet, encode_all
from .errors import BudgetExceeded
from .lattice import (
    DEFAULT_BUDGET,
    LatticeVector,
    ShellSelection,
    build_histogram,
    check_enumeration_budget,
    count_capped_ball,
    lattice_vectors,
    select_elkin_annulus,
    shell_points,
)
from .numeric import ConstructionParams, eta, exact_moments


class WitnessVector(NamedTuple):
    delta: tuple[int, ...]
    norm_sq: int


class DhatCheck(NamedTuple):
    enumerated: int
    bound: float
    ok: bool


def _witness_count(k: int, g: int, budget: int) -> int:
    """Exact number of nonzero delta in Z^k with ||delta||^2 <= g, by the norm DP."""
    if k < 1 or g < 1:
        raise ValueError(f"need k >= 1 and g >= 1, got k={k}, g={g}")
    return count_capped_ball(k, g, k + 1, budget) - 1


def enumerate_witnesses(
    k: int, g: int, budget: int = DEFAULT_BUDGET
) -> list[WitnessVector]:
    """All nonzero integer vectors delta in Z^k with ||delta||^2 <= g.

    Lexicographic order (negative entries first); each vector appears once.
    The list is not halved by symmetry because the certificate test
    0 <= <b, delta> <= g is not symmetric under delta -> -delta.  The exact
    count is checked against budget before anything is enumerated.
    """
    count = _witness_count(k, g, budget)
    if count > budget:
        raise BudgetExceeded(f"{count} witnesses for k={k}, g={g} exceed {budget}")
    out: list[WitnessVector] = []
    prefix = [0] * k

    def rec(pos: int, rem: int) -> None:
        if pos == k:
            norm = g - rem
            if norm > 0:
                out.append(WitnessVector(tuple(prefix), norm))
            return
        top = math.isqrt(rem)
        for c in range(-top, top + 1):
            prefix[pos] = c
            rec(pos + 1, rem - c * c)
        prefix[pos] = 0

    rec(0, g)
    return out


def _uncertified(
    points: np.ndarray, witnesses: Sequence[WitnessVector], g: int
) -> np.ndarray:
    """Mask of the rows b of an (N, k) array with no witness delta giving
    0 <= <b, delta> <= g."""
    keep = np.ones(len(points), dtype=bool)
    deltas = np.array([w.delta for w in witnesses], dtype=np.int64)
    deltas = deltas.reshape(len(witnesses), points.shape[1])
    chunk = max(1, (1 << 22) // max(1, len(witnesses)))
    for start in range(0, len(points), chunk):
        dots = points[start : start + chunk] @ deltas.T
        keep[start : start + chunk] = ~((dots >= 0) & (dots <= g)).any(axis=1)
    return keep


def filter_survivors(
    points: Sequence[LatticeVector],
    witnesses: Sequence[WitnessVector],
    g: int,
) -> tuple[list[LatticeVector], int]:
    """Keep points b whose every witness dot product avoids [0, g].

    Survivors are returned in input order.  A removed point had some delta
    with 0 <= <b, delta> <= g, the certificate that b may be expressible as
    a convex combination of other ball points.
    """
    if not points:
        return [], 0
    keep = _uncertified(np.array([p.coords for p in points], dtype=np.int64),
                        witnesses, g)
    survivors = [p for p, ok in zip(points, keep.tolist()) if ok]
    return survivors, len(points) - len(survivors)


@dataclass(frozen=True)
class ElkinArtifact:
    """One annulus run: selected window, census, filter outcome, encoded set.

    removed counts every annulus point the filter dropped; unit_removed
    counts those with a coordinate in [0, g], which a unit witness removes.
    """

    params: ConstructionParams
    shell: ShellSelection
    annulus_points: int
    survivors: tuple[LatticeVector, ...]
    removed: int
    unit_removed: int
    set: APFreeSet

    @property
    def is_empty(self) -> bool:
        return not self.survivors

    @property
    def survivor_fraction(self) -> float:
        return len(self.survivors) / self.annulus_points if self.annulus_points else 0.0


def construct_elkin(
    params: ConstructionParams,
    budget: int = DEFAULT_BUDGET,
    threads: int = 1,
) -> ElkinArtifact:
    """Run the annulus pipeline; an emptied filter is reported, not raised.

    Only the annulus points of the sub-cube [g+1, y-1]^k are enumerated and
    filtered (see the module docstring).  The enumeration budget y^k is
    checked before the census runs, and the certificate dot products before
    the filter runs.  threads has no effect.
    """
    k, y = params.k, params.y
    g = params.effective_g()
    check_enumeration_budget(k, y, budget)
    moments = exact_moments(k, y)
    hist = build_histogram(k, y, budget)
    shell = select_elkin_annulus(hist, moments, g)
    points = shell_points(k, y, shell, budget, low=g + 1)
    witnesses = enumerate_witnesses(k, g, budget)
    dots = len(points) * len(witnesses)
    if dots > budget:
        raise BudgetExceeded(
            f"{dots} certificate dot products exceed the budget {budget}"
        )
    kept = points[_uncertified(points, witnesses, g)]
    elements = tuple(sorted(encode_all(kept, y, k)))
    apset = APFreeSet(n=params.n, elements=elements, method="elkin", params_echo=params)
    return ElkinArtifact(
        params=params,
        shell=shell,
        annulus_points=shell.population,
        survivors=tuple(lattice_vectors(kept)),
        removed=shell.population - len(kept),
        unit_removed=shell.population - len(points),
        set=apset,
    )


def dhat_bound_check(
    k: int, g: int, epsilon: float | None = None, budget: int = DEFAULT_BUDGET
) -> DhatCheck:
    """Compare the witness count, from the norm-count DP, against 2 * 2^(eta * k).

    The exponent uses the caller's epsilon when g <= epsilon * k (the normal
    regime); otherwise, e.g. when the g >= 1 clamp is active, it is evaluated
    at the effective ratio g / k.
    """
    enumerated = _witness_count(k, g, budget)
    if epsilon is not None and g <= epsilon * k:
        eps_eff = epsilon
    else:
        eps_eff = g / k
    bound = 2.0 * 2.0 ** (eta(eps_eff) * k)
    return DhatCheck(enumerated=enumerated, bound=bound, ok=enumerated <= bound)
