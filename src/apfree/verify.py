"""Independent ground-truth checks: midpoint-freeness, convex position, exact optima.

midpoint_free is the arbiter every construction output must pass.  The two
exact optimum searches (recursive include-first DFS and an explicit-stack
branch-and-bound) are deliberately separate implementations that must agree;
their agreement is the anti-bug redundancy for all small-n ground truth.

Both searches exploit translation invariance: the best progression-free
subset of any window of length L has the same size as for {1..L}, so the
table of optima for shorter prefixes prunes the search for longer ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .codec import APFreeSet
from .errors import BudgetExceeded
from .numeric import int_dtype

#: exact_nu default search bound; every subset state fits one machine word.
NU_BUDGET = 64

#: exact_nu_bb default search bound (value-only search reaches farther).
NU_BB_BUDGET = 120

CONVEX_BUDGET = 2000


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of a midpoint-freeness check.

    witness is (i, j, l) with i = (j + l) / 2 when a violation exists.
    """

    ok: bool
    witness: tuple[int, int, int] | None
    pairs_checked: int


def _elements_of(s) -> tuple[int, ...]:
    if isinstance(s, APFreeSet):
        return s.elements
    return tuple(sorted(set(int(e) for e in s)))


def midpoint_free(s: Iterable[int] | APFreeSet) -> VerificationReport:
    """Check that no element is the average of two others.

    Quadratic in the set size with constant-time membership; only same-parity
    pairs can have an integer midpoint, so others are skipped unexamined.
    """
    elements = _elements_of(s)
    members = set(elements)
    pairs = 0
    for idx, a in enumerate(elements):
        for b in elements[idx + 1 :]:
            if (a + b) % 2:
                continue
            pairs += 1
            mid = (a + b) // 2
            if mid in members and mid != a and mid != b:
                return VerificationReport(ok=False, witness=(mid, a, b), pairs_checked=pairs)
    return VerificationReport(ok=True, witness=None, pairs_checked=pairs)


def convexly_independent(
    vectors: Sequence[Sequence[int]], budget: int = CONVEX_BUDGET
) -> bool:
    """True iff no vector lies on the segment spanned by two others.

    vectors is any sequence of coordinate sequences, or an (N, k) array.
    Exact integer arithmetic: v = u + p*(w - u) with p in (0, 1) is decided
    by cross-multiplying the rational p, never through floats.  Duplicate
    points count as dependent.
    """
    # Python ints, so the dtype bound below cannot wrap on numpy input.
    pts = [tuple(map(int, v)) for v in vectors]
    n = len(pts)
    if n > budget:
        raise BudgetExceeded(f"{n} vectors exceed the brute-force budget {budget}")
    if n < 3:
        return len(set(pts)) == n
    if len(set(pts)) < n:
        return False
    # The products below stay under (2 * max|coord|)^3 * k in absolute value.
    max_abs = max(abs(c) for p in pts for c in p)
    p_arr = np.array(pts, dtype=int_dtype((2 * max_abs) ** 3 * len(pts[0])))
    for i in range(n):
        for j in range(i + 1, n):
            d = p_arr[j] - p_arr[i]
            dd = int(d @ d)
            q = p_arr - p_arr[i]
            s = q @ d
            candidates = np.flatnonzero((s > 0) & (s < dd))
            for v_idx in candidates:
                if np.array_equal(q[v_idx] * dd, s[v_idx] * d):
                    return False
    return True


def _convexly_independent_exact(pts: list[tuple[int, ...]]) -> bool:
    """Pure-Python reference for convexly_independent on distinct points."""
    n = len(pts)
    for i in range(n):
        for j in range(i + 1, n):
            d = tuple(b - a for a, b in zip(pts[i], pts[j]))
            dd = sum(c * c for c in d)
            for v_idx in range(n):
                if v_idx in (i, j):
                    continue
                q = tuple(b - a for a, b in zip(pts[i], pts[v_idx]))
                s = sum(qc * dc for qc, dc in zip(q, d))
                if 0 < s < dd and all(qc * dd == s * dc for qc, dc in zip(q, d)):
                    return False
    return True


# ---------------------------------------------------------------------------
# Oracle 1: recursive include-first DFS, lexicographically smallest optimum.

_dfs_values: list[int] = [0]
_dfs_masks: list[int] = [0]


def _dfs_search(m: int, values: list[int]) -> tuple[int, int]:
    """Best size and first (lexicographically smallest) optimal mask for {1..m}."""
    best = values[m - 1] - 1
    best_mask = 0

    def rec(i: int, mask: int, size: int) -> None:
        nonlocal best, best_mask
        if i > m:
            if size > best:
                best, best_mask = size, mask
            return
        rem = m - i + 1
        ub = values[rem] if rem < m else values[m - 1] + 1
        if size + ub <= best:
            return
        ok = True
        d = 1
        while 2 * d < i:
            if (mask >> (i - d - 1)) & 1 and (mask >> (i - 2 * d - 1)) & 1:
                ok = False
                break
            d += 1
        if ok:
            rec(i + 1, mask | (1 << (i - 1)), size + 1)
        rec(i + 1, mask, size)

    rec(1, 0, 0)
    return best, best_mask


def _dfs_extend(n: int) -> None:
    while len(_dfs_values) <= n:
        m = len(_dfs_values)
        value, mask = _dfs_search(m, _dfs_values)
        _dfs_values.append(value)
        _dfs_masks.append(mask)


def exact_nu(n: int, budget: int = NU_BUDGET) -> tuple[int, APFreeSet]:
    """Largest progression-free subset size of {1..n}, with an attaining set.

    The witness is the lexicographically smallest optimum: include-first DFS
    visits subsets in lexicographic order and only strict improvements are
    recorded, so the first set of the final size wins.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if n > budget:
        raise BudgetExceeded(f"n = {n} exceeds the search budget {budget}")
    _dfs_extend(n)
    mask = _dfs_masks[n]
    elements = tuple(i + 1 for i in range(n) if (mask >> i) & 1)
    return _dfs_values[n], APFreeSet(n=n, elements=elements, method="exact")


# ---------------------------------------------------------------------------
# Oracle 2: explicit-stack branch and bound, descending order, greedy seed.

_bb_values: list[int] = [0]


def _bb_greedy(m: int) -> int:
    chosen = 0
    size = 0
    for e in range(m, 0, -1):
        ok = True
        d = 1
        while e + 2 * d <= m:
            if (chosen >> (e + d - 1)) & 1 and (chosen >> (e + 2 * d - 1)) & 1:
                ok = False
                break
            d += 1
        if ok:
            chosen |= 1 << (e - 1)
            size += 1
    return size


def _bb_search(m: int, values: list[int]) -> int:
    best = max(_bb_greedy(m), values[m - 1])
    stack = [(m, 0, 0)]
    while stack:
        e, mask, size = stack.pop()
        if e == 0:
            if size > best:
                best = size
            continue
        ub = values[e] if e < m else values[m - 1] + 1
        if size + ub <= best:
            continue
        stack.append((e - 1, mask, size))
        ok = True
        d = 1
        while e + 2 * d <= m:
            if (mask >> (e + d - 1)) & 1 and (mask >> (e + 2 * d - 1)) & 1:
                ok = False
                break
            d += 1
        if ok:
            stack.append((e - 1, mask | (1 << (e - 1)), size + 1))
    return best


def exact_nu_bb(n: int, budget: int = NU_BB_BUDGET) -> int:
    """Independent recomputation of the exact optimum; must agree with exact_nu."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if n > budget:
        raise BudgetExceeded(f"n = {n} exceeds the search budget {budget}")
    while len(_bb_values) <= n:
        m = len(_bb_values)
        _bb_values.append(_bb_search(m, _bb_values))
    return _bb_values[n]
