"""Independent ground-truth checks: progression-freeness, convex position, exact optima.

Each check prices the work it would do before it builds any array, against
a budget that defaults to DEFAULT_BUDGET, the one budget of every stage.
Every construction output must pass progression_free, the cheaper of two
exact checks.  short_difference_free decodes a set of cube codes and looks up
only the steps the span of its squared norms allows: none on a Behrend shell
(0.01 s for the 160,217 elements at 2^32); above budget it tests nothing.
midpoint_free checks any integer set: priced by its same-parity pairs and
refused above budget, it scans them in numpy one element's row at a time,
with binary-search membership against the sorted set.
convexly_independent checks what the annulus construction rests on, that no
point lies between two others: no three are collinear.  Priced by its
n(n - 1)/2 differences of k cells and refused above budget (10,000 planar
points at the default, 3,088 of the 2^26 Behrend set in k = 8 in about 3 s),
it reduces each point's differences to the later ones to primitive
directions in one numpy step and looks for two equal ones.

The two exact optimum searches (recursive include-first DFS and an
explicit-stack branch-and-bound) are deliberately separate implementations
that must agree; their agreement is the anti-bug redundancy for all small-n
ground truth.  Each tests a candidate against the chosen elements in one step:
alongside the chosen set it carries the set reversed (bit 2m - a for each
chosen a) and the mask of elements that would complete a progression with two
chosen ones; choosing b ORs the reversed set, shifted so that bit 2m - a lands
on element 2b - a, into that mask.

Both searches refuse n above the same bound, NU_BUDGET, and exploit
translation invariance: the best progression-free subset of any window of
length L has the same size as for {1..L}, so the table of optima for shorter
prefixes prunes the search for longer ones.  Each also steps straight to the
next element its forbidden mask leaves open and bounds a branch by how many
are open.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from math import isqrt
from typing import Iterable, Sequence

import numpy as np

from .codec import APFreeSet
from .errors import DEFAULT_BUDGET, BudgetExceeded
from .numeric import int_dtype

#: Search bound of both exact_nu and exact_nu_bb, the n they both finish.
#: From empty tables, the DFS takes about 0.04 s to n = 48, 0.3 s to 56 and
#: 2-3 s to 64; the branch and bound 2.2-2.4 s to 64, 8-9 s to 68 and 33 s
#: to 72, about x14 per 8 (2-core Xeon VM, Python 3.11).
NU_BUDGET = 64


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of a progression-freeness check.

    witness is (i, j, l) with i = (j + l) / 2 when a violation exists.  check
    names the method; pairs_checked counts its (element, element) or
    (element, step) pairs.
    """

    ok: bool
    witness: tuple[int, int, int] | None
    pairs_checked: int
    check: str = "midpoint"


def _elements_of(s) -> np.ndarray:
    """The distinct elements of s in ascending order, as an int64 or, past
    2^62, object array: an APFreeSet's own array, any other iterable checked."""
    if isinstance(s, APFreeSet):
        return np.asarray(s.elements)
    elements = list(s)
    for e in elements:
        # int() would truncate a float; a bool is no set element either
        if isinstance(e, bool) or not isinstance(e, numbers.Integral):
            raise ValueError(f"set elements must be integers, got {e!r:.40}")
    elements = sorted(set(map(int, elements)))
    return np.array(elements, dtype=int_dtype(max(map(abs, elements), default=0)))


def midpoint_free(
    s: Iterable[int] | APFreeSet, budget: int = DEFAULT_BUDGET
) -> VerificationReport:
    """Check that no element is the average of two others.

    Only same-parity pairs can have an integer midpoint; their count
    C(#even, 2) + C(#odd, 2) is the price, refused above budget before any
    array is built.  The report is that of a row-by-row scan of the
    same-parity pairs (a, b), a < b, in lexicographic order: each element a,
    in ascending order, is one row, whose midpoints (a + b) // 2 are looked
    up in the whole sorted set by one np.searchsorted, in int64 or, past
    2^62, Python ints.  The witness is the first hit of the first row with
    one, and pairs_checked counts the pairs tested up to and including it
    (all of them when there is none).
    """
    elements = _elements_of(s)
    is_odd = elements % 2 == 1
    n_odd = int(np.count_nonzero(is_odd))
    total = sum(k * (k - 1) // 2 for k in (len(elements) - n_odd, n_odd))
    if total > budget:
        raise BudgetExceeded(
            f"{total} same-parity pairs exceed the verify budget {budget}"
        )
    arr = elements.astype(int_dtype(2 * int(abs(elements).max(initial=0))), copy=False)
    classes, rows = (arr[~is_odd], arr[is_odd]), [0, 0]
    pairs = 0
    for a, odd in zip(arr, is_odd.tolist()):
        rows[odd] += 1
        later = classes[odd][rows[odd]:]
        mids = (a + later) // 2
        # a < mid < b <= max(arr), so the insertion point is a valid index
        found = arr[np.searchsorted(arr, mids)] == mids
        if found.any():
            i = int(np.argmax(found))
            a, b = int(a), int(later[i])
            return VerificationReport(ok=False, witness=((a + b) // 2, a, b),
                                      pairs_checked=pairs + i + 1)
        pairs += len(later)
    return VerificationReport(ok=True, witness=None, pairs_checked=total)


def _short_differences(
    k: int, radix: int, w: int, m: int, cap: int, dtype
) -> np.ndarray | None:
    """Sorted codes of the d in [-m, m]^k with 0 < |d|^2 <= w and code(d) > 0,
    or None if more than cap.  Each level's partial vectors, sorted by norm,
    are at most the 2 cap + 1 full ones (pad with zeros), checked before built.
    """
    norm, code = np.zeros(1, dtype), np.zeros(1, dtype)
    xs = np.arange(-m, m + 1, dtype=dtype)
    for i in range(k):
        keeps = np.searchsorted(norm, w - xs * xs, side="right").tolist()
        if sum(keeps) > 2 * cap + 1:
            return None
        parts = [(norm[:c] + x * x, code[:c] + x * radix**i)
                 for x, c in zip(xs.tolist(), keeps)]
        norm, code = (np.concatenate(p) for p in zip(*parts))
        order = np.argsort(norm, kind="stable")
        norm, code = norm[order], code[order]
    # the sign of a code is the sign of its top nonzero digit: one of each +- pair
    return np.sort(code[code > 0])


def short_difference_free(
    s: Iterable[int] | APFreeSet, k: int, y: int, budget: int = DEFAULT_BUDGET
) -> VerificationReport | None:
    """Exact check of a set of radix-2y codes of points of [0, y-1]^k, or None,
    having tested nothing, if an element is no such code or the check would
    test more than budget (element, step) pairs.

    Codes add without carries, so codes a < b < c in progression are points
    with step d = b - a, and 2|d|^2 = |a|^2 + |c|^2 - 2|b|^2 is at most twice
    the span w of the squared norms.  So a + code(d) and a + 2 code(d) are
    looked up for every element a and every d with 0 < |d|^2 <= w and
    code(d) > 0: a hit is a progression, none proves there is none.  The
    witness has the smallest code(d) that hits, then the smallest a.
    """
    if k < 1 or y < 2:
        raise ValueError(f"need k >= 1 and y >= 2, got k={k}, y={y}")
    # its own digit split, not numeric.radix: the check shares no code with the encoder
    elements, radix = _elements_of(s), 2 * y
    n = len(elements)
    if not n:
        return VerificationReport(True, None, 0, "short-difference")
    # below radix^k, k digits leave nothing over
    if elements[0] < 0 or int(elements[-1]) >= radix**k:
        return None
    dtype = int_dtype(max(2 * radix**k, k * y * y))
    codes = elements.astype(dtype, copy=False)
    rem, norms = codes.copy(), np.zeros(n, dtype)
    for _ in range(k):
        digit = rem % radix
        if (digit >= y).any():
            return None
        norms += digit * digit
        rem //= radix
    # a and a + 2d in the cube keep each |d_i| <= (y - 1) / 2
    w = int(norms.max() - norms.min())
    m, cap = min((y - 1) // 2, isqrt(w)), budget // n
    # the d = x e_i alone number k m
    diffs = None if k * m > cap else _short_differences(k, radix, w, m, cap, dtype)
    if diffs is None:
        return None
    rows = max(1, (1 << 18) // n)
    for start in range(0, len(diffs), rows):
        step = diffs[start : start + rows, None]
        nxt = codes + step
        idx = np.minimum(np.searchsorted(codes, nxt), n - 1)
        found = codes[idx] == nxt
        # a + d in the set, at idx, and a + 2d too
        hit = found & np.take_along_axis(found, idx, axis=1)
        if hit.any():
            r, i = divmod(int(np.argmax(hit)), n)
            a, d = int(codes[i]), int(step[r, 0])
            return VerificationReport(False, (a + d, a, a + 2 * d),
                                      n * (start + r + 1), "short-difference")
    return VerificationReport(True, None, n * len(diffs), "short-difference")


def progression_free(
    s: APFreeSet, budget: int = DEFAULT_BUDGET
) -> VerificationReport:
    """The short-difference check when s records its cube (k, y), every
    element decodes, and it tests no more pairs than budget and than the
    n(n - 2)/4 same-parity pairs any n elements give midpoint_free; else
    midpoint_free, which refuses above budget."""
    p, n = s.params_echo, s.size
    if p is not None:
        report = short_difference_free(s, p.k, p.y, min(budget, n * (n - 2) // 4))
        if report is not None:
            return report
    return midpoint_free(s, budget)


def convexly_independent(
    vectors: Sequence[Sequence[int]], budget: int = DEFAULT_BUDGET
) -> bool:
    """True iff no vector lies on the segment spanned by two others.

    vectors is any sequence of coordinate sequences, or an (N, k) array.
    Distinct points have one between two others iff three are collinear, iff
    some u sees two others in the same primitive direction: the difference
    over the gcd of its coordinates, its first nonzero entry made positive.
    Each u reduces its differences to the later points at once, in exact
    integers with no products, and two equal directions end the check.  The
    price, n(n - 1)/2 differences of k cells, is refused above budget before
    any array is built.  Duplicate points count as dependent.
    """
    n = len(vectors)
    work = n * (n - 1) // 2 * (len(vectors[0]) if n else 0)
    if work > budget:
        raise BudgetExceeded(f"{work} difference cells exceed the budget {budget}")
    # Python ints, so the dtype bound below cannot wrap on numpy input.
    pts = [tuple(map(int, v)) for v in vectors]
    if len(set(pts)) < n:
        return False
    max_abs = max((abs(c) for p in pts for c in p), default=0)
    # differences stay within 2 max_abs; past 2^62 gcd and sign run on Python ints
    arr = np.array(pts, dtype=int_dtype(2 * max_abs))
    for i in range(n - 2):
        q = arr[i + 1 :] - arr[i]
        lead = np.take_along_axis(q, (q != 0).argmax(axis=1)[:, None], axis=1)
        # initial=0: the gcd of one column can keep its sign
        q //= np.gcd.reduce(q, axis=1, initial=0, keepdims=True) * np.sign(lead)
        q = q[np.lexsort(q.T)]
        if (q[1:] == q[:-1]).all(axis=1).any():
            return False
    return True


# ---------------------------------------------------------------------------
# Oracle 1: recursive include-first DFS, lexicographically smallest optimum.

_dfs_values: list[int] = [0]
_dfs_masks: list[int] = [0]


def _dfs_search(m: int, values: list[int]) -> tuple[int, int]:
    """Best size and first (lexicographically smallest) optimal mask for {1..m}.

    Elements are visited in ascending order, skipping those forb rules out.
    rev has bit w - a set for each chosen a, and forb bit j - 1 set for each
    j = 2b - a with a < b chosen.  A branch at i gains at most the optimum for
    the m - i + 1 elements left and at most the open positions among them.
    """
    best = values[m - 1] - 1
    best_mask = 0
    w = 2 * m
    full = (1 << m) - 1

    def rec(i: int, mask: int, rev: int, forb: int, size: int) -> None:
        nonlocal best, best_mask
        # only the positions from i on that forb leaves open can still be chosen
        open_ = (full & ~forb) >> (i - 1)
        if not open_:
            if size > best:
                best, best_mask = size, mask
            return
        i += (open_ & -open_).bit_length() - 1  # skip to the first of them
        rem = m - i + 1
        ub = values[rem] if rem < m else values[m - 1] + 1
        if size + min(ub, open_.bit_count()) <= best:
            return
        rec(i + 1, mask | (1 << (i - 1)), rev | (1 << (w - i)),
            forb | (rev >> (w + 1 - 2 * i)), size + 1)
        rec(i + 1, mask, rev, forb, size)

    rec(1, 0, 0, 0, 0)
    return best, best_mask


def exact_nu(n: int) -> tuple[int, APFreeSet]:
    """Largest progression-free subset size of {1..n}, with an attaining set.

    The witness is the lexicographically smallest optimum: include-first DFS
    visits subsets in lexicographic order and only strict improvements are
    recorded, so the first set of the final size wins.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if n > NU_BUDGET:
        raise BudgetExceeded(f"n = {n} exceeds the search budget {NU_BUDGET}")
    while len(_dfs_values) <= n:
        value, mask = _dfs_search(len(_dfs_values), _dfs_values)
        _dfs_values.append(value)
        _dfs_masks.append(mask)
    mask = _dfs_masks[n]
    elements = tuple(i + 1 for i in range(n) if (mask >> i) & 1)
    return _dfs_values[n], APFreeSet(n=n, elements=elements, method="exact")


# ---------------------------------------------------------------------------
# Oracle 2: explicit-stack branch and bound, descending order.

_bb_values: list[int] = [0]


def _bb_search(m: int, values: list[int]) -> int:
    """Best size for {1..m}, elements visited in descending order.

    rev has bit w - c set for each chosen c, and forb bit j - 1 set for each
    j = 2b - c with b < c chosen.  Each step goes to the largest element of
    1..e that forb leaves open; a branch there gains at most the optimum for
    e elements and at most the open elements of 1..e.  The search starts from
    the optimum for m - 1 elements, which {1..m} always attains.
    """
    best = values[m - 1]
    w = 2 * m
    stack = [(m, 0, 0, 0)]
    while stack:
        e, rev, forb, size = stack.pop()
        allowed = ~forb & ((1 << e) - 1)  # the elements of 1..e still open
        if not allowed:
            if size > best:
                best = size
            continue
        e = allowed.bit_length()  # the largest of them is the next choice
        ub = values[e] if e < m else values[m - 1] + 1
        if size + min(ub, allowed.bit_count()) <= best:
            continue
        stack.append((e - 1, rev, forb, size))
        stack.append((e - 1, rev | (1 << (w - e)),
                      forb | (rev >> (w + 1 - 2 * e)), size + 1))
    return best


def exact_nu_bb(n: int) -> int:
    """Independent recomputation of the exact optimum; must agree with exact_nu."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if n > NU_BUDGET:
        raise BudgetExceeded(f"n = {n} exceeds the search budget {NU_BUDGET}")
    while len(_bb_values) <= n:
        m = len(_bb_values)
        _bb_values.append(_bb_search(m, _bb_values))
    return _bb_values[n]
