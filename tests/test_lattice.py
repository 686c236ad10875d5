import functools
import io
import itertools
import math
import random
import time
import tracemalloc
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from apfree import lattice
from apfree.errors import BudgetExceeded, EmptyWindow
from apfree.lattice import (
    ShellSelection,
    _unravel,
    _window_ends,
    annulus_count,
    build_histogram,
    capped_ball_volume,
    check_enumeration_budget,
    count_capped_ball,
    discrepancy_scan,
    select_behrend_shell,
    select_elkin_annulus,
    shell_members,
    shell_points,
    write_histogram_csv,
)
from apfree.numeric import MomentSummary, exact_moments


@functools.cache
def brute_histogram(k: int, y: int) -> dict[int, int]:
    """{norm: count} over every cube point; cached, so callers must not mutate it."""
    return dict(
        Counter(
            sum(c * c for c in v) for v in itertools.product(range(y), repeat=k)
        )
    )


def nonzero(counts: np.ndarray) -> dict[int, int]:
    """The nonzero bins of a census array as {norm: count}."""
    return {t: int(c) for t, c in enumerate(counts) if c}


def census(bins: dict[int, int], length: int = 9) -> np.ndarray:
    """A synthetic census array (default length 9, the k=2, y=3 census)."""
    counts = np.zeros(length, dtype=np.int64)
    for t, c in bins.items():
        counts[t] = c
    return counts


def selection_outcome(select, *args):
    """A selection as a comparable tuple, or the exception it raised."""
    try:
        s = select(*args)
    except (EmptyWindow, ValueError) as exc:
        return type(exc), str(exc)
    return (s.t_low, s.t_high, s.population, type(s.population), s.pigeonhole_bound,
            s.meets_bound, s.sigma_window)


def reference_behrend_shell(bins: dict[int, int], moments, a):
    """The most populated norm t >= 1 of the window, by a loop over nonzero bins."""
    a_frac = Fraction(a)
    lo, hi = _window_ends(moments.mu_Z, a_frac * a_frac * moments.var_Z)
    best_t, best_count = None, 0
    for t in sorted(bins):
        if max(lo, 1) <= t <= hi and bins[t] > best_count:
            best_t, best_count = t, bins[t]
    if best_t is None:
        raise EmptyWindow(f"no populated squared norm in [{lo}, {hi}]")
    sigma = moments.sigma_Z
    bound = float((1 - 1 / (a_frac * a_frac)) * sum(bins.values())) / (2 * a * sigma + 1)
    return ShellSelection(
        t_low=best_t, t_high=best_t, population=best_count,
        sigma_window=(float(moments.mu_Z) - a * sigma, float(moments.mu_Z) + a * sigma),
        pigeonhole_bound=bound, meets_bound=best_count >= bound - 1e-9,
    )


def reference_elkin_annulus(bins: dict[int, int], moments, g):
    """The most populated tile of the a=2 window, one scan of the bins per tile."""
    lo0, hi = _window_ends(moments.mu_Z, 4 * moments.var_Z)
    ell = annulus_count(moments, g)
    best, best_count = None, 0
    for i in range(1, ell + 1):
        w_lo = lo0 + (i - 1) * g
        w_hi = hi if i == ell else min(hi, w_lo + g - 1)
        if w_lo > hi:
            break
        count = sum(c for t, c in bins.items() if w_lo <= t <= w_hi)
        if count > best_count:
            best, best_count = (w_lo, w_hi), count
    if best is None:
        raise EmptyWindow(f"no populated squared norm in [{lo0}, {hi}]")
    bound = -((-3 * sum(bins.values())) // (4 * ell))
    sigma = moments.sigma_Z
    return ShellSelection(
        t_low=best[0], t_high=best[1], population=best_count,
        sigma_window=(float(moments.mu_Z) - 2 * sigma, float(moments.mu_Z) + 2 * sigma),
        pigeonhole_bound=float(bound), meets_bound=best_count >= bound,
    )


def brute_capped_count(k: int, t: int, m: int) -> int:
    root = math.isqrt(t)
    count = 0
    ranges = [
        range(0, root + 1) if i + 1 >= m else range(-root, root + 1)
        for i in range(k)
    ]
    for v in itertools.product(*ranges):
        if sum(c * c for c in v) <= t:
            count += 1
    return count


class TestBuildHistogram:
    def test_k2_y3(self):
        assert nonzero(build_histogram(2, 3)) == {0: 1, 1: 2, 2: 1, 4: 2, 5: 2, 8: 1}

    def test_k1_y2(self):
        assert nonzero(build_histogram(1, 2)) == {0: 1, 1: 1}

    def test_k3_y2_binomials(self):
        assert nonzero(build_histogram(3, 2)) == {0: 1, 1: 3, 2: 3, 3: 1}

    @given(st.integers(min_value=1, max_value=5), st.integers(min_value=2, max_value=6))
    @settings(max_examples=30, deadline=None)
    def test_matches_enumeration(self, k, y):
        assert nonzero(build_histogram(k, y)) == brute_histogram(k, y)

    def test_total_is_cube_size(self):
        for k, y in [(2, 3), (4, 5), (6, 3), (3, 9)]:
            assert build_histogram(k, y).sum() == y**k

    def test_census_is_priced_by_its_dp_not_the_cube(self):
        # y^k = 10^10 exceeds the budget, but the DP touches only ~8e4 cells.
        assert build_histogram(10, 10, budget=10**6).sum() == 10**10
        # The 2^64 parameters: y^k = 4.1e15, about 1e6 DP cells.
        start = time.perf_counter()
        assert build_histogram(12, 20).sum() == 20**12
        assert time.perf_counter() - start < 1.0

    def test_budget_covers_census_work(self):
        # y^k = 10^8 is admitted, but the census DP would touch ~4e12 cells;
        # k=1 reads one cell, but each round copies the ~1e10-cell array.
        for k, y in [(2, 10**4), (1, 10**5)]:
            start = time.perf_counter()
            with pytest.raises(BudgetExceeded):
                build_histogram(k, y)
            assert time.perf_counter() - start < 1.0

    @given(st.integers(min_value=1, max_value=60), st.integers(min_value=0, max_value=3),
           st.integers(min_value=0, max_value=4), st.data())
    @settings(max_examples=60, deadline=None)
    def test_closed_form_price_is_the_sum_over_rounds(self, length, top, rounds, data):
        top = min(top, math.isqrt(length - 1))
        two_sided = data.draw(st.integers(min_value=0, max_value=rounds))
        reach = [min(j * top * top + 1, length) for j in range(rounds)]
        work = sum(reach) * top + rounds * (length + lattice._ROUND_CELLS)
        h = lattice._norm_counts(length, top, rounds, two_sided, work)
        assert h.sum() == sum(
            1 for v in itertools.product(range(-top, top + 1), repeat=rounds)
            if all(c >= 0 for c in v[: rounds - two_sided])
            and sum(c * c for c in v) < length
        )
        with pytest.raises(BudgetExceeded, match=f"~{work} exceeds"):
            lattice._norm_counts(length, top, rounds, two_sided, work - 1)

    def test_counts_beyond_int64(self):
        hist = build_histogram(30, 5, budget=10**22)
        assert hist.sum() == 5**30 > 2**63
        assert all(type(c) is int for c in hist)

    def test_large_side_matches_enumeration(self):
        assert nonzero(build_histogram(2, 200)) == brute_histogram(2, 200)

    def test_csv_dump(self):
        buf = io.StringIO()
        write_histogram_csv(build_histogram(2, 3), buf)
        assert buf.getvalue() == (
            "norm_sq,count\n0,1\n1,2\n2,1\n4,2\n5,2\n8,1\n"
        )


class TestSelectBehrendShell:
    def test_k2_y3_ties_break_low(self):
        hist = build_histogram(2, 3)
        moments = exact_moments(2, 3)
        shell = select_behrend_shell(hist, moments, 2.0)
        # window ~ [-1.47, 8.14]; population 2 at norms 1, 4, 5
        assert (shell.t_low, shell.t_high, shell.population) == (1, 1, 2)
        assert shell.sigma_window[0] == pytest.approx(10 / 3 - 2 * math.sqrt(52) / 3)
        assert shell.meets_bound

    def test_single_populated_bin(self):
        hist = census({4: 7})
        shell = select_behrend_shell(hist, exact_moments(2, 3), 2.0)
        assert (shell.t_low, shell.population) == (4, 7)

    def test_k3_y2(self):
        shell = select_behrend_shell(build_histogram(3, 2), exact_moments(3, 2), 2.0)
        # norms 1 and 2 both have population 3; ties break to 1
        assert (shell.t_low, shell.population) == (1, 3)

    def test_empty_window(self):
        hist = census({100: 5}, length=101)
        with pytest.raises(EmptyWindow):
            select_behrend_shell(hist, exact_moments(2, 3), 2.0)

    def test_never_picks_the_origin(self):
        moments = exact_moments(2, 3)
        hist = census({0: 9, 4: 1})
        assert select_behrend_shell(hist, moments, 2.0).t_low == 4
        with pytest.raises(EmptyWindow):
            select_behrend_shell(census({0: 9}), moments, 2.0)
        for k in range(1, 7):
            for y in range(2, 9):
                hist = build_histogram(k, y)
                for a in (0.5, 1.0, 1.5, 2.0, 3.0):
                    try:
                        shell = select_behrend_shell(hist, exact_moments(k, y), a)
                    except EmptyWindow:
                        continue
                    assert shell.t_low >= 1

    def test_huge_a_is_clipped_to_the_census(self):
        # The window reaches ~10^16; only the census's 393 norms are tiled.
        counts, moments = build_histogram(8, 8), exact_moments(8, 8)
        start = time.perf_counter()
        shell = select_behrend_shell(counts, moments, 1e15)
        assert time.perf_counter() - start < 0.1
        assert shell.t_low == shell.t_high == 1 + int(np.argmax(counts[1:]))
        assert shell.population == counts[1:].max()

    @pytest.mark.parametrize("a", [0.0, -1.0, math.inf, math.nan])
    def test_rejects_non_positive_or_non_finite_a(self, a):
        with pytest.raises(ValueError, match="a must be finite and > 0"):
            select_behrend_shell(build_histogram(2, 3), exact_moments(2, 3), a)

    @pytest.mark.parametrize("a", [1e-300, 1e-160])
    def test_a_whose_floor_passes_the_float_range_is_refused(self, a):
        # 1 - 1/a^2 is about -1e600 and -1e320: no float holds the floor
        with pytest.raises(ValueError, match="pigeonhole floor at a = .* overflows"):
            select_behrend_shell(build_histogram(3, 5), exact_moments(3, 5), a)

    def test_floor_met_exactly_is_met_through_float_rounding(self):
        # mu = 2, sigma = 1/3: at a = 2 the window holds only the norm 2, and
        # the floor (3/4) * 28 / (7/3) is 9 exactly, but 9.000000000000002 in
        # floats; 9 points there meet it.
        moments = MomentSummary(Fraction(2), Fraction(1, 9))
        shell = select_behrend_shell(census({2: 9, 8: 19}), moments, 2.0)
        assert (shell.t_low, shell.population) == (2, 9)
        assert 9 < shell.pigeonhole_bound < 9 + 1e-9
        assert shell.meets_bound

    def test_pigeonhole_floor_holds_on_grid(self):
        for k in range(1, 5):
            for y in range(2, 8):
                for a in (1.5, 2.0, 3.0):
                    moments = exact_moments(k, y)
                    shell = select_behrend_shell(build_histogram(k, y), moments, a)
                    floor = (1 - 1 / a**2) * y**k / (2 * a * moments.sigma_Z + 1)
                    assert shell.population >= floor - 1e-9
                    assert shell.meets_bound


class TestClosedForms:
    """The isqrt window ends and annulus count against their defining inequalities."""

    YS = list(range(2, 61)) + [10**3, 10**6]

    @staticmethod
    def _check_ends(mu, bound_sq):
        # [lo, hi] must be exactly the integers t with (t - mu)^2 <= bound_sq
        lo, hi = _window_ends(mu, bound_sq)
        for t in (lo - 1, lo, hi, hi + 1):
            assert ((t - mu) ** 2 <= bound_sq) == (lo <= t <= hi), (mu, bound_sq, t)

    def test_window_ends_on_cube_moments(self):
        a_values = [Fraction(a) for a in (1, 1.5, 2, 3, math.sqrt(2), math.pi, math.e)]
        for k in range(1, 41):
            for y in self.YS:
                moments = exact_moments(k, y)
                for a in a_values:
                    self._check_ends(moments.mu_Z, a * a * moments.var_Z)

    def test_window_ends_on_random_rationals(self):
        rng = random.Random(62)
        for _ in range(3000):
            mu = Fraction(rng.randrange(-10**6, 10**6), rng.randrange(1, 10**4))
            root = Fraction(rng.randrange(0, 10**4), rng.randrange(1, 100))
            self._check_ends(mu, root * root)
            self._check_ends(mu, Fraction(rng.randrange(10**8), rng.randrange(1, 10**4)))
            # both ends on integers: centre (lo+hi)/2, squared half-width a perfect square
            lo = rng.randrange(-1000, 1000)
            hi = lo + rng.randrange(0, 50)
            assert _window_ends(Fraction(lo + hi, 2), Fraction(hi - lo, 2) ** 2) == (lo, hi)

    @staticmethod
    def _check_count(moments, g):
        # ell is the least positive integer with ell * g >= 4 * sigma
        var16 = 16 * moments.var_Z
        ell = annulus_count(moments, g)
        assert ell >= 1 and (ell * g) ** 2 >= var16, (moments, g, ell)
        assert ell == 1 or ((ell - 1) * g) ** 2 < var16, (moments, g, ell)

    def test_annulus_count_on_cube_moments(self):
        for k in range(1, 41):
            for y in self.YS:
                moments = exact_moments(k, y)
                for g in range(1, 30):
                    self._check_count(moments, g)
        for g in (0, -1):
            with pytest.raises(ValueError, match=f"g must be >= 1, got {g}"):
                annulus_count(exact_moments(2, 3), g)

    def test_annulus_count_on_random_rationals(self):
        rng = random.Random(63)
        for c in range(1, 300):  # 4 * sigma = c exactly
            for g in range(1, 30):
                moments = MomentSummary(Fraction(0), Fraction(c * c, 16))
                assert annulus_count(moments, g) == -(-c // g)
        for _ in range(3000):
            var = Fraction(rng.randrange(1, 10**9), rng.randrange(1, 10**4))
            self._check_count(MomentSummary(Fraction(0), var), rng.randrange(1, 30))


class TestSelectElkinAnnulus:
    def test_wide_g_returns_whole_window(self):
        hist = build_histogram(2, 3)
        moments = exact_moments(2, 3)
        g = math.ceil(4 * moments.sigma_Z) + 1
        shell = select_elkin_annulus(hist, moments, g)
        assert (shell.t_low, shell.t_high) == (-1, 8)
        assert shell.population == 9

    def test_window_without_an_integer_norm_is_empty(self):
        # mu = 1/2, sigma = 1/10: the a=2 window [0.3, 0.7] holds no integer,
        # so there is no tile.  No cube gets here: there 4*sigma >= 2.
        moments = MomentSummary(Fraction(1, 2), Fraction(1, 100))
        for g in (1, 2):
            with pytest.raises(EmptyWindow, match=r"no populated squared norm in \[1, 0\]"):
                select_elkin_annulus(census({0: 1, 1: 1}), moments, g)

    def test_floor_is_compared_in_integers_past_2_53(self):
        # mu = 2, sigma = 1/2: at g = 2 the one tile is [1, 3].  Of 2^56/3
        # points, the floor is ceil(3/4 * total) = 2^54 + 1, which rounds to
        # the float 2^54: only an integer comparison sees 2^54 points miss it.
        moments = MomentSummary(Fraction(2), Fraction(1, 4))
        total, short = 2**56 // 3 + 1, 2**54
        shell = select_elkin_annulus(census({2: short, 8: total - short}), moments, 2)
        assert (shell.t_low, shell.t_high, shell.population) == (1, 3, short)
        assert shell.pigeonhole_bound == float(2**54 + 1) == short
        assert not shell.meets_bound

    def test_k2_y3_g1(self):
        shell = select_elkin_annulus(build_histogram(2, 3), exact_moments(2, 3), 1)
        assert (shell.t_low, shell.t_high, shell.population) == (1, 1, 2)

    def test_k3_y2_g2_partition(self):
        # The window [0, 3] tiles as [0,1] | [2,3], populations 4 and 4;
        # ties break toward the lower window.
        moments = exact_moments(3, 2)
        shell = select_elkin_annulus(build_histogram(3, 2), moments, 2)
        assert (shell.t_low, shell.t_high, shell.population) == (0, 1, 4)
        assert shell.pigeonhole_bound == 3.0
        assert shell.meets_bound

    def test_window_width_never_exceeds_g(self):
        for k in range(1, 5):
            for y in range(2, 9):
                for g in (1, 2, 3, 5):
                    shell = select_elkin_annulus(
                        build_histogram(k, y), exact_moments(k, y), g
                    )
                    assert shell.t_high - shell.t_low <= g

    def test_pigeonhole_floor_holds_on_grid(self):
        from apfree.lattice import annulus_count

        for k in range(1, 5):
            for y in range(2, 9):
                for g in (1, 2, 4):
                    hist = build_histogram(k, y)
                    moments = exact_moments(k, y)
                    # a = 2 Chebyshev window always captures >= 3/4 of the cube
                    lo = moments.mu_Z - 2 * moments.sigma_Z
                    hi = moments.mu_Z + 2 * moments.sigma_Z
                    captured = sum(
                        c for t, c in enumerate(hist.tolist()) if lo <= t <= hi
                    )
                    assert captured >= 0.75 * y**k
                    shell = select_elkin_annulus(hist, moments, g)
                    ell = annulus_count(moments, g)
                    assert shell.population >= 0.75 * y**k / ell - 1
                    assert shell.meets_bound


class TestSelectionAgainstReference:
    """Both selections against loops over a brute census's nonzero bins."""

    def test_elkin_equals_tile_loop(self):
        below_zero = past_top = 0
        for k in range(1, 7):
            for y in range(2, 12):
                counts = build_histogram(k, y)
                bins = brute_histogram(k, y)
                moments = exact_moments(k, y)
                for g in range(1, 13):
                    got = selection_outcome(select_elkin_annulus, counts, moments, g)
                    want = selection_outcome(reference_elkin_annulus, bins, moments, g)
                    assert got == want, (k, y, g)
                    lo0, hi = _window_ends(moments.mu_Z, 4 * moments.var_Z)
                    below_zero += lo0 < 0
                    past_top += hi > len(counts) - 1
        # The grid reaches both edges of the census.
        assert below_zero and past_top

    def test_elkin_window_far_past_a_short_census(self):
        # Synthetic moments put whole tiles below norm 0 and above the top.
        counts = census({0: 1, 1: 2, 2: 5}, length=3)
        for mu, var in [(1, 100), (Fraction(7, 3), 50), (0, 9), (2, Fraction(1, 16))]:
            moments = MomentSummary(Fraction(mu), Fraction(var))
            for g in range(1, 13):
                got = selection_outcome(select_elkin_annulus, counts, moments, g)
                want = selection_outcome(
                    reference_elkin_annulus, nonzero(counts), moments, g
                )
                assert got == want, (mu, var, g)

    def test_behrend_extreme_windows(self):
        empty = 0
        for k in range(1, 7):
            for y in range(2, 12):
                counts = build_histogram(k, y)
                bins = brute_histogram(k, y)
                moments = exact_moments(k, y)
                for a in (1e-3, 10**6):
                    got = selection_outcome(select_behrend_shell, counts, moments, a)
                    want = selection_outcome(reference_behrend_shell, bins, moments, a)
                    assert got == want, (k, y, a)
                    empty += got[0] is EmptyWindow
                # a = 10^6 covers the whole census: the largest bin above norm 0.
                wide = select_behrend_shell(counts, moments, 10**6)
                assert wide.population == max(c for t, c in bins.items() if t)
        assert empty  # some tiny windows hold no integer norm

    def test_object_dtype_census(self):
        for k, y in [(30, 5), (20, 9)]:
            counts = build_histogram(k, y, budget=10**9)
            assert counts.dtype == object
            bins = nonzero(counts)
            moments = exact_moments(k, y)
            for a in (0.5, 1.0, 2.0, 3.0, 10**6):
                got = selection_outcome(select_behrend_shell, counts, moments, a)
                assert got == selection_outcome(reference_behrend_shell, bins, moments, a)
                assert got[3] is int
            for g in (1, 2, 5, 40):
                got = selection_outcome(select_elkin_annulus, counts, moments, g)
                assert got == selection_outcome(reference_elkin_annulus, bins, moments, g)
                assert got[3] is int

    def test_elkin_selection_is_linear_in_the_census(self):
        counts, moments = build_histogram(3, 60), exact_moments(3, 60)
        start = time.perf_counter()
        select_elkin_annulus(counts, moments, 1)
        assert time.perf_counter() - start < 0.1


@st.composite
def scans(draw):
    """(k, y, low, t_low, t_high): a cube of at most 3*10^4 points, low up to
    y + 2, and window ends from below norm 0 to past the top norm."""
    k = draw(st.integers(min_value=1, max_value=6))
    y = draw(st.integers(min_value=2, max_value=math.floor(3e4 ** (1 / k))))
    top = k * (y - 1) ** 2
    ends = st.integers(min_value=-3, max_value=top + 3)
    return k, y, draw(st.integers(min_value=0, max_value=y + 2)), draw(ends), draw(ends)


class TestEnumerationBudget:
    @given(st.integers(1, 200), st.integers(1, 10**4), st.integers(1, 10**12))
    @example(8, 10, 10**8)
    @example(27, 2, 10**8)
    @example(2, 10, 99)  # 100 > 99 though 6 bits < 7: only the exact test refuses
    def test_refuses_exactly_when_y_to_the_k_exceeds_budget(self, k, y, budget):
        if y**k > budget:
            with pytest.raises(BudgetExceeded, match="enumeration budget"):
                check_enumeration_budget(k, y, budget)
        else:
            check_enumeration_budget(k, y, budget)


class TestShellMembers:
    def _shell(self, lo, hi):
        return ShellSelection(
            t_low=lo, t_high=hi, population=-1, sigma_window=(0.0, 0.0),
            pigeonhole_bound=0.0, meets_bound=True,
        )

    def test_k2_y3_unit_norm(self):
        members = shell_members(2, 3, self._shell(1, 1))
        assert members == [(0, 1), (1, 0)]

    def test_origin_shell(self):
        assert shell_members(3, 4, self._shell(0, 0)) == [(0, 0, 0)]

    def test_k2_y3_window_4_5(self):
        members = shell_members(2, 3, self._shell(4, 5))
        assert members == [(0, 2), (1, 2), (2, 0), (2, 1)]

    def test_lexicographic_and_norms(self):
        members = shell_members(3, 5, self._shell(10, 14))
        assert members == sorted(members)
        assert all(10 <= sum(c * c for c in v) <= 14 for v in members)
        assert all(type(c) is int for v in members for c in v)

    def test_population_matches_histogram(self):
        hist = build_histogram(4, 4)
        for lo, hi in [(0, 5), (7, 9), (12, 12), (30, 40)]:
            members = shell_members(4, 4, self._shell(lo, hi))
            assert len(members) == hist[max(lo, 0) : hi + 1].sum()

    def test_thread_counts_agree(self):
        base = shell_members(3, 7, self._shell(20, 30), threads=1)
        for threads in (2, 4, 8):
            assert shell_members(3, 7, self._shell(20, 30), threads=threads) == base

    def test_budget(self):
        with pytest.raises(BudgetExceeded):
            shell_members(10, 10, self._shell(0, 5), budget=10**4)

    # (5, 8) and (3, 30) span more than one scan chunk.
    @pytest.mark.parametrize("k,y", [(1, 5), (2, 3), (3, 4), (4, 3), (5, 2), (3, 7),
                                     (5, 8), (3, 30)])
    def test_points_equal_brute_cube_filter(self, k, y):
        cube = _unravel(np.arange(y**k), k, y)
        norms = (cube * cube).sum(axis=1)
        top = k * (y - 1) ** 2
        windows = [(0, 0), (1, 1), (2, 3), (top // 2, top // 2 + 2), (top, top),
                   (0, top), (5, 4), (top + 1, top + 9), (-3, -1)]
        for lo, hi in windows:
            points = shell_points(k, y, self._shell(lo, hi))
            expected = cube[(norms >= lo) & (norms <= hi)]
            assert points.shape == expected.shape \
                and points.dtype == np.min_scalar_type(y - 1)
            assert (points == expected).all()
            assert shell_members(k, y, self._shell(lo, hi)) \
                == [tuple(row) for row in expected.tolist()]

    @pytest.mark.parametrize("k,y", [(1, 5), (2, 3), (3, 4), (4, 3), (5, 2), (3, 7),
                                     (5, 8), (3, 30)])
    def test_sub_cube_points_equal_brute_cube_filter(self, k, y):
        cube = _unravel(np.arange(y**k), k, y)
        norms = (cube * cube).sum(axis=1)
        top = k * (y - 1) ** 2
        windows = [(0, 0), (1, 1), (2, 3), (top // 2, top // 2 + 2), (top, top),
                   (0, top), (5, 4), (top + 1, top + 9), (-3, -1)]
        # low >= y leaves an empty sub-cube, so every window gives shape (0, k).
        for low in sorted({0, 1, 2, y - 1, y, y + 3}):
            in_sub_cube = (cube >= low).all(axis=1)
            for lo, hi in windows:
                points = shell_points(k, y, self._shell(lo, hi), low=low)
                expected = cube[in_sub_cube & (norms >= lo) & (norms <= hi)]
                assert points.shape == expected.shape \
                    and points.dtype == np.min_scalar_type(y - 1)
                assert (points == expected).all()

    @given(scans())
    @example((3, 5, 2, 0, 11))   # the window ends below the sub-cube's least norm 12
    @example((2, 4, 4, 0, 18))   # low >= y: the sub-cube is empty
    @example((3, 30, 0, 0, 2523))  # more than one scan chunk
    @settings(max_examples=60, deadline=None)
    def test_random_scans_equal_brute_cube_filter(self, scan):
        k, y, low, lo, hi = scan
        expected = [v for v in itertools.product(range(low, y), repeat=k)
                    if lo <= sum(c * c for c in v) <= hi]
        points = shell_points(k, y, self._shell(lo, hi), low=low)
        assert points.dtype == np.min_scalar_type(y - 1) \
            and points.shape == (len(expected), k)
        assert [tuple(row) for row in points.tolist()] == expected

    def test_rows_are_one_byte_per_digit_and_never_held_as_int64(self):
        # 180,657 rows of [0, 5]^8 around the mean norm, scanned in ~0.2 s.
        # As int64 the rows alone take 8 bytes a digit, 11.6 MB; the scan
        # with int64 rows peaked at 18.0 MB, with byte rows at 7.9 MB.
        k, y = 8, 6
        mu = int(exact_moments(k, y).mu_Z)
        tracemalloc.start()
        try:
            points = shell_points(k, y, self._shell(mu - 3, mu + 3))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert points.dtype == np.uint8 and len(points) == 180_657
        assert points.nbytes == len(points) * k
        assert peak < 8 * len(points) * k

    def test_sub_cube_keeps_cube_budget_and_rejects_negative_low(self):
        with pytest.raises(BudgetExceeded):
            shell_points(10, 10, self._shell(0, 5), budget=10**4, low=9)
        with pytest.raises(ValueError):
            shell_points(2, 3, self._shell(0, 8), low=-1)


class TestCountCappedBall:
    def test_gauss_circle_radius_5(self):
        assert count_capped_ball(2, 25, 3) == 81

    def test_origin_only(self):
        assert count_capped_ball(1, 0, 1) == 1

    def test_quarter_disc(self):
        assert count_capped_ball(2, 25, 1) == 26

    @given(
        st.integers(min_value=1, max_value=3),
        st.integers(min_value=0, max_value=50),
        st.integers(min_value=1, max_value=4),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_brute_force(self, k, t, m):
        if m > k + 1:
            m = k + 1
        assert count_capped_ball(k, t, m) == brute_capped_count(k, t, m)

    def test_monotone_in_m(self):
        for k in (2, 3, 4):
            for t in (10, 49, 200):
                counts = [count_capped_ball(k, t, m) for m in range(1, k + 2)]
                assert counts == sorted(counts)

    def test_unconstrained_equals_full_ball(self):
        for t in (9, 25, 64):
            assert count_capped_ball(3, t, 4) == brute_capped_count(3, t, 4)

    def test_rejects_bad_m(self):
        with pytest.raises(ValueError):
            count_capped_ball(2, 10, 0)
        with pytest.raises(ValueError):
            count_capped_ball(2, 10, 4)
        with pytest.raises(ValueError, match="k must be >= 1, got 0"):
            count_capped_ball(0, 10, 1)
        with pytest.raises(ValueError, match="t must be >= 0, got -1"):
            count_capped_ball(2, -1, 3)

    def test_budget(self):
        with pytest.raises(BudgetExceeded):
            count_capped_ball(5, 10**7, 1, budget=10**8)

    def test_count_beyond_int64_matches_theta_power(self):
        k, t = 64, 64
        theta = [0] * (t + 1)
        theta[0] = 1
        for a in range(1, math.isqrt(t) + 1):
            theta[a * a] = 2
        series = [1] + [0] * t
        for _ in range(k):
            series = [
                sum(series[i] * theta[s - i] for i in range(s + 1)) for s in range(t + 1)
            ]
        count = count_capped_ball(k, t, k + 1)
        assert count == sum(series) > 2**63


class TestDiscrepancyScan:
    def test_k2_t25_full(self):
        (rec,) = discrepancy_scan(2, [25], 3)
        assert rec.count_exact == 81
        assert rec.volume == pytest.approx(25 * math.pi)
        assert rec.reference_volume == 1.0
        assert rec.ratio == pytest.approx(abs(81 - 25 * math.pi), rel=1e-12)

    def test_rejects_t_zero(self):
        with pytest.raises(ValueError):
            discrepancy_scan(2, [0, 25], 3)
        assert discrepancy_scan(2, [], 3) == []  # no t to refuse, none to count

    def test_k3_t100_unconstrained(self):
        (rec,) = discrepancy_scan(3, [100], 4)
        assert rec.count_exact == brute_capped_count(3, 100, 4)
        assert rec.volume == pytest.approx(4 * math.pi / 3 * 1000, rel=1e-12)

    def test_volumes_past_the_float_range_are_refused_before_the_dp(self, monkeypatch):
        def tripwire(*args):
            raise AssertionError("the count DP ran")

        monkeypatch.setattr(lattice, "_capped_counts_table", tripwire)
        for k, t in [(400, 1), (342, 1), (200, 2000), (10**7, 1)]:
            with pytest.raises(ValueError, match="overflow floats"):
                discrepancy_scan(k, [t], 1)

    @pytest.mark.parametrize("k", [330, 339, 341])
    def test_subnormal_volumes_equal_capped_ball_volume(self, k):
        # with m <= 2 the coefficient beta_k / 2^(k-m+1) is subnormal here
        for m in (1, 2, k + 1):
            for rec in discrepancy_scan(k, [1, 4, 9], m):
                assert rec.volume == capped_ball_volume(k, rec.t, m)
                assert rec.reference_volume == capped_ball_volume(k - 2, rec.t, m)

    def test_volume_halves_per_constraint(self):
        assert capped_ball_volume(3, 100.0, 1) == pytest.approx(
            capped_ball_volume(3, 100.0, 4) / 8
        )
        assert capped_ball_volume(0, 100.0, 1) == 1.0
