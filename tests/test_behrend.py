import dataclasses
import gc
import itertools
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from apfree import lattice
from apfree.behrend import construct_behrend
from apfree.codec import decode_all
from apfree.errors import BudgetExceeded, EmptyWindow
from apfree.lattice import _window_ends, shell_members
from apfree.numeric import ConstructionParams, exact_moments, resolve_params
from apfree.verify import convexly_independent, midpoint_free

from test_lattice import brute_histogram
from test_verify import _code


def params_for(k, y, **kw):
    return ConstructionParams(n=(2 * y) ** k, k=k, y=y, **kw)


def points_of(art):
    """The shell points behind an artifact's set, rows in code order."""
    return decode_all(art.set.elements, art.params.k, art.params.y)


def two_step_shell(k, y, a):
    """The most populated norm in the window, re-chosen among t != 0 if it is 0."""
    moments = exact_moments(k, y)
    lo, hi = _window_ends(moments.mu_Z, Fraction(a) ** 2 * moments.var_Z)
    counts = brute_histogram(k, y)
    in_window = [t for t in sorted(counts) if lo <= t <= hi]
    best = max(in_window, key=lambda t: (counts[t], -t), default=None)
    if best == 0:
        best = max(in_window[1:], key=lambda t: (counts[t], -t), default=None)
    return best


class TestConstructBehrend:
    def test_k2_y3(self):
        art = construct_behrend(params_for(2, 3))
        assert art.shell.t_low == art.shell.t_high == 1
        assert sorted(points_of(art).tolist()) == [[0, 1], [1, 0]]
        assert art.set.elements == (1, 6)
        assert art.set.n == 36

    def test_k3_y2_powers_of_four(self):
        art = construct_behrend(params_for(3, 2))
        assert art.set.elements == (1, 4, 16)

    def test_k1_y2_skips_origin_shell(self):
        # norms 0 and 1 tie at population 1; the origin-only shell is skipped
        art = construct_behrend(params_for(1, 2))
        assert art.shell.t_low == 1
        assert art.set.elements == (1,)
        assert all(e >= 1 for e in art.set.elements)

    def test_all_vectors_share_the_shell_norm(self):
        art = construct_behrend(params_for(3, 4))
        points = points_of(art)
        assert {sum(c * c for c in v) for v in points.tolist()} == {art.shell.t_low}
        assert len(points) == art.shell.population == art.set.size

    def test_elements_stay_below_n(self):
        for k, y in [(2, 3), (3, 2), (2, 5), (4, 3)]:
            art = construct_behrend(params_for(k, y))
            assert all(1 <= e <= art.params.n - 1 for e in art.set.elements)

    def test_decoding_recovers_the_shell(self):
        art = construct_behrend(params_for(3, 5))
        decoded = set(map(tuple, points_of(art).tolist()))
        assert decoded == set(shell_members(3, 5, art.shell))
        assert {_code(v, 5) for v in decoded} == set(art.set.elements)

    def test_output_is_midpoint_free(self):
        for k, y in [(2, 3), (3, 3), (4, 4), (2, 8)]:
            art = construct_behrend(params_for(k, y))
            assert midpoint_free(art.set).ok

    def test_shell_vectors_are_convexly_independent(self):
        art = construct_behrend(params_for(3, 4))
        assert convexly_independent(points_of(art))

    def test_shell_near_the_convex_check_limit_within_a_wall_clock_bound(self):
        # 5,990 points of (5, 19) price C(5990, 2) * 5 = 89,685,275 of the 1e8
        # difference cells the default budget admits; about 10 s on a 2-core VM
        art = construct_behrend(params_for(5, 19))
        start = time.perf_counter()
        assert convexly_independent(points_of(art))
        assert art.set.size == 5990 and time.perf_counter() - start < 30.0

    def test_2_26_reference_set_is_convexly_independent_at_the_default_budget(self):
        # 3,088 points in k = 8 price C(3088, 2) * 8 = 38,130,624 difference cells
        art = construct_behrend(resolve_params("behrend", 2**26))
        assert art.set.size == 3088 and art.params.k == 8
        assert convexly_independent(points_of(art))

    def test_size_guarantee(self):
        for k in (2, 3, 4):
            for y in (2, 4, 6):
                params = params_for(k, y)
                art = construct_behrend(params)
                sigma = exact_moments(k, y).sigma_Z
                a = params.a
                floor = (1 - 1 / a**2) * y**k / (2 * a * sigma + 1) - 1
                assert art.set.size >= floor

    def test_thread_counts_agree(self):
        base = construct_behrend(params_for(4, 4), threads=1)
        for threads in (2, 8):
            art = construct_behrend(params_for(4, 4), threads=threads)
            assert art.set.elements == base.set.elements

    def test_points_match_vectors_and_shell_members(self):
        for k, y in [(2, 3), (3, 4), (4, 5), (5, 3)]:
            art = construct_behrend(params_for(k, y))
            points = points_of(art)
            assert points.shape == (art.set.size, k)
            assert sorted(map(tuple, points.tolist())) == shell_members(k, y, art.shell)

    def test_artifact_holds_the_set_once(self):
        art = construct_behrend(params_for(3, 4))
        fields = [f.name for f in dataclasses.fields(art)]
        assert fields == ["params", "shell", "set"]
        assert not any(isinstance(getattr(art, f), np.ndarray) for f in fields)

    def test_2_32_set_is_built_and_held_as_one_int64_array(self):
        # The benchmark's shell input, 160,217 codes.  Held as Python ints they
        # took 6.4 MB, and sorting them into a tuple peaked at 9.6 MB.
        gc.collect()
        tracemalloc.start()
        try:
            start = time.perf_counter()
            art = construct_behrend(resolve_params("behrend", 2**32))
            elapsed = time.perf_counter() - start
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert art.set.size == 160_217
        assert np.asarray(art.set.elements).dtype == np.int64
        assert peak < 5_500_000
        assert held <= 8 * art.set.size + 65_536
        assert elapsed < 20.0

    def test_explicit_n_larger_than_cube(self):
        # n need not be an exact power; elements still fit below (2y)^k <= n
        params = ConstructionParams(n=100, k=2, y=3)
        art = construct_behrend(params)
        assert art.set.n == 100
        assert params.n_effective == 36
        assert all(e <= 35 for e in art.set.elements)

    def test_wide_a_still_selects_one_norm(self):
        art = construct_behrend(params_for(2, 4, a=10.0))
        assert art.shell.t_low == art.shell.t_high
        assert art.set.size == art.shell.population

    def test_matches_the_two_step_origin_rule_on_small_cubes(self):
        for k in range(1, 5):
            for y in range(2, 7):
                for a in (0.5, 1.0, 1.5, 2.0, 3.0):
                    expected = two_step_shell(k, y, a)
                    if expected is None:
                        with pytest.raises(EmptyWindow):
                            construct_behrend(params_for(k, y, a=a))
                        continue
                    art = construct_behrend(params_for(k, y, a=a))
                    assert art.shell.t_low == art.shell.t_high == expected
                    shell = [v for v in itertools.product(range(y), repeat=k)
                             if sum(c * c for c in v) == expected]
                    assert art.set.elements == tuple(sorted(_code(v, y) for v in shell))

    def test_oversized_cube_is_refused_before_the_census(self, monkeypatch):
        def tripwire(*args):
            raise AssertionError("the census ran")

        monkeypatch.setattr(lattice, "build_histogram", tripwire)
        start = time.perf_counter()
        with pytest.raises(BudgetExceeded, match="enumeration budget"):
            construct_behrend(params_for(10, 10), budget=10**6)
        assert time.perf_counter() - start < 1.0
        # The patch is live: a budget that admits y^k = 10^10 reaches the census
        # (were it not, the scan of 10^10 points would fail the test at once).
        monkeypatch.setattr(lattice, "shell_points", lambda *args: pytest.fail("scanned"))
        with pytest.raises(AssertionError, match="the census ran"):
            construct_behrend(params_for(10, 10), budget=10**10)

    def test_artifact_is_reproducible(self):
        a1 = construct_behrend(params_for(3, 3))
        a2 = construct_behrend(params_for(3, 3))
        assert a1.set.elements == a2.set.elements
        assert a1.shell == a2.shell


class TestSelectionReporting:
    def test_meets_bound_reported(self):
        art = construct_behrend(params_for(3, 5))
        assert art.shell.meets_bound
        assert art.shell.population >= art.shell.pigeonhole_bound - 1e-9

    def test_window_bounds_contain_shell(self):
        art = construct_behrend(params_for(3, 6))
        lo, hi = art.shell.sigma_window
        assert lo - 1e-9 <= art.shell.t_low <= art.shell.t_high <= hi + 1e-9
