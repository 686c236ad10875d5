import hashlib
import io
import itertools
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from apfree import verify
from apfree.behrend import construct_behrend
from apfree.codec import APFreeSet, decode_all, read_set
from apfree.elkin import construct_elkin
from apfree.errors import BudgetExceeded, DigitOutOfRange
from apfree.lattice import ShellSelection, shell_members
from apfree.numeric import ConstructionParams, resolve_params
from apfree.verify import (
    NU_BUDGET,
    VerificationReport,
    convexly_independent,
    exact_nu,
    exact_nu_bb,
    midpoint_free,
    progression_free,
    short_difference_free,
)


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


def _fits_int64(pts) -> bool:
    return all(-(2**63) <= c < 2**63 for p in pts for c in p)


@st.composite
def point_lists(draw):
    """Up to 9 points of Z^k, k in 1..4, some collinear, with coordinates on
    either side of the int64 bound of convexly_independent."""
    k = draw(st.integers(min_value=1, max_value=4))
    scale = draw(st.sampled_from([3, 2**40, 2**70]))
    coord = st.integers(min_value=-scale, max_value=scale)
    pts = draw(st.lists(st.tuples(*[coord] * k), max_size=7))
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        if len(pts) >= 2:
            # b + j*(b - a) with j >= 1 puts b on the segment from a to the new point
            a, b = draw(st.sampled_from(pts)), draw(st.sampled_from(pts))
            j = draw(st.integers(min_value=1, max_value=3))
            pts.append(tuple(bc + j * (bc - ac) for ac, bc in zip(a, b)))
    return draw(st.permutations(pts))


# Optimum sizes r_3(n) for {1..n}, n = 1..48 (OEIS A003002).
KNOWN_NU = [1, 2, 2, 3, 4, 4, 4, 4, 5, 5, 6, 6, 7, 8, 8, 8, 8, 8, 8, 9,
            9, 9, 9, 10, 10, 11, 11, 11, 11, 12, 12, 13, 13, 13, 13, 14, 14, 14, 14,
            15, 16, 16, 16, 16, 16, 16, 16, 16]


def reference_midpoint_free(elements) -> VerificationReport:
    """The pair scan midpoint_free must reproduce: same-parity pairs (a, b)
    in lexicographic index order, set-membership test of each midpoint."""
    elements = sorted(set(elements))
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


@st.composite
def element_lists(draw):
    """Unsorted lists with duplicates, on either side of the int64 bound, with
    planted progressions in most of them."""
    scale = draw(st.sampled_from([20, 2**40, 2**70]))
    value = st.integers(min_value=-scale, max_value=scale)
    elements = draw(st.lists(value, max_size=24))
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        a, step = draw(value), draw(st.integers(min_value=1, max_value=scale))
        elements += [a, a + step, a + 2 * step]
    if elements:
        elements += draw(st.lists(st.sampled_from(elements), max_size=3))
    return draw(st.permutations(elements))


def brute_midpoint_free(elements) -> bool:
    elements = sorted(elements)
    for i, j, l in itertools.combinations(elements, 3):
        if 2 * j == i + l:
            return False
    return True


class TestMidpointFree:
    def test_witness_in_123(self):
        report = midpoint_free([1, 2, 3])
        assert not report.ok
        assert report.witness == (2, 1, 3)

    def test_1245_is_free(self):
        assert midpoint_free([1, 2, 4, 5]).ok

    def test_trivial_sets(self):
        assert midpoint_free([]).ok
        assert midpoint_free([7]).ok
        assert midpoint_free([3, 9]).ok

    def test_witness_is_valid_triple(self):
        report = midpoint_free([10, 14, 18, 21])
        assert not report.ok
        i, j, l = report.witness
        assert 2 * i == j + l and i != j and i != l

    @given(st.sets(st.integers(min_value=1, max_value=60), max_size=14))
    @settings(max_examples=300)
    def test_agrees_with_triple_scan(self, elements):
        assert midpoint_free(elements).ok == brute_midpoint_free(elements)

    def test_counts_only_same_parity_pairs(self):
        report = midpoint_free([1, 2, 4, 5])
        # same-parity pairs of {1,2,4,5}: (1,5) and (2,4)
        assert report.pairs_checked == 2

    @given(element_lists())
    @settings(max_examples=500, deadline=None)
    def test_report_equals_reference_scan(self, elements):
        assert midpoint_free(elements) == reference_midpoint_free(elements)

    def test_report_equals_reference_scan_on_examples(self):
        big = 2**64
        for elements in ([5, 1, 3, 3], [2, 9, 4, 6, 7, 5], [big, big + 2, big + 4],
                         [-4, 0, 4, -4], [1, 4, 16, 64, 256, 2, 3]):
            report = midpoint_free(elements)
            assert report == reference_midpoint_free(elements)
            assert not report.ok

    @pytest.mark.parametrize("elements", [[1.5, 2.0, 2.5], [2.0, 4], [True, 2, 3],
                                          ["1", "2", "3"]])
    def test_non_integer_elements_are_rejected(self, elements):
        # 1.5 and 2.5 used to be truncated to 1 and 2, and {1, 2} passed
        with pytest.raises(ValueError, match="must be integers"):
            midpoint_free(elements)

    def test_numpy_integers_are_accepted(self):
        assert midpoint_free(np.array([1, 2, 3], dtype=np.int64)).witness == (2, 1, 3)

    def test_oversized_set_is_refused_before_the_scan(self):
        # 2 * C(10^5, 2) ~ 1e10 same-parity pairs, minutes of scanning
        start = time.perf_counter()
        with pytest.raises(BudgetExceeded, match="verify budget"):
            midpoint_free(range(1, 2 * 10**5 + 1))
        assert time.perf_counter() - start < 1.0

    def test_budget_counts_same_parity_pairs(self):
        # {1..6}: C(3, 2) even pairs + C(3, 2) odd pairs
        assert midpoint_free([1, 2, 4, 5], budget=2).ok
        with pytest.raises(BudgetExceeded):
            midpoint_free(range(1, 7), budget=5)
        assert midpoint_free(range(1, 7), budget=6).pairs_checked == 1

    def test_far_triple_is_named_from_its_first_row(self):
        # e0 - D is the smallest element and e0 + D the largest: the witness is
        # in row 0, so the scan stops after that one row
        elements = construct_behrend(resolve_params("behrend", 2**28)).set.elements
        e0, far = elements[len(elements) // 2], 10**12
        planted = [*elements, e0 - far, e0 + far]
        start = time.perf_counter()
        report = midpoint_free(planted)
        assert time.perf_counter() - start < 0.1
        assert report.witness == (e0, e0 - far, e0 + far)
        assert report.pairs_checked == 4194
        assert report == reference_midpoint_free(planted)

    def test_free_set_reports_every_same_parity_pair(self):
        elements = construct_behrend(resolve_params("behrend", 2**26)).set.elements
        n_odd = sum(e % 2 for e in elements)
        n_even = len(elements) - n_odd
        report = midpoint_free(elements)
        assert report.ok
        assert report.pairs_checked == n_even * (n_even - 1) // 2 + n_odd * (n_odd - 1) // 2


def _code(point, y) -> int:
    """The reference code of a point: its coordinates as base-2y digits."""
    return sum(int(c) * (2 * y) ** i for i, c in enumerate(point))


@st.composite
def cube_code_sets(draw):
    """(codes, k, y): codes of up to 20 random points of [0, y-1]^k, k in 1..4,
    plus up to two planted progressions a, a + t, a + 2t of points."""
    k = draw(st.integers(min_value=1, max_value=4))
    y = draw(st.integers(min_value=2, max_value=6))
    point = st.tuples(*[st.integers(min_value=0, max_value=y - 1)] * k)
    points = draw(st.lists(point, max_size=20))
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        a = draw(point)
        # a step t keeping a + 2t in the cube
        t = [draw(st.integers(min_value=-(c // 2), max_value=(y - 1 - c) // 2))
             for c in a]
        points += [a, tuple(c + u for c, u in zip(a, t)),
                   tuple(c + 2 * u for c, u in zip(a, t))]
    return [_code(v, y) for v in points], k, y


def _assert_valid_witness(report, elements):
    mid, a, b = report.witness
    assert a < mid < b and 2 * mid == a + b and {mid, a, b} <= set(elements)


def _agree(elements, k, y):
    """The short-difference check, at an ample budget, against midpoint_free."""
    fast = short_difference_free(elements, k, y, budget=10**9)
    slow = midpoint_free(elements, budget=10**9)
    assert fast is not None and fast.check == "short-difference"
    assert fast.ok == slow.ok
    if not fast.ok:
        _assert_valid_witness(fast, elements)
    return fast


# the acceptance suite's grid of (k, y)
GRID = [(k, y) for k in (2, 3, 4) for y in range(2, 9)]


def _grid_sets():
    for k, y in GRID:
        n = (2 * y) ** k
        yield construct_behrend(ConstructionParams(n=n, k=k, y=y)).set
        for g in (1, 2):
            yield construct_elkin(ConstructionParams(n=n, k=k, y=y, g=g)).set


class TestShortDifference:
    @given(cube_code_sets())
    @settings(max_examples=400, deadline=None)
    def test_agrees_with_midpoint_free(self, case):
        elements, k, y = case
        assert _agree(elements, k, y).ok == brute_midpoint_free(set(elements))

    def test_agrees_on_every_grid_construct(self):
        for s in _grid_sets():
            p = s.params_echo
            assert _agree(s.elements, p.k, p.y).ok
            assert progression_free(s).ok

    def test_agrees_on_a_corrupted_element(self):
        # the last element moved to the midpoint of the first two whose
        # midpoint is a cube point: off the shell or annulus, so the norms
        # spread and the check must find that progression
        cases = 0
        for s in _grid_sets():
            p = s.params_echo
            for a, c in itertools.combinations(s.elements[:-1], 2):
                try:
                    decode_all([(a + c) // 2], p.k, p.y)
                except DigitOutOfRange:
                    continue
                if (a + c) % 2 == 0 and (a + c) // 2 not in s.elements:
                    elements = sorted(s.elements[:-1] + ((a + c) // 2,))
                    assert not _agree(elements, p.k, p.y).ok
                    cases += 1
                    break
        assert cases >= 15

    def test_undecodable_element_falls_back(self):
        s = construct_behrend(ConstructionParams(n=6**3, k=3, y=3)).set
        # digit y in the lowest place is no cube coordinate
        bad = s.elements[:-1] + (s.elements[-1] + 3,)
        assert short_difference_free(bad, 3, 3) is None
        report = progression_free(APFreeSet(
            n=s.n, elements=tuple(sorted(bad)), method="external",
            params_echo=s.params_echo))
        assert report.check == "midpoint"
        assert report.ok == midpoint_free(bad).ok

    def test_codes_past_the_cube_fall_back(self):
        assert short_difference_free([1, 2, 6**3], 3, 3) is None
        assert short_difference_free([-1, 2], 3, 3) is None

    @pytest.mark.parametrize("k, y", [(0, 3), (2, 1)])
    def test_rejects_a_degenerate_cube(self, k, y):
        with pytest.raises(ValueError, match=f"need k >= 1 and y >= 2, got k={k}"):
            short_difference_free([1, 2], k, y)

    def test_no_params_falls_back(self):
        s = APFreeSet(n=10, elements=(1, 2, 4, 5), method="external")
        assert progression_free(s) == midpoint_free(s)

    def test_witness_is_first_hit_by_difference(self):
        # {1, 2, 3} in k = 1, y = 4: d = 1 finds 1, 2, 3
        assert short_difference_free([1, 2, 3], 1, 4) == VerificationReport(
            ok=False, witness=(2, 1, 3), pairs_checked=3, check="short-difference")

    def test_priced_by_elements_times_differences(self):
        # (1, 0), (0, 1), (2, 2) in k = 2, y = 5: w = 7, and 10 of the d in
        # [-2, 2]^2 with 0 < |d|^2 <= 7 have a positive code
        elements = [_code(v, 5) for v in ((1, 0), (0, 1), (2, 2))]
        assert short_difference_free(elements, 2, 5, budget=30).pairs_checked == 30
        assert short_difference_free(elements, 2, 5, budget=29) is None

    def test_a_shell_tests_nothing(self):
        s = construct_behrend(ConstructionParams(n=8**4, k=4, y=4)).set
        report = short_difference_free(s, 4, 4)
        assert report.ok and report.pairs_checked == 0

    def test_large_difference_set_falls_back_then_refuses(self):
        # 40,000 points of [0, 199]^2 in the cube of side 1000: |d|^2 up to
        # 79,202 gives ~124,000 differences, over budget / |S| = 2,500, and
        # 4e8 same-parity pairs exceed the budget as well
        points = [(i, j) for i in range(200) for j in range(200)][1:]
        elements = tuple(sorted(_code(v, 1000) for v in points))
        s = APFreeSet(n=2000**2, elements=elements, method="external",
                      params_echo=ConstructionParams(n=2000**2, k=2, y=1000))
        start = time.perf_counter()
        assert short_difference_free(s, 2, 1000) is None
        with pytest.raises(BudgetExceeded, match="same-parity pairs"):
            progression_free(s)
        assert time.perf_counter() - start < 1.0

    def test_small_set_with_wide_norms_takes_the_cheaper_check(self):
        s = APFreeSet(n=2000**2, elements=(1, 2001, 399 * 2001),
                      method="external",
                      params_echo=ConstructionParams(n=2000**2, k=2, y=1000))
        start = time.perf_counter()
        report = progression_free(s)
        assert time.perf_counter() - start < 1.0
        assert report.ok and report.check == "midpoint"

    def test_2_32_set_verifies_at_the_default_budget_within_a_second(self):
        art = construct_behrend(resolve_params("behrend", 2**32))
        buf = io.StringIO()
        art.set.write_json(buf, reproducible=True)
        buf.seek(0)
        start = time.perf_counter()
        report = progression_free(read_set(buf))
        elapsed = time.perf_counter() - start
        assert report.ok and report.check == "short-difference"
        assert art.set.size == 160217 and elapsed < 1.0


class TestConvexlyIndependent:
    def test_collinear_triple(self):
        pts = [(0, 0), (1, 1), (2, 2)]
        assert not convexly_independent(pts)
        assert not convexly_independent(np.array(pts, dtype=np.int64))

    def test_two_points(self):
        assert convexly_independent([(0, 1), (1, 0)])

    def test_non_midpoint_interior_point(self):
        # (1, 1) = (2/3)(0, 0) + (1/3)(3, 3): dependent but not a midpoint
        pts = [(0, 0), (1, 1), (3, 3)]
        assert not convexly_independent(pts)

    def test_generic_position(self):
        assert convexly_independent([(0, 0), (1, 2), (2, 1), (3, 5)])

    def test_duplicates_are_dependent(self):
        assert not convexly_independent([(0, 0), (1, 1), (0, 0)])

    @pytest.mark.parametrize("pts", [
        [(0, 0), (1, 1.5), (2, 3)],  # int() would make (1, 1): independent
        np.array([(0, 0), (1, 1.5), (2, 3)]),
        [(0, 0), (1, True), (2, 5)],
        [(0, 0), (1, "2"), (2, 5)],
    ], ids=["float", "float-array", "bool", "str"])
    def test_non_integer_coordinates_are_refused(self, pts):
        with pytest.raises(ValueError, match="coordinates must be integers"):
            convexly_independent(pts)

    def test_sphere_points_are_independent(self):
        shell = ShellSelection(
            t_low=9, t_high=9, population=-1, sigma_window=(0.0, 0.0),
            pigeonhole_bound=0.0, meets_bound=True,
        )
        for k, y in [(2, 4), (3, 3), (4, 3)]:
            members = shell_members(k, y, shell)
            if members:
                assert convexly_independent(members)

    def test_budget(self):
        pts = [(i, 0) for i in range(0, 20, 2)]
        with pytest.raises(BudgetExceeded):
            convexly_independent(pts, budget=5)

    def test_250_shell_points_in_under_3_s(self):
        art = construct_behrend(ConstructionParams(n=16**6, k=6, y=8))
        pts = decode_all(art.set.elements, 6, 8)[:250]
        start = time.perf_counter()
        assert convexly_independent(pts)
        assert time.perf_counter() - start < 3.0

    def test_default_budget_refuses_one_point_past_its_limit_at_once(self, monkeypatch):
        # 10,000 planar points price C(10000, 2) * 2 = 99,990,000 difference
        # cells and 10,001 price 100,010,000; duplicates end the admitted call
        # and the refused one stops, both before any array is built
        def tripwire(*args, **kwargs):
            raise AssertionError("np.array called")

        monkeypatch.setattr(np, "array", tripwire)
        start = time.perf_counter()
        assert not convexly_independent([(0, 0)] * 10000)
        with pytest.raises(BudgetExceeded, match="100010000 difference cells"):
            convexly_independent([(0, 0)] * 10001)
        assert time.perf_counter() - start < 0.1

    @given(point_lists())
    # k = 1: any three distinct points are dependent, also when the first
    # listed is the middle one, whose differences to the others have opposite signs
    @example([(1,), (0,), (2,)])
    @example([(0,), (-3,), (5,)])
    @example([(2**70,), (-(2**70),), (2**71,)])
    @example([(-5,), (2**70,)])
    @settings(max_examples=400, deadline=None)
    def test_agrees_with_exact_oracle(self, pts):
        expect = len(set(pts)) == len(pts) and _convexly_independent_exact(pts)
        assert convexly_independent(pts) == expect
        if _fits_int64(pts):
            assert convexly_independent(np.array(pts, dtype=np.int64)) == expect

    def test_big_coordinates_use_exact_path(self):
        for w in (2**30, 2**40):
            dependent = [(0, 0), (w, w), (2 * w, 2 * w)]
            independent = [(0, 1), (w, w), (2 * w, 0)]
            assert not convexly_independent(dependent)
            assert convexly_independent(independent)
            # int64 input must not wrap the products either
            assert not convexly_independent(np.array(dependent, dtype=np.int64))
            assert convexly_independent(np.array(independent, dtype=np.int64))


class TestExactNu:
    def test_known_prefix(self):
        for n, expect in enumerate(KNOWN_NU, start=1):
            value, witness = exact_nu(n)
            assert value == expect
            assert witness.size == expect
            assert midpoint_free(witness).ok
            assert exact_nu_bb(n) == expect

    def test_witness_is_first_optimum_by_brute_force(self):
        for n in range(1, 19):
            value, witness = exact_nu(n)
            # combinations come in lexicographic order
            free = (c for c in itertools.combinations(range(1, n + 1), value)
                    if brute_midpoint_free(c))
            assert next(free) == witness.elements
            assert not any(brute_midpoint_free(c)
                           for c in itertools.combinations(range(1, n + 1), value + 1))

    def test_examples(self):
        assert exact_nu(1)[0] == 1
        assert exact_nu(2)[0] == 2
        assert exact_nu(3)[0] == 2
        assert exact_nu(5)[0] == 4
        assert exact_nu(9)[0] == 5

    def test_witness_is_lexicographically_smallest(self):
        # all optima of {1..5} have size 4; {1,2,4,5} is the unique one
        assert exact_nu(5)[1].elements == (1, 2, 4, 5)
        assert exact_nu(2)[1].elements == (1, 2)

    def test_monotone_and_lipschitz(self):
        values = [exact_nu(n)[0] for n in range(1, 33)]
        for a, b in zip(values, values[1:]):
            assert a <= b <= a + 1

    def test_budget(self):
        assert NU_BUDGET == 64
        with pytest.raises(BudgetExceeded):
            exact_nu(65)
        with pytest.raises(ValueError):
            exact_nu(0)
        with pytest.raises(ValueError, match="n must be >= 1, got 0"):
            exact_nu_bb(0)


class TestOracleAgreement:
    def test_bb_examples(self):
        assert exact_nu_bb(4) == 3
        assert exact_nu_bb(8) == 4

    def test_agreement_to_30(self):
        for n in range(1, 31):
            assert exact_nu(n)[0] == exact_nu_bb(n)

    def test_bb_budget(self):
        with pytest.raises(BudgetExceeded):
            exact_nu_bb(NU_BUDGET + 1)

    def test_construction_never_beats_optimum(self):
        for k, y in [(1, 2), (2, 2), (2, 3)]:
            artifact = construct_behrend(ConstructionParams(n=(2 * y) ** k, k=k, y=y))
            nu_value, _ = exact_nu((2 * y) ** k)
            assert artifact.set.size <= nu_value

    def test_agreement_to_56_within_a_wall_clock_bound(self, monkeypatch):
        # from empty tables, so the whole search to 56 is timed
        monkeypatch.setattr(verify, "_dfs_values", [0])
        monkeypatch.setattr(verify, "_dfs_masks", [0])
        monkeypatch.setattr(verify, "_bb_values", [0])
        start = time.perf_counter()
        values = [exact_nu(n)[0] for n in range(1, 57)]
        assert values == [exact_nu_bb(n) for n in range(1, 57)]
        assert time.perf_counter() - start < 3.0
        assert values[:48] == KNOWN_NU

    def test_witnesses_to_56_are_unchanged(self):
        # the lexicographically smallest optima for n = 1..56, as found by the
        # search bounded by optima of shorter prefixes alone
        witnesses = [exact_nu(n)[1].elements for n in range(1, 57)]
        assert witnesses[55] == (1, 2, 4, 5, 10, 12, 13, 17, 31, 36, 38, 39, 43, 44,
                                 51, 53, 54, 56)
        assert hashlib.sha256(repr(witnesses).encode()).hexdigest() == (
            "1680ffb9ea1aa17329bb4a16cf0713f2ca7618ac73f1fe7a4a244b1897ad23c5")
