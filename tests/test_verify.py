import itertools
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apfree.behrend import construct_behrend
from apfree.errors import BudgetExceeded
from apfree.lattice import ShellSelection, shell_members
from apfree.numeric import ConstructionParams
from apfree.verify import (
    VerificationReport,
    _convexly_independent_exact,
    convexly_independent,
    exact_nu,
    exact_nu_bb,
    midpoint_free,
)


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

    @given(point_lists())
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
        with pytest.raises(BudgetExceeded):
            exact_nu(65)
        with pytest.raises(ValueError):
            exact_nu(0)


class TestOracleAgreement:
    def test_bb_examples(self):
        assert exact_nu_bb(4) == 3
        assert exact_nu_bb(8) == 4

    def test_agreement_to_30(self):
        for n in range(1, 31):
            assert exact_nu(n)[0] == exact_nu_bb(n)

    def test_bb_budget(self):
        with pytest.raises(BudgetExceeded):
            exact_nu_bb(121)

    def test_construction_never_beats_optimum(self):
        for k, y in [(1, 2), (2, 2), (2, 3)]:
            artifact = construct_behrend(ConstructionParams(n=(2 * y) ** k, k=k, y=y))
            nu_value, _ = exact_nu((2 * y) ** k)
            assert artifact.set.size <= nu_value
