import dataclasses
import itertools
import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apfree import elkin, lattice
from apfree.behrend import construct_behrend
from apfree.codec import APFreeSet, decode_all, encode_all
from apfree.elkin import (
    construct_elkin,
    dhat_bound_check,
    enumerate_witnesses,
    filter_survivors,
)
from apfree.errors import BudgetExceeded
from apfree.lattice import shell_members, shell_points
from apfree.numeric import ConstructionParams, eta, resolve_params
from apfree.verify import convexly_independent, midpoint_free


def params_for(k, y, g):
    return ConstructionParams(n=(2 * y) ** k, k=k, y=y, g=g)


def brute_witnesses(k: int, g: int) -> set[tuple[int, ...]]:
    root = math.isqrt(g)
    return {
        v
        for v in itertools.product(range(-root, root + 1), repeat=k)
        if 0 < sum(c * c for c in v) <= g
    }


def witness_set(k: int, g: int) -> set[tuple[int, ...]]:
    return set(map(tuple, enumerate_witnesses(k, g).tolist()))


def rows_of(points) -> list[tuple[int, ...]]:
    return list(map(tuple, points.tolist()))


def survivors_of(art) -> np.ndarray:
    """The survivors behind an artifact's set, rows in code order."""
    return decode_all(art.set.elements, art.params.k, art.params.y)


def has_witness_brute(coords, k, g) -> bool:
    """Independent certificate pass: scan every delta by direct product."""
    root = math.isqrt(g)
    for delta in itertools.product(range(-root, root + 1), repeat=k):
        norm = sum(d * d for d in delta)
        if not 0 < norm <= g:
            continue
        dot = sum(c * d for c, d in zip(coords, delta))
        if 0 <= dot <= g:
            return True
    return False


class TestEnumerateWitnesses:
    def test_k2_g1(self):
        deltas = witness_set(2, 1)
        assert deltas == {(-1, 0), (0, -1), (0, 1), (1, 0)}

    def test_k2_g2_adds_diagonals(self):
        assert len(enumerate_witnesses(2, 2)) == 8

    def test_k1_g1(self):
        assert witness_set(1, 1) == {(-1,), (1,)}

    def test_norms_are_recorded(self):
        for w in enumerate_witnesses(3, 4).tolist():
            assert 1 <= sum(c * c for c in w) <= 4

    @given(st.integers(min_value=1, max_value=4), st.integers(min_value=1, max_value=5))
    @settings(max_examples=30, deadline=None)
    def test_matches_brute_product(self, k, g):
        assert witness_set(k, g) == brute_witnesses(k, g)

    def test_lexicographic_order_and_sign_symmetry(self):
        for k in range(1, 7):
            for g in range(1, 6):
                w = enumerate_witnesses(k, g)
                assert w.dtype == np.int64 and w.shape == (len(w), k)
                root = math.isqrt(g)
                brute = [v for v in itertools.product(range(-root, root + 1), repeat=k)
                         if 0 < sum(c * c for c in v) <= g]
                assert rows_of(w) == brute, (k, g)
                assert np.array_equal(w[::-1], -w), (k, g)

    def test_count_is_even(self):
        for k in (1, 2, 3, 7, 15):
            for g in (1, 2, 3):
                assert len(enumerate_witnesses(k, g)) % 2 == 0

    def test_nonzero_entries_at_most_norm(self):
        for w in enumerate_witnesses(4, 3).tolist():
            assert sum(1 for c in w if c) <= sum(c * c for c in w)

    def test_budget(self):
        with pytest.raises(BudgetExceeded):
            enumerate_witnesses(200, 8, budget=10**4)

    def test_budget_is_checked_against_the_exact_count(self):
        # k=10, g=3 has 1,160 witnesses; the walk is priced at (1160 + 1) * 3 * 10
        # cells, above the 25,074 of the count DP that prices it
        assert len(enumerate_witnesses(10, 3, budget=34830)) == 1160
        with pytest.raises(BudgetExceeded, match="34830 cells for 1160 witnesses"):
            enumerate_witnesses(10, 3, budget=34829)

    def test_walk_memory_is_refused_before_the_walk(self):
        # 43.1M witnesses pass a count check at the default budget, but the
        # walk's last level would hold 6.5e9 int64 cells.
        start = time.perf_counter()
        with pytest.raises(BudgetExceeded, match="cells"):
            enumerate_witnesses(30, 6)
        assert time.perf_counter() - start < 1.0

    def test_dp_count_equals_enumeration(self):
        for k in range(1, 9):
            for g in range(1, 11):
                check = dhat_bound_check(k, g)
                assert check.enumerated == len(enumerate_witnesses(k, g)), (k, g)


class TestFilterSurvivors:
    def test_interior_point_survives(self):
        witnesses = enumerate_witnesses(2, 1)
        survivors, removed = filter_survivors([(3, 3)], witnesses, 1)
        assert survivors == [(3, 3)] and removed == 0

    def test_boundary_point_removed(self):
        witnesses = enumerate_witnesses(2, 1)
        survivors, removed = filter_survivors([(0, 3)], witnesses, 1)
        assert survivors == [] and removed == 1

    def test_empty_input(self):
        assert filter_survivors([], enumerate_witnesses(2, 1), 1) == ([], 0)
        point = (0, 3)
        assert filter_survivors([point], [], 1) == ([point], 0)

    def test_preserves_input_order(self):
        pts = [(5, 2), (2, 5), (3, 4)]
        survivors, _ = filter_survivors(pts, enumerate_witnesses(2, 1), 1)
        assert survivors == [p for p in pts if p in survivors]

    @given(
        st.integers(min_value=1, max_value=3),
        st.integers(min_value=1, max_value=3),
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=9),
                st.integers(min_value=0, max_value=9),
                st.integers(min_value=0, max_value=9),
            ),
            max_size=12,
        ),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_brute_certificate_scan(self, k, g, raw_points):
        pts = [p[:k] for p in raw_points]
        witnesses = enumerate_witnesses(k, g)
        survivors, removed = filter_survivors(pts, witnesses, g)
        expected = [p for p in pts if not has_witness_brute(p, k, g)]
        assert survivors == expected
        assert removed == len(pts) - len(expected)


class TestConstructElkin:
    def test_k2_y3_g1_filter_empties(self):
        art = construct_elkin(params_for(2, 3, 1))
        assert (art.shell.t_low, art.shell.t_high) == (1, 1)
        assert art.annulus_points == 2
        assert art.is_empty and art.removed == 2
        assert art.set.size == 0

    def test_k2_y8_g1_survivors_have_large_coords(self):
        art = construct_elkin(params_for(2, 8, 1))
        assert not art.is_empty
        for v in survivors_of(art).tolist():
            assert all(c >= 2 for c in v)
            assert not has_witness_brute(v, 2, 1)

    def test_survivors_are_convexly_independent(self):
        # The lemma the construction rests on: a point without a certificate
        # is an extreme point of the ball, so none lies between two others.
        # The 2^28 reference run, then small g = 1 cubes with survivors.
        cases = [resolve_params("elkin", 2**28)]
        cases += [params_for(k, y, 1) for k, y in [(3, 10), (4, 8), (5, 6), (6, 6)]]
        sizes = []
        for params in cases:
            art = construct_elkin(params)
            sizes.append(art.set.size)
            assert convexly_independent(survivors_of(art))
        assert sizes == [56, 15, 24, 30, 60]

    def test_small_y_always_empties(self):
        # every coordinate is <= y-1 <= g, so +-e_i certificates hit all points
        for k, y, g in [(2, 2, 1), (3, 2, 2), (2, 3, 2)]:
            art = construct_elkin(params_for(k, y, g))
            assert art.is_empty

    def test_census_balances(self):
        for k, y, g in [(2, 8, 1), (3, 5, 2), (4, 4, 1)]:
            art = construct_elkin(params_for(k, y, g))
            survivors = survivors_of(art)
            assert len(survivors) + art.removed == art.annulus_points
            assert art.set.size == len(survivors)

    def test_survivors_reverified_by_independent_pass(self):
        nonempty = 0
        for k, y, g in [(2, 8, 1), (3, 8, 1), (2, 10, 1)]:
            art = construct_elkin(params_for(k, y, g))
            nonempty += not art.is_empty
            for v in survivors_of(art).tolist():
                assert not has_witness_brute(v, k, g)
        assert nonempty == 3  # these parameters are known to keep survivors

    def test_no_vector_midpoints_among_survivors(self):
        art = construct_elkin(params_for(3, 8, 1))
        rows = rows_of(survivors_of(art))
        assert len(rows) >= 3
        table = set(rows)
        for u, w in itertools.combinations(rows, 2):
            s = tuple(a + b for a, b in zip(u, w))
            if all(c % 2 == 0 for c in s):
                assert tuple(c // 2 for c in s) not in table or (
                    tuple(c // 2 for c in s) in (u, w)
                )

    def test_encoded_set_is_midpoint_free(self):
        for k, y, g in [(2, 8, 1), (3, 8, 1), (2, 10, 1), (3, 6, 2)]:
            art = construct_elkin(params_for(k, y, g))
            assert midpoint_free(art.set).ok

    def test_survivor_fraction(self):
        art = construct_elkin(params_for(2, 8, 1))
        assert art.survivor_fraction == pytest.approx(
            len(survivors_of(art)) / art.annulus_points
        )
        assert construct_elkin(params_for(2, 2, 1)).survivor_fraction == 0.0

    def test_survivors_equal_filter_of_shell_members(self):
        for k, y, g in [(2, 8, 1), (3, 8, 1), (3, 6, 2), (4, 4, 1), (2, 3, 1)]:
            art = construct_elkin(params_for(k, y, g))
            members = shell_members(k, y, art.shell)
            survivors, removed = filter_survivors(members, enumerate_witnesses(k, g), g)
            assert sorted(rows_of(survivors_of(art))) == survivors
            assert (art.annulus_points, art.removed) == (len(members), removed)

    @given(st.integers(min_value=1, max_value=8).flatmap(
        lambda k: st.tuples(
            st.just(k),
            # y^k <= 5*10^4; y <= 40 keeps the k = 1 census within the budget
            st.integers(min_value=2, max_value=min(40, math.floor(5e4 ** (1 / k)))),
            st.integers(min_value=1, max_value=5),
        )))
    @settings(max_examples=60, deadline=None)
    def test_sub_cube_prune_equals_full_filter(self, kyg):
        k, y, g = kyg
        art = construct_elkin(params_for(k, y, g))
        members = shell_members(k, y, art.shell)
        survivors, removed = filter_survivors(members, enumerate_witnesses(k, g), g)
        assert sorted(rows_of(survivors_of(art))) == survivors
        assert (art.annulus_points, art.removed) == (len(members), removed)

    def test_certificates_are_tested_once_on_whole_sub_cubes(self, monkeypatch):
        # Oracle from itertools alone: every witness, one-sided, on every point
        # of [g+1, y-1]^k.  The sign-pure witnesses certify none of them, and
        # the two-sided test on the mixed half construct_elkin passes to the
        # filter gives the same mask.  Here the filter is handed the whole
        # sub-cube, so it runs once when that is nonempty and never otherwise.
        tested = []

        def spy(points, deltas, g):
            tested.append(deltas)
            return uncertified(points, deltas, g)

        uncertified = elkin._uncertified
        monkeypatch.setattr(elkin, "_uncertified", spy)
        monkeypatch.setattr(lattice, "shell_points", lambda *args, **kw: cube)
        for k in range(1, 6):
            for g in range(1, 6):
                deltas = sorted(brute_witnesses(k, g))
                mixed = {d for d in deltas if min(d) < 0 < max(d)}
                first_positive = {d for d in mixed if next(c for c in d if c) > 0}
                for y in range(2, 9):
                    cube = np.array(list(itertools.product(range(g + 1, y), repeat=k)),
                                    dtype=np.int64).reshape(-1, k)
                    tested.clear()
                    construct_elkin(params_for(k, y, g))
                    if not len(cube):  # y <= g + 1: nothing to test
                        assert tested == [], (k, y, g)
                        continue
                    (half,) = tested
                    assert sorted(rows_of(half)) == sorted(first_positive), (k, g)
                    dots = cube @ np.array(deltas, dtype=np.int64).reshape(-1, k).T
                    certified = (dots >= 0) & (dots <= g)
                    pure = [min(d) >= 0 or max(d) <= 0 for d in deltas]
                    assert not certified[:, pure].any(), (k, y, g)
                    assert (uncertified(cube, half, g) == ~certified.any(axis=1)).all()

    @pytest.mark.parametrize("k,y,g", [(3, 100, 9), (3, 150, 6)])
    def test_byte_rows_equal_int64_rows(self, monkeypatch, k, y, g):
        # Certificate dot products pass 255 here (up to 267 and 334), so a
        # product formed in the rows' own byte dtype would wrap.
        params = params_for(k, y, g)
        byte_art = construct_elkin(params)
        rows = []

        def int64_points(*args, **kw):
            rows.append(shell_points(*args, **kw))
            return rows[-1].astype(np.int64)

        monkeypatch.setattr(lattice, "shell_points", int64_points)
        assert construct_elkin(params) == byte_art
        assert rows[0].dtype == np.uint8 and byte_art.set.size > 0
        witnesses = enumerate_witnesses(k, g)
        half = witnesses[len(witnesses) // 2 :]
        tested = half[(half < 0).any(axis=1)]  # the rows construct_elkin tests
        assert np.abs(rows[0].astype(np.int64) @ tested.T).max() > 255

    def test_empty_when_y_leaves_no_room_for_gaps_above_g(self):
        # For g >= 2 the witnesses e_i - e_j force k distinct coordinates in
        # [g+1, y-1] with pairwise gaps above g, which needs y > (g+1)*k.
        for k in range(1, 6):
            for g in range(2, 6):
                for y in range(2, (g + 1) * k + 1):
                    if y**k > 2 * 10**5:
                        break
                    assert construct_elkin(params_for(k, y, g)).is_empty, (k, y, g)

    def test_unit_removed_counts_points_with_a_small_coordinate(self):
        for k, y, g in [(2, 8, 1), (3, 8, 2), (3, 6, 2), (4, 5, 3), (2, 10, 4)]:
            art = construct_elkin(params_for(k, y, g))
            members = shell_members(k, y, art.shell)
            assert art.unit_removed == sum(min(v) <= g for v in members)
            assert art.unit_removed <= art.removed

    def test_unit_witnesses_remove_everything_removed_when_g_is_1(self):
        for k, y in [(2, 8), (3, 8), (4, 4), (8, 5)]:
            art = construct_elkin(params_for(k, y, 1))
            assert art.unit_removed == art.removed

    def test_empty_sub_cube_skips_the_scan(self):
        # y <= g + 1: the cube has 3^14 = 4,782,969 points, the sub-cube none.
        start = time.perf_counter()
        art = construct_elkin(params_for(14, 3, 2))
        assert time.perf_counter() - start < 1.0
        assert art.is_empty and art.annulus_points == 588_952
        assert art.removed == art.unit_removed == 588_952

    def test_oversized_cube_is_refused_before_the_census(self, monkeypatch):
        def tripwire(*args):
            raise AssertionError("the census ran")

        monkeypatch.setattr(lattice, "build_histogram", tripwire)
        start = time.perf_counter()
        with pytest.raises(BudgetExceeded, match="enumeration budget"):
            construct_elkin(params_for(10, 10, 1), budget=10**6)
        assert time.perf_counter() - start < 1.0
        # The patch is live: a budget that admits y^k = 10^10 reaches the census
        # (were it not, the scan of 10^10 points would fail the test at once).
        monkeypatch.setattr(lattice, "shell_points", lambda *args: pytest.fail("scanned"))
        with pytest.raises(AssertionError, match="the census ran"):
            construct_elkin(params_for(10, 10, 1), budget=10**10)

    def test_dot_products_are_refused_before_the_filter(self, monkeypatch):
        # For every (k, y, g) searched (y^k <= 2*10^6, g <= 11) the cube,
        # census or witness check binds before the dot products, so the
        # witness list is padded with +- pairs of a mixed-sign vector.  The
        # filter tests it, and on [2, 7]^3 its dot products are at least 3,
        # so it changes no survivor.
        k, y, g = 3, 8, 1
        points = len(survivors_of(construct_elkin(params_for(k, y, g))))  # g = 1: all
        tested = np.tile([5, -1, 0], (10**4 // points + 1, 1))
        padded = np.concatenate((-tested, tested))  # row i is minus row M-1-i
        dots = points * len(tested)
        monkeypatch.setattr(elkin, "enumerate_witnesses", lambda *args: padded)
        assert len(survivors_of(construct_elkin(params_for(k, y, g), budget=dots))) > 0

        def filter_ran(*args):
            raise AssertionError("the certificate filter ran")

        monkeypatch.setattr(elkin, "_uncertified", filter_ran)
        start = time.perf_counter()
        with pytest.raises(BudgetExceeded, match="dot products"):
            construct_elkin(params_for(k, y, g), budget=dots - 1)
        assert time.perf_counter() - start < 1.0

    def test_empty_sub_cube_enumerates_no_witness(self, monkeypatch):
        # [7, 1]^26 is empty; the 17,166,084 witnesses of k=26, g=6 would need
        # a walk of 2.2e9 cells, refused by the budget if it ran.
        def walk(*args):
            raise AssertionError("the witnesses were enumerated")

        monkeypatch.setattr(elkin, "enumerate_witnesses", walk)
        start = time.perf_counter()
        art = construct_elkin(params_for(26, 2, 6))
        assert time.perf_counter() - start < 1.0
        assert art.is_empty and art.removed == art.unit_removed == art.annulus_points

    def test_artifact_holds_the_set_once(self):
        art = construct_elkin(params_for(3, 8, 1))
        fields = [f.name for f in dataclasses.fields(art)]
        assert fields == ["params", "shell", "annulus_points", "removed",
                          "unit_removed", "set"]
        assert not any(isinstance(getattr(art, f), np.ndarray) for f in fields)

    def test_derives_g_when_unset(self):
        art = construct_elkin(ConstructionParams(n=6**4, k=4, y=3))
        assert art.params.effective_g() == 1

    def test_thread_counts_agree(self):
        base = construct_elkin(params_for(3, 8, 1), threads=1)
        assert not base.is_empty
        for threads in (2, 8):
            assert construct_elkin(params_for(3, 8, 1), threads=threads).set.elements \
                == base.set.elements


class TestDhatBoundCheck:
    def test_k20_eps005(self):
        check = dhat_bound_check(20, 1, 0.05)
        assert check.enumerated == 40
        assert check.bound == pytest.approx(2 * 2 ** (eta(0.05) * 20), rel=1e-12)
        assert check.ok

    def test_k1_clamped(self):
        check = dhat_bound_check(1, 1)
        assert check.enumerated == 2
        assert check.bound == pytest.approx(2 * 2 ** eta(1.0), rel=1e-12)
        assert check.ok

    def test_k2_g2(self):
        check = dhat_bound_check(2, 2)
        assert check.enumerated == 8 and check.ok

    def test_budget_is_passed_on(self):
        with pytest.raises(BudgetExceeded):
            dhat_bound_check(4, 2, budget=1)
        # the count DP for k=4, g=2 reads 1 + 2 + 3 + 3 cells (round j reads
        # the min(j + 1, g + 1) reachable norms), copies k * (g+1) = 12 and
        # is charged k * 2500 for its rounds: 10,021
        assert dhat_bound_check(4, 2, budget=10021).enumerated == 32
        with pytest.raises(BudgetExceeded):
            dhat_bound_check(4, 2, budget=10020)

    def test_large_k_is_counted_not_enumerated(self, monkeypatch):
        def tripwire(*args):
            raise AssertionError("witnesses were enumerated")

        monkeypatch.setattr(elkin, "enumerate_witnesses", tripwire)
        # coefficients up to x^8 of (1 + 2x + 2x^4)^200, minus the origin
        poly = [1]
        for _ in range(200):
            poly = [sum(c * (poly[d - s] if 0 <= d - s < len(poly) else 0)
                        for s, c in ((0, 1), (1, 2), (4, 2))) for d in range(9)]
        start = time.perf_counter()
        check = dhat_bound_check(200, 8)
        assert time.perf_counter() - start < 1.0
        assert check.enumerated == sum(poly) - 1 == 14403447950873280

    def test_permutation_invariance(self):
        # the witness set is closed under coordinate permutation
        witnesses = witness_set(3, 2)
        for perm in itertools.permutations(range(3)):
            assert {tuple(d[i] for i in perm) for d in witnesses} == witnesses


class TestListEdge:
    """The public functions that hand points to Python callers return plain
    lists and tuples, whose truth value is defined, and a set's elements
    compare, hash and test like the equal tuple.  perfbench/trace_pipeline.py
    depends on this: it tests `if survivors` (line 174), compares
    `elements != built.set.elements` (line 198) and
    `tuple(sorted(encode_all(...))) != apset.elements` (line 226), and tests
    `not apset.elements` (line 215), each of which raises ValueError on a
    bare numpy array."""

    @staticmethod
    def _replica_reads(elements, codes: tuple) -> None:
        rebuilt = APFreeSet(n=max(codes), elements=codes, method="external").elements
        for unequal in (elements != rebuilt, codes != elements, elements != codes):
            assert unequal is False
        assert elements == codes and codes == elements and elements == rebuilt
        assert hash(elements) == hash(codes) == hash(rebuilt)
        assert (not elements) is False

    def test_elkin_edge_types_and_replica_agreement(self):
        k, y, g = 3, 8, 1
        art = construct_elkin(params_for(k, y, g))
        members = shell_members(k, y, art.shell)
        assert type(members) is list
        assert all(type(v) is tuple and all(type(c) is int for c in v) for v in members)
        survivors, _ = filter_survivors(members, enumerate_witnesses(k, g), g)
        assert type(survivors) is list and survivors
        assert all(type(v) is tuple for v in survivors)
        self._replica_reads(art.set.elements, tuple(sorted(encode_all(survivors, y, k))))

    def test_behrend_edge_types(self):
        art = construct_behrend(ConstructionParams(n=8**3, k=3, y=4))
        members = shell_members(3, 4, art.shell)
        assert type(members) is list and all(type(v) is tuple for v in members)
        self._replica_reads(art.set.elements, tuple(sorted(encode_all(members, 4, 3))))

    def test_empty_edges_are_falsy(self):
        art = construct_elkin(params_for(2, 3, 1))
        members = shell_members(2, 3, art.shell)
        survivors, removed = filter_survivors(members, enumerate_witnesses(2, 1), 1)
        assert survivors == [] and not survivors and removed == len(members)
        assert art.set.elements == () and not art.set.elements
        assert (art.set.elements != ()) is False and hash(art.set.elements) == hash(())
