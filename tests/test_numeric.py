import hashlib
import itertools
import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from apfree.codec import APFreeSet, decode_all, encode_all
from apfree.elkin import enumerate_witnesses, filter_survivors
from apfree.errors import (
    ApfreeError,
    CoordOutOfRange,
    DegenerateParameters,
    DigitOutOfRange,
)
from apfree.numeric import (
    ConstructionParams,
    ball_volume,
    behrend_bound,
    default_params,
    derive_dimension,
    elkin_bound,
    eta,
    exact_moments,
    feasibility_gap,
    integer_array,
    max_side,
    radix,
    resolve_params,
)
from apfree.verify import midpoint_free

class TestBallVolume:
    def test_disc(self):
        assert ball_volume(2, 1) == pytest.approx(math.pi, rel=1e-15)

    def test_segment(self):
        assert ball_volume(1, 4) == pytest.approx(4.0, rel=1e-15)

    def test_three_ball(self):
        assert ball_volume(3, 1) == pytest.approx(4 * math.pi / 3, rel=1e-15)

    def test_rejects_bad_dimension(self):
        with pytest.raises(ValueError):
            ball_volume(0, 1.0)
        with pytest.raises(ValueError, match="squared radius must be >= 0"):
            ball_volume(2, -1.0)

    @given(st.integers(min_value=1, max_value=170))
    def test_matches_float_gamma(self, ell):
        assert ball_volume(ell, 1.0) == pytest.approx(
            math.pi ** (ell / 2) / math.gamma(ell / 2 + 1), rel=1e-12
        )

    def test_floats_are_pinned_to_ell_341(self):
        # sha256 of the values (or OverflowError from radius_sq^(ell/2)) taken
        # from the exact-Gamma-type implementation this one replaced
        parts = []
        for ell in range(1, 342):
            for radius_sq in (0, 0.25, 1, 2, 3.5, 10, 17, 100.5, 1234):
                try:
                    parts.append(repr(ball_volume(ell, radius_sq)))
                except OverflowError:
                    parts.append("OverflowError")
        assert hashlib.sha256("\n".join(parts).encode()).hexdigest() == (
            "7730d41e09ab24cf067a24b4e2d9863c2fb73e95dfc18d5abb36e85108ee45ff"
        )

    def test_gamma_past_the_float_range_is_refused_before_any_factorial(self):
        # Gamma(172) = 171! > float max; at 10^7 the factorial would take minutes
        for ell in (342, 400, 10**7):
            start = time.perf_counter()
            with pytest.raises(OverflowError):
                ball_volume(ell, 1.0)
            assert time.perf_counter() - start < 0.1

    def test_dimension_ratio_scales_like_sqrt_t_over_ell(self):
        # beta_ell / beta_(ell-1) shrinks like 1/sqrt(ell).
        for ell in range(2, 51):
            for t in (1.0, 7.0, 100.0):
                ratio = ball_volume(ell, t) / ball_volume(ell - 1, t)
                scale = math.sqrt(t / ell)
                assert 0.1 * scale <= ratio <= 10 * scale


class TestExactMoments:
    def test_k2_y3(self):
        m = exact_moments(2, 3)
        assert m.mu_Z == Fraction(10, 3)
        assert m.var_Z == Fraction(52, 9)
        assert m.sigma_Z == pytest.approx(math.sqrt(52) / 3, rel=1e-15)

    def test_k1_y2(self):
        m = exact_moments(1, 2)
        assert m.mu_Z == Fraction(1, 2) and m.var_Z == Fraction(1, 4)

    def test_k4_y3_mean_scales_linearly(self):
        assert exact_moments(4, 3).mu_Z == Fraction(20, 3)

    @given(st.integers(min_value=1, max_value=4), st.integers(min_value=2, max_value=7))
    @settings(max_examples=40, deadline=None)
    def test_agrees_with_cube_enumeration(self, k, y):
        total = y**k
        sum_sq = 0
        sum_quad = 0
        for v in itertools.product(range(y), repeat=k):
            t = sum(c * c for c in v)
            sum_sq += t
            sum_quad += t * t
        m = exact_moments(k, y)
        assert m.mu_Z == Fraction(sum_sq, total)
        assert m.var_Z == Fraction(sum_quad, total) - Fraction(sum_sq, total) ** 2

    def test_sigma_positive(self):
        for k in range(1, 6):
            for y in range(2, 9):
                assert exact_moments(k, y).sigma_Z > 0

    def test_rejects_bad_k_and_y(self):
        with pytest.raises(ValueError, match="k must be >= 1, got 0"):
            exact_moments(0, 3)
        with pytest.raises(ValueError, match="y must be >= 2, got 1"):
            exact_moments(2, 1)


class TestEta:
    def test_frozen_values(self):
        assert eta(0.05) == pytest.approx(0.34175062318338618, rel=1e-12)
        assert eta(1.0) == pytest.approx(3.4426950408889634, rel=1e-12)
        assert eta(1e-6) == pytest.approx(2.2374265052907457e-05, rel=1e-9)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            eta(0.0)
        with pytest.raises(ValueError):
            eta(-0.1)

    def test_monotone_on_grid(self):
        grid = [10 ** (-6 + 6 * i / 200) for i in range(201)]
        values = [eta(e) for e in grid]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_default_epsilon_is_feasible(self):
        ceiling = 1 - math.log2(math.pi * math.e / 6)
        assert ceiling == pytest.approx(0.49077133035987398, rel=1e-12)
        assert 0.05 + eta(0.05) < ceiling
        assert feasibility_gap(0.05) > 0
        assert feasibility_gap(0.3) < 0


class TestDefaultParams:
    def test_two_to_32(self):
        p = default_params(2**32, "behrend")
        assert (p.k, p.y, p.a) == (8, 8, 2.0)
        # n is an exact power here, so the parameters echo exactly
        assert (2 * p.y) ** p.k == 2**32

    def test_small_n_degenerates(self):
        with pytest.raises(DegenerateParameters):
            default_params(100, "behrend")

    def test_elkin_gets_clamped_width(self):
        p = default_params(2**32, "elkin")
        assert p.g == max(1, math.floor(0.05 * p.k)) == 1

    def test_dimension_formula(self):
        for n, expect in [(2**32, 8), (2**16, 6), (2**50, 10), (10**12, 9)]:
            assert derive_dimension(n) == expect
            assert derive_dimension(n) == math.ceil(math.sqrt(2 * math.log2(n)))

    def test_dimension_is_least_k_with_2_to_k_squared_at_least_n_squared(self):
        ns = set(range(2, 3000))
        for k in range(1, 61):
            edge = math.isqrt(2 ** (k * k))  # n^2 <= 2^(k^2) iff n <= edge
            ns.update(range(max(2, edge - 2), edge + 3))
        for j in range(1, 600):
            ns.update((2**j - 1, 2**j, 2**j + 1))
        rng = random.Random(64)
        ns.update(rng.randrange(2, 2**rng.randrange(2, 800)) for _ in range(2000))
        ns.discard(1)
        for n in ns:
            k = derive_dimension(n)
            assert 2 ** (k * k) >= n * n, n
            assert k == 1 or 2 ** ((k - 1) ** 2) < n * n, n

    @given(st.integers(min_value=10**4, max_value=10**30))
    @settings(max_examples=60, deadline=None)
    def test_encoded_elements_fit_below_n(self, n):
        try:
            p = default_params(n, "behrend")
        except DegenerateParameters:
            return
        assert (2 * p.y) ** p.k <= n < (2 * (p.y + 1)) ** p.k
        assert p.k >= 2 and p.y >= 2

    def test_rejects_unknown_method(self):
        with pytest.raises(ValueError):
            default_params(2**32, "rankin")

    @given(st.sampled_from(["behrend", "elkin"]), st.integers(1, 30), st.integers(2, 60),
           st.none() | st.floats(0.5, 4.0), st.none() | st.floats(0.01, 0.05),
           st.none() | st.integers(1, 9))
    @settings(max_examples=80, deadline=None)
    def test_explicit_cube_takes_its_own_bound(self, method, k, y, a, epsilon, g):
        expected = resolve_params(method, radix(y) ** k, k, y, a, epsilon, g)
        got = resolve_params(method, k=k, y=y, a=a, epsilon=epsilon, g=g)
        assert got == expected and got.n == got.n_effective == (2 * y) ** k

    def test_lone_k_or_y_is_refused(self):
        for kw in ({"k": 3}, {"y": 3}):
            with pytest.raises(ValueError, match="k and y must be given together"):
                resolve_params("behrend", 2**20, **kw)
            with pytest.raises(ValueError, match="k and y must be given together"):
                resolve_params("behrend", **kw)

    def test_no_n_and_no_cube_is_refused(self):
        for method in ("behrend", "elkin"):
            with pytest.raises(ValueError, match="need n"):
                resolve_params(method)


class TestMaxSide:
    @given(st.integers(2, 2**4000), st.integers(2, 200))
    @example(2, 2)
    @example(3, 2)
    @example(4, 2)
    @settings(max_examples=150, deadline=None)
    def test_largest_side_whose_cube_fits(self, n, k):
        y = max_side(n, k)  # below y = 2 the rule reads (2y)^k <= n
        assert (2 * y) ** k <= n < (2 * y + 2) ** k

    @given(st.integers(2, 300), st.integers(2, 200))
    @settings(max_examples=100, deadline=None)
    def test_boundaries(self, y, k):
        edge = radix(y) ** k
        assert max_side(edge, k) == y
        assert max_side(edge - 1, k) == y - 1


class TestConstructionParams:
    def test_rejects_oversized_cube(self):
        with pytest.raises(DegenerateParameters):
            ConstructionParams(n=35, k=2, y=3)
        for k, y in [(1, 2), (2, 3), (8, 8), (9, 10), (40, 7)]:
            n = (2 * y) ** k
            assert ConstructionParams(n=n, k=k, y=y).n_effective == n
            with pytest.raises(DegenerateParameters, match=r"\(2y\)\^k = "):
                ConstructionParams(n=n - 1, k=k, y=y)

    def test_rejects_huge_k_from_bit_lengths(self):
        # (2y)^k would have 2e8 bits, about 2 s to form; the message names its
        # base and exponent
        start = time.perf_counter()
        with pytest.raises(DegenerateParameters, match=r"\(2y\)\^k = 4\^100000000 exceeds"):
            ConstructionParams(n=2**40, k=10**8, y=2)
        assert time.perf_counter() - start < 0.5
        assert ConstructionParams(n=4**20, k=20, y=2).n_effective == 4**20

    @pytest.mark.parametrize("args, kw", [
        ((2.0**20, 3, 4), {}), ((4096, 3.0, 8), {}), ((4096, 3, 8.0), {}),
        ((4096, 3, 8), {"g": 1.5}), ((4096, True, 8), {}), ((4096, 3, 8), {"g": True}),
        (("4096", 3, 8), {}),
    ])
    def test_rejects_non_integer_counts(self, args, kw):
        with pytest.raises(DegenerateParameters, match=r"^[nkyg] must be an integer"):
            ConstructionParams(*args, **kw)

    def test_numpy_integers_are_kept_as_int(self):
        p = ConstructionParams(np.int64(4096), np.int32(3), np.uint8(8), g=np.int64(1))
        assert p == ConstructionParams(4096, 3, 8, g=1)
        assert all(type(v) is int for v in (p.n, p.k, p.y, p.g))

    def test_rejects_small_y(self):
        with pytest.raises(DegenerateParameters):
            ConstructionParams(n=100, k=2, y=1)

    @pytest.mark.parametrize("field", ["a", "epsilon"])
    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_rejects_non_finite_knobs(self, field, value):
        with pytest.raises(DegenerateParameters, match=f"^{field} must be finite"):
            ConstructionParams(n=36, k=2, y=3, **{field: value})

    def test_effective_g_clamps_to_one(self):
        p = ConstructionParams(n=36, k=2, y=3)
        assert p.effective_g() == 1

    def test_effective_g_rejects_infeasible_epsilon(self):
        p = ConstructionParams(n=36, k=2, y=3, epsilon=0.4)
        with pytest.raises(DegenerateParameters):
            p.effective_g()
        # explicit override sidesteps the derivation
        assert ConstructionParams(n=36, k=2, y=3, epsilon=0.4, g=2).effective_g() == 2


class TestBounds:
    def test_ratio_is_sqrt_log(self):
        for n in (2**10, 2**16, 2**20, 2**40):
            ratio = elkin_bound(n) / behrend_bound(n)
            assert ratio == pytest.approx(math.sqrt(math.log2(n)), rel=1e-12)

    def test_ratio_at_2_16_is_4(self):
        assert elkin_bound(2**16) / behrend_bound(2**16) == pytest.approx(4.0, rel=1e-12)

    def test_frozen_values(self):
        # 40-digit arithmetic oracle values
        assert behrend_bound(2**16) == pytest.approx(12.87313472917938699, rel=1e-13)
        assert elkin_bound(2**16) == pytest.approx(51.492538916717547961, rel=1e-13)
        assert behrend_bound(2) == pytest.approx(0.28157143265634893, rel=1e-13)

    def test_past_the_float_range_is_inf(self):
        assert math.isfinite(behrend_bound(2**1100)) and math.isfinite(elkin_bound(2**1100))
        for n in (2**1200, 4**600, 10**10000):
            assert behrend_bound(n) == elkin_bound(n) == math.inf

    def test_rejects_n_below_2(self):
        with pytest.raises(ValueError):
            behrend_bound(1)
        with pytest.raises(ValueError):
            elkin_bound(1)


#: The cube side of the codec calls and the bound of the sets below: past
#: 2^64, so every value drawn is in range for them.
_BIG = 2**70

_UNIT_WITNESSES = enumerate_witnesses(1, 1)


def _rows(spelled):
    """values spelled one way, as the rows of points in one dimension."""
    if isinstance(spelled, np.ndarray):
        return spelled.reshape(-1, 1)
    return [[v] for v in spelled]


#: Each caller of integer_array, on values spelled one way, with the exception
#: it refuses a non-integer with.
_CALLERS = {
    "encode_all": (lambda vs: encode_all(_rows(vs), _BIG, 1), CoordOutOfRange),
    "decode_all": (lambda vs: decode_all(vs, 1, _BIG).tolist(), DigitOutOfRange),
    "APFreeSet": (lambda vs: APFreeSet(n=_BIG, elements=vs, method="external"),
                  ValueError),
    "midpoint_free": (midpoint_free, ValueError),
    "filter_survivors": (lambda vs: filter_survivors(_rows(vs), _UNIT_WITNESSES, 1),
                         CoordOutOfRange),
}

_WIDTHS = (np.int8, np.int16, np.int32, np.int64,
           np.uint8, np.uint16, np.uint32, np.uint64)


def _integer_spellings(values):
    """values as Python ints, as an object array, and as the numpy ints (each
    scalar, and an array) of every width that holds them all."""
    spellings = [list(values), np.array(values, dtype=object)]
    for dtype in _WIDTHS:
        if values[-1] <= np.iinfo(dtype).max:
            spellings += [[dtype(v) for v in values], np.array(values, dtype=dtype)]
    return spellings


def _non_integer_spellings(values, at):
    """values with the one at index at spelled as no integer, and all of them
    as a float array and as a bool array."""
    v = values[at]
    bad = (float(v), v + 0.5, np.float64(v), True, np.bool_(True), str(v), None)
    return ([values[:at] + [b] + values[at + 1 :] for b in bad]
            + [np.array(values, dtype=float), np.array(values, dtype=bool)])


def _outcome(call, spelled):
    """What call returns on spelled, or the type of the refusal it raises."""
    try:
        return call(spelled)
    except (ApfreeError, ValueError) as exc:
        return type(exc)


class TestIntegerArray:
    def test_integer_arrays_up_to_int64_pass_uncopied(self):
        for dtype in _WIDTHS[:-1]:
            values = np.arange(6, dtype=dtype).reshape(3, 2)
            assert integer_array(values, ValueError, "values") is values
        walked = integer_array(np.array([1, 2**63], dtype=np.uint64), ValueError, "v")
        assert walked.dtype == object and walked.tolist() == [1, 2**63]

    @given(values=st.lists(st.one_of(st.integers(1, 127), st.integers(1, 2**63 - 1),
                                     st.integers(2**63, 2**64 - 1),
                                     st.integers(2**64, _BIG - 1)),
                           min_size=1, max_size=5, unique=True).map(sorted),
           at=st.integers(0, 4))
    @settings(max_examples=60, deadline=None)
    def test_each_caller_accepts_exactly_the_integer_spellings(self, values, at):
        # ints past 2^64 and uint64 past 2^63 are integers: a caller may refuse
        # them only for their range, as it does when they are Python ints
        at %= len(values)
        for name, (call, error) in _CALLERS.items():
            expected = _outcome(call, list(values))
            for spelled in _integer_spellings(values):
                assert _outcome(call, spelled) == expected, (name, spelled)
            for spelled in _non_integer_spellings(values, at):
                with pytest.raises(error, match="must be integers") as info:
                    call(spelled)
                assert type(info.value) is error, (name, spelled)
