"""Exact and floating-point numerics behind the constructions.

Everything that is a closed formula lives here: ball volumes with an exact
Gamma factor, the exact first two moments of the squared norm of a uniform
random cube vector, the witness-count exponent eta(epsilon), the classical
and improved density comparators, the digit map's radix, its fit test and
the power guard beneath it, and a run's parameters: (k, y) derived from a
target interval bound n, and the knobs resolved once for both methods.  One gate,
integer_array, checks every integer array the package is handed: no float or bool.

Moments are kept as exact rationals.  For Y uniform on {0..y-1}:

    E[Y^2] = (y-1)(2y-1)/6
    E[Y^4] = (y-1)(2y-1)(3y^2 - 3y - 1)/30

so Z = sum of k independent Y_i^2 has mu_Z = k*E[Y^2] and
var_Z = k*(E[Y^4] - E[Y^2]^2) exactly.  Logarithms are base 2 throughout.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from .errors import DegenerateParameters

#: Default epsilon for the annulus construction, chosen well inside the
#: feasibility window eps + eta(eps) < 1 - log2(pi*e/6) ~ 0.4908.
DEFAULT_EPSILON = 0.05

#: Default Chebyshev multiplier for the sphere-shell construction.
DEFAULT_CHEBYSHEV_A = 2.0


def int_dtype(bound: int):
    """The numpy dtype for exact integers below bound: int64 while bound < 2^62,
    Python ints (object dtype) otherwise, so sums of a few stay exact."""
    return np.int64 if bound < 2**62 else object


def integer_array(values, error: type[Exception], what: str) -> np.ndarray:
    """values as an array of exact integers, or error(f"{what} must be integers, ...").

    An int64 or narrower integer array (or what __array__ gives) is returned as
    it is, with no copy and no pass; anything else is checked element by element
    and held in int_dtype of its largest magnitude.  No float or bool passes.
    """
    if hasattr(values, "__array__"):  # an ndarray, or a set's elements
        values = np.asarray(values)
        if values.dtype.kind in "iu" and np.can_cast(values.dtype, np.int64):
            return values
    cells = np.array(values, dtype=object)
    items = cells.ravel().tolist()
    kinds = set(map(type, items))
    bad = {t for t in kinds if t is bool or not issubclass(t, numbers.Integral)}
    if bad:
        culprit = next(v for v in items if type(v) in bad)
        raise error(f"{what} must be integers, got {culprit!r:.40}")
    if kinds - {int}:  # numpy ints, held as Python ints
        items = list(map(int, items))
        cells = np.array(items, dtype=object).reshape(cells.shape)
    return cells.astype(int_dtype(max(map(abs, items), default=0)), copy=False)


def ball_volume(ell: int, radius_sq: float) -> float:
    """Volume of the ell-dimensional ball with squared radius radius_sq.

    beta_ell * radius_sq^(ell/2) with beta_ell = pi^(ell/2) / Gamma(ell/2 + 1).
    For h = ell // 2, Gamma(ell/2 + 1) is h! for even ell and, for odd ell,
    (2h+2)! / (4^(h+1) (h+1)!) times a sqrt(pi) that cancels exactly.  From
    ell = 342 on, Gamma(ell/2 + 1) >= 171! is past the float range: that
    OverflowError is raised from lgamma, before any factorial is formed.
    """
    if ell < 1:
        raise ValueError(f"dimension must be >= 1, got {ell}")
    if radius_sq < 0:
        raise ValueError(f"squared radius must be >= 0, got {radius_sq}")
    if math.lgamma(ell / 2 + 1) - 1 > math.log(sys.float_info.max):  # e > sqrt(pi)
        raise OverflowError(f"Gamma({ell}/2 + 1) exceeds the float range")
    h = ell // 2
    gamma = (Fraction(math.factorial(2 * h + 2), 4 ** (h + 1) * math.factorial(h + 1))
             if ell % 2 else math.factorial(h))
    return math.pi**h / float(gamma) * radius_sq ** (ell / 2)


@dataclass(frozen=True)
class MomentSummary:
    """Exact mean/variance of the squared norm over the discrete cube."""

    mu_Z: Fraction
    var_Z: Fraction

    @property
    def sigma_Z(self) -> float:
        return math.sqrt(float(self.var_Z))


def exact_moments(k: int, y: int) -> MomentSummary:
    """Exact moments of Z = ||v||^2 for v uniform on the cube [0, y-1]^k."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if y < 2:
        raise ValueError(f"y must be >= 2, got {y}")
    ey2 = Fraction((y - 1) * (2 * y - 1), 6)
    ey4 = Fraction((y - 1) * (2 * y - 1) * (3 * y * y - 3 * y - 1), 30)
    return MomentSummary(mu_Z=k * ey2, var_Z=k * (ey4 - ey2 * ey2))


def eta(epsilon: float) -> float:
    """Witness-count exponent: eps * (log2(2e) + log2(1 + 1/eps)).

    Monotone increasing in epsilon with limit 0 as eps -> 0; the number of
    nonzero integer vectors with squared norm <= eps*k is at most
    2 * 2^(eta(eps) * k).
    """
    if epsilon <= 0:
        raise ValueError(f"epsilon must be > 0, got {epsilon}")
    return epsilon * (math.log2(2 * math.e) + math.log2(1 + 1 / epsilon))


def feasibility_gap(epsilon: float) -> float:
    """Slack of eps + eta(eps) below 1 - log2(pi*e/6); positive means feasible."""
    return (1 - math.log2(math.pi * math.e / 6)) - (epsilon + eta(epsilon))


def radix(y: int) -> int:
    """The base of the digit map, 2y, for the cube [0, y-1]^k.

    A point's code is sum_i v_i * radix(y)^i, its k coordinates as
    little-endian digits; fits decides whether the codes lie in [1, n].  Digits
    below y add without carries in any base of at least 2y - 1, so codes
    a + c = 2b iff points a + c = 2b, coordinate by coordinate (Behrend's
    map).  y < 2 is refused here, before any power of the radix is formed.
    """
    if y < 2:
        raise DegenerateParameters(f"y must be >= 2, got {y}")
    return 2 * y


def exceeds(base: int, k: int, bound: int) -> bool:
    """base^k > bound, for base >= 0 and k >= 0.  From bit lengths first:
    base^k >= 2^(k (bits(base) - 1)), so no power is formed past about bound^2."""
    return k * (base.bit_length() - 1) >= bound.bit_length() or base**k > bound


def fits(n: int, k: int, y: int) -> bool:
    """The one fit test: the codes of [0, y-1]^k lie in [1, n] iff radix(y)^k <= n."""
    return not exceeds(radix(y), k, n)


def max_side(n: int, k: int) -> int:
    """The largest y with fits(n, k, y), exact for any n >= 2 and k >= 2; below
    the least side 2 the rule reads (2y)^k <= n: 1 if 2^k <= n, else 0."""
    if not fits(n, k, 2):
        return int(not exceeds(2, k, n))
    lo, hi = 2, 1 << (n.bit_length() // k + 1)  # radix(hi)^k >= hi^k > n
    while lo < hi - 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if fits(n, k, mid) else (lo, mid)
    return lo


@dataclass(frozen=True)
class ConstructionParams:
    """Parameters governing one construction run.

    n is the target interval bound (arbitrary precision), k the dimension,
    y the cube side, whose codes must fit: fits(n, k, y).  a is the
    Chebyshev multiplier of the sphere-shell method; epsilon and g drive the
    annulus method.  g is None until derived or overridden.  n, k, y and g
    are integers, numpy ones kept as int; a float or a bool is refused.
    """

    n: int
    k: int
    y: int
    a: float = DEFAULT_CHEBYSHEV_A
    epsilon: float = DEFAULT_EPSILON
    g: int | None = None

    def __post_init__(self) -> None:
        for name in ("n", "k", "y", "g"):
            value = getattr(self, name)
            if name == "g" and value is None:
                continue
            # a float would be truncated or reach the pipeline; a bool is no count
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise DegenerateParameters(f"{name} must be an integer, got {value!r:.40}")
            object.__setattr__(self, name, int(value))  # numpy integers too
        if self.k < 1:
            raise DegenerateParameters(f"k must be >= 1, got {self.k}")
        if not fits(self.n, self.k, self.y):
            raise DegenerateParameters(
                f"(2y)^k = {radix(self.y)}^{self.k} exceeds n = {self.n}")
        if not 0 < self.a < math.inf:
            raise DegenerateParameters(f"a must be finite and > 0, got {self.a}")
        if not 0 < self.epsilon < math.inf:
            raise DegenerateParameters(
                f"epsilon must be finite and > 0, got {self.epsilon}"
            )
        if self.g is not None and self.g < 1:
            raise DegenerateParameters(f"g must be >= 1, got {self.g}")

    @property
    def n_effective(self) -> int:
        """The cube's code bound radix(y)^k, which n must reach; equals n for
        exact powers."""
        return radix(self.y) ** self.k

    def effective_g(self) -> int:
        """The annulus squared-width: the override if set, else max(1, floor(eps*k)).

        When g is derived from epsilon, epsilon must sit inside the
        feasibility window eps + eta(eps) < 1 - log2(pi*e/6).
        """
        if self.g is not None:
            return self.g
        if feasibility_gap(self.epsilon) <= 0:
            raise DegenerateParameters(
                f"epsilon = {self.epsilon} violates eps + eta(eps) < 1 - log2(pi*e/6); "
                "pass g explicitly to override"
            )
        return max(1, math.floor(self.epsilon * self.k))


def derive_dimension(n: int) -> int:
    """ceil(sqrt(2 * log2(n))), exact: the smallest k with 2^(k^2) >= n^2."""
    if n < 2:
        raise DegenerateParameters(f"n must be >= 2, got {n}")
    # 2^(k^2) >= n^2 iff k^2 >= ceil(log2(n^2)) = (n^2 - 1).bit_length()
    return math.isqrt((n * n - 1).bit_length() - 1) + 1


def resolve_params(
    method: str, n: int | None = None, k: int | None = None, y: int | None = None,
    a: float | None = None, epsilon: float | None = None, g: int | None = None,
) -> ConstructionParams:
    """The parameters of one run, for both methods and every caller.

    Without k and y, k = ceil(sqrt(2 log2 n)) (always >= 2) and y = max_side(n, k),
    DegenerateParameters if y < 2; with them n defaults to the cube's own bound
    n_effective.  One of them alone, or none of n, k and y, is a ValueError.
    Unset knobs keep their field defaults; the annulus method carries
    g = effective_g().
    """
    method = method.lower()
    if method not in ("behrend", "elkin"):
        raise ValueError(f"unknown method {method!r}")
    if (k is None) != (y is None):
        raise ValueError(f"k and y must be given together, got k={k}, y={y}")
    if k is None:
        if n is None:
            raise ValueError("need n, or k and y together")
        k = derive_dimension(n)
        y = max_side(n, k)
        if y < 2:
            raise DegenerateParameters(f"n = {n} gives k = {k}, y = {y} < 2")
    elif n is None:
        n = radix(y) ** k
    knobs = {"a": a, "epsilon": epsilon, "g": g}
    params = ConstructionParams(
        n, k, y, **{key: value for key, value in knobs.items() if value is not None})
    if method == "elkin" and params.g is None:
        params = replace(params, g=params.effective_g())
    return params


def default_params(n: int, method: str) -> ConstructionParams:
    """resolve_params with (k, y) derived from n and every knob at its default."""
    return resolve_params(method, n)


def _comparator(n: int, quarter_sign: int) -> float:
    """2^(log2 n - 2 sqrt(2) sqrt(log2 n) + quarter_sign * log2(log2 n) / 4),
    or inf once that passes the float range (from n = 2^1116 or so)."""
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    log_n = math.log2(n)
    base = log_n - 2 * math.sqrt(2) * math.sqrt(log_n)
    try:
        return 2.0 ** (base + quarter_sign * 0.25 * math.log2(log_n))
    except OverflowError:
        return math.inf


def behrend_bound(n: int) -> float:
    """n / (2^(2 sqrt(2) sqrt(log2 n)) * (log2 n)^(1/4)), the classical comparator.

    The implied constant is taken as 1; this is a yardstick, not a guarantee.
    """
    return _comparator(n, -1)


def elkin_bound(n: int) -> float:
    """n * (log2 n)^(1/4) / 2^(2 sqrt(2) sqrt(log2 n)), the improved comparator."""
    return _comparator(n, 1)
