"""Exception types shared across the package, and the one work budget."""

#: Default budget of every priced stage, in the work that stage does: cube
#: points, norm-DP cells, witness cells, certificate dot products, verify's
#: pairs or lookups, and the convex check's difference cells.
DEFAULT_BUDGET = 10**8


class ApfreeError(Exception):
    """Base class for all package-specific errors."""


class DegenerateParameters(ApfreeError):
    """Requested parameters cannot yield a usable construction (e.g. y < 2)."""


class BudgetExceeded(ApfreeError):
    """An enumeration or search would exceed the configured work budget."""


class EmptyWindow(ApfreeError):
    """No populated squared-norm value falls inside the requested window."""


class CoordOutOfRange(ApfreeError):
    """A vector coordinate lies outside the digit range [0, y-1]."""


class DigitOutOfRange(ApfreeError):
    """An integer is not the encoding of any cube vector (some digit >= y)."""


class SetFormatError(ApfreeError):
    """A serialized set file does not conform to the apfree-set/1 schema."""
