"""Provably progression-free subsets of {1..n}: construction and verification.

Two constructions are provided.  The sphere-shell method picks the most
populated squared norm of the discrete cube [0, y-1]^k and encodes that
shell through a carry-free digit map.  The annulus method widens the shell
to a window [T-g, T] and keeps the points of the ball's exterior, certified
point by point with short integer witness vectors.  Exact small-n optima,
midpoint-freeness checks, and lattice-point/volume discrepancy scans back
everything with independent ground truth.
"""

from .behrend import BehrendArtifact, construct_behrend
from .codec import APFreeSet, decode, encode, read_set
from .elkin import (
    ElkinArtifact,
    construct_elkin,
    dhat_bound_check,
    enumerate_witnesses,
    filter_survivors,
)
from .errors import (
    DEFAULT_BUDGET,
    ApfreeError,
    BudgetExceeded,
    CoordOutOfRange,
    DegenerateParameters,
    DigitOutOfRange,
    EmptyWindow,
    SetFormatError,
)
from .lattice import (
    DiscrepancyRecord,
    ShellSelection,
    build_histogram,
    count_capped_ball,
    discrepancy_scan,
    select_behrend_shell,
    select_elkin_annulus,
    shell_members,
    shell_points,
)
from .numeric import (
    ConstructionParams,
    MomentSummary,
    ball_volume,
    behrend_bound,
    default_params,
    elkin_bound,
    eta,
    exact_moments,
)
from .verify import (
    VerificationReport,
    convexly_independent,
    exact_nu,
    exact_nu_bb,
    midpoint_free,
    progression_free,
    short_difference_free,
)

__version__ = "0.1.0"

__all__ = [
    "APFreeSet",
    "ApfreeError",
    "BehrendArtifact",
    "BudgetExceeded",
    "ConstructionParams",
    "CoordOutOfRange",
    "DEFAULT_BUDGET",
    "DegenerateParameters",
    "DigitOutOfRange",
    "DiscrepancyRecord",
    "ElkinArtifact",
    "EmptyWindow",
    "MomentSummary",
    "SetFormatError",
    "ShellSelection",
    "VerificationReport",
    "ball_volume",
    "behrend_bound",
    "build_histogram",
    "construct_behrend",
    "construct_elkin",
    "convexly_independent",
    "count_capped_ball",
    "decode",
    "default_params",
    "dhat_bound_check",
    "discrepancy_scan",
    "elkin_bound",
    "encode",
    "enumerate_witnesses",
    "eta",
    "exact_moments",
    "exact_nu",
    "exact_nu_bb",
    "filter_survivors",
    "midpoint_free",
    "progression_free",
    "read_set",
    "select_behrend_shell",
    "select_elkin_annulus",
    "shell_members",
    "shell_points",
    "short_difference_free",
]
