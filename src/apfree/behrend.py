"""Sphere-shell construction: pigeonhole a squared norm, encode the shell.

Pipeline: lattice.select_and_scan, which Elkin's construction shares, censuses
the cube, picks by select_behrend_shell the most populated squared norm T
inside the Chebyshev window [mu - a*sigma, mu + a*sigma] and collects the
vectors of that norm; APFreeSet.from_points maps them to integers through the
digit map of numeric.radix.
Vectors of a common norm admit no componentwise midpoints (a sphere is
strictly convex), and the digit map transports midpoints, so the image is
progression-free.

The zero vector encodes to 0, which is outside [1, n], so the selection
only considers norms T >= 1; the shell T = 0 would hold the origin alone.
"""

from __future__ import annotations

from dataclasses import dataclass

from .codec import APFreeSet
from .lattice import DEFAULT_BUDGET, ShellSelection, select_and_scan, select_behrend_shell
from .numeric import ConstructionParams


@dataclass(frozen=True)
class BehrendArtifact:
    """Everything one run produced: parameters, chosen shell, encoded set.
    decode_all(set.elements, k, y) gives the shell's points, in code order."""

    params: ConstructionParams
    shell: ShellSelection
    set: APFreeSet


def construct_behrend(
    params: ConstructionParams,
    budget: int = DEFAULT_BUDGET,
    threads: int = 1,
) -> BehrendArtifact:
    """Run the full sphere-shell pipeline; threads has no effect."""
    k, y, a = params.k, params.y, params.a
    shell, points = select_and_scan(k, y, select_behrend_shell, a, budget)
    apset = APFreeSet.from_points(points, "behrend", params)
    return BehrendArtifact(params=params, shell=shell, set=apset)
