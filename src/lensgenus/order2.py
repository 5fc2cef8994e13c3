"""Order-2 homology classes: nonorientable genus and minimizer uniqueness.

In L(2k, q) the class k has order two and its minimizer theory is the
theory of the minimal-genus closed nonorientable surface: for genus h >= 2
the dictionary is h = 2*theta + 2.  For q = 1 the minimal genus is k
(a disk with k half-twisted bands caps to the incompressible surface), and
the genus minimizer in class k is unique whenever that genus is at most 3.

The knot-level characterization (minimizers are exactly torsion curves on
the incompressible surface, those whose complement in it is orientable) is
carried on the verdict as documentation; surfaces are never enumerated.

Note on thresholds: all statements here use the integer genus bound
N <= 3.  Via the dictionary that is theta <= 1/2.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .complement import torus_knot_theta
from .errors import ConsistencyError
from .lens import LensSpace

TORSION_CURVE_CRITERION = (
    "genus minimizers in the order-2 class are exactly the curves on the "
    "minimal nonorientable surface whose complement in that surface is "
    "orientable"
)


@dataclass(frozen=True)
class UniquenessReport:
    ambient: LensSpace
    nonorientable_genus: int
    unique_minimizer_guaranteed: bool
    theta: Fraction
    criterion: str


def nonorientable_genus_to_theta(h: int) -> Fraction:
    """theta = (h - 2)/2 for minimal nonorientable genus h >= 2."""
    if h < 2:
        raise ValueError(f"dictionary requires h >= 2, got {h}")
    return Fraction(h - 2, 2)


def theta_to_nonorientable_genus(theta: Fraction | int) -> int:
    """Inverse dictionary h = 2*theta + 2; requires the result integral."""
    h = 2 * Fraction(theta) + 2
    if h.denominator != 1:
        raise ValueError(f"2*theta + 2 = {h} is not an integer")
    if h < 2:
        raise ValueError(f"theta {theta} < 0 has no nonorientable genus")
    return int(h)


def nonorientable_genus(k: int) -> int:
    """Minimal genus N(2k, 1) of a closed nonorientable surface in L(2k,1).

    The disk-with-k-bands surface caps to a closed surface of Euler
    characteristic 2 - k, so the genus is k.  For k >= 2 this is
    cross-checked against the torus-knot route through the dictionary.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if k == 1:
        return 1  # projective plane in L(2,1); below the dictionary's floor
    chi_surface = (1 - k) + 1
    genus = 2 - chi_surface
    theta = torus_knot_theta(LensSpace(2 * k, 1), k).theta
    if genus != theta_to_nonorientable_genus(theta):
        raise ConsistencyError(
            f"N(2k,1) = {genus} disagrees with 2*theta+2 = {2 * theta + 2} at k={k}"
        )
    return genus


def uniqueness_check(space: LensSpace) -> UniquenessReport:
    """Uniqueness verdict for the genus minimizer in the order-2 class.

    Only q = 1 is supported; the minimal nonorientable genus for general q
    is not implemented here.
    """
    if space.q != 1:
        raise ValueError(
            "general-q N(2k,q) not implemented (no closed form reproduced here)"
        )
    if space.p % 2 != 0:
        raise ValueError(f"{space} has odd p, no order-2 class")
    k = space.p // 2
    n = nonorientable_genus(k)
    theta = nonorientable_genus_to_theta(n) if n >= 2 else Fraction(0)
    return UniquenessReport(
        ambient=space,
        nonorientable_genus=n,
        unique_minimizer_guaranteed=n <= 3,
        theta=theta,
        criterion=TORSION_CURVE_CRITERION,
    )
