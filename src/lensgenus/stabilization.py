"""Stabilized closed-braid minimizers built from three catalogued surfaces.

The three-component link (braid K0, axis L2, stabilizing unknot gamma) in
the three-sphere carries three properly embedded surfaces whose complexity
and boundary classes are fixed facts of the construction: the disk bounded
by K0, the disk bounded by gamma, and a once-punctured genus-one piece of
a nonorientable spanning surface.  Nonnegative combinations of the three
realize the surface classes of the k-fold stabilized braids; capping
boundary components gives the rational Seifert surface whose complexity
must match the (1, k+4)-torus-knot norm exactly.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from typing import Sequence

from .complement import torus_knot_theta
from .errors import ConsistencyError, DomainError
from .lens import LensSpace
from .norm import PeripheralClass


#: Boundary classes on the three link components (K0, L2, gamma).
TripleBoundaryClass = namedtuple("TripleBoundaryClass", "on_K0 on_L2 on_gamma")

BaseSurface = namedtuple("BaseSurface", "name chi_minus boundary")


# The catalogue.  The braid disk meets the axis four times and gamma once;
# the gamma disk meets braid and axis once each; the nonorientable piece
# has genus one with four boundary components.
SURFACE_F0 = BaseSurface(
    name="F0",
    chi_minus=4,
    boundary=TripleBoundaryClass(
        on_K0=PeripheralClass(0, 1),
        on_L2=PeripheralClass(-4, 0),
        on_gamma=PeripheralClass(-1, 0),
    ),
)
SURFACE_FGAMMA = BaseSurface(
    name="Fgamma",
    chi_minus=1,
    boundary=TripleBoundaryClass(
        on_K0=PeripheralClass(-1, 0),
        on_L2=PeripheralClass(-1, 0),
        on_gamma=PeripheralClass(0, 1),
    ),
)
SURFACE_F = BaseSurface(
    name="F",
    chi_minus=4,
    boundary=TripleBoundaryClass(
        on_K0=PeripheralClass(4, 2),
        on_L2=PeripheralClass(-8, -1),
        on_gamma=PeripheralClass(-1, 0),
    ),
)

BASE_SURFACES = (SURFACE_F0, SURFACE_FGAMMA, SURFACE_F)


class StabFamily(namedtuple("StabFamily", "ambient k")):
    """The k-fold stabilized braid in L(p,q); requires p >= 2q(k+4)."""

    __slots__ = ()

    def __new__(cls, ambient: LensSpace, k: int) -> StabFamily:
        if k < 1:
            raise DomainError("stabilization count k must be >= 1")
        p, q = ambient.p, ambient.q
        if p < 2 * q * (k + 4):
            raise DomainError(f"hypothesis p >= 2q(k+4) fails: {p} < {2 * q * (k + 4)}")
        return super().__new__(cls, ambient, k)


StabNorms = namedtuple("StabNorms", "chi_Fk boundary chi_capped")

StabVerdict = namedtuple(
    "StabVerdict", "family norms torus_chi homology_class theta certified_minimizer"
)


def stab_coefficients(s: StabFamily) -> tuple[int, int, int]:
    """Multiplicities (c0, cgamma, cF) of the catalogued surfaces.

    All three are nonnegative exactly under the family hypothesis.
    """
    p, q, k = s.ambient.p, s.ambient.q, s.k
    return (p - 2 * q * (k + 4), k * (p - q * (k + 4)), q * (k + 4))


def surface_combination(coeffs: Sequence[int]) -> tuple[int, TripleBoundaryClass]:
    """chi_minus and boundary of the combination with multiplicities ``coeffs``.

    One multiplicity per entry of ``BASE_SURFACES``; both totals are linear.
    """
    terms = list(zip(coeffs, BASE_SURFACES))

    def combine(side: str) -> PeripheralClass:
        classes = [(c, getattr(f.boundary, side)) for c, f in terms]
        return PeripheralClass(
            sum(c * x.mu_coeff for c, x in classes),
            sum(c * x.lambda_coeff for c, x in classes),
        )

    chi = sum(c * f.chi_minus for c, f in terms)
    return chi, TripleBoundaryClass(combine("on_K0"), combine("on_L2"), combine("on_gamma"))


def stab_norms(s: StabFamily) -> StabNorms:
    """Assemble the surface class and check it against its known totals.

    chi_Fk must equal p(k+4) - q(k+4)^2 and the combined boundary must hit
    the displayed triple coefficient by coefficient; a mismatch means the
    catalogue or the assembly is wrong, so it aborts.
    """
    p, q, k = s.ambient.p, s.ambient.q, s.k
    chi, boundary = surface_combination(stab_coefficients(s))
    kp4 = k + 4
    chi_expected = p * kp4 - q * kp4 * kp4
    boundary_expected = TripleBoundaryClass(
        on_K0=PeripheralClass(-k * p + q * kp4 * kp4, p),
        on_L2=PeripheralClass(-(p - q * k) * kp4, -q * kp4),
        on_gamma=PeripheralClass(-(p - q * kp4), k * (p - q * kp4)),
    )
    if chi != chi_expected:
        raise ConsistencyError(
            f"assembled chi {chi} != closed form {chi_expected} at (p,q,k)=({p},{q},{k})"
        )
    if boundary != boundary_expected:
        raise ConsistencyError(
            f"assembled boundary {boundary} != displayed {boundary_expected} "
            f"at (p,q,k)=({p},{q},{k})"
        )
    # Capping: k+4 boundary components on the axis, p - q(k+4) on gamma.
    chi_capped = chi - kp4 - (p - q * kp4)
    return StabNorms(chi_Fk=chi, boundary=boundary, chi_capped=chi_capped)


def stab_verdict(s: StabFamily) -> StabVerdict:
    """Certify the stabilized braid as a genus minimizer in class k+4.

    The capped surface complexity must equal the (1, k+4)-torus-knot norm
    exactly; the torus knot is simple, since the family hypothesis gives
    (k+4)q <= p/2 < p + q, so matching it certifies minimality.  The
    family hypothesis always yields the match, so ``certified_minimizer``
    False means the two routes disagree, and the CLI exits 3.
    """
    p, k = s.ambient.p, s.k
    norms = stab_norms(s)
    torus = torus_knot_theta(s.ambient, k + 4)
    return StabVerdict(
        family=s,
        norms=norms,
        torus_chi=torus.chi_minus,
        homology_class=k + 4,
        theta=Fraction(norms.chi_capped, p),
        certified_minimizer=torus.chi_minus == norms.chi_capped,
    )
