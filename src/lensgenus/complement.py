"""Knots in the Heegaard solid torus: peripheral classes and torus-knot norms.

For a knot of winding number w in the solid torus whose core generates
H1(L(p,q)), the class on the boundary torus that bounds in the complement
is (w^2 q / d) [mu] + (p / d) [lambda] with d = gcd(w, p).  The closed form
and the presentation-matrix route are kept as two independent paths; tests
sweep them against each other.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from math import gcd

from .errors import DomainError
from .exactarith import IntMatrix
from .lens import LensSpace
from .norm import (
    NormSummand,
    PeripheralClass,
    SeifertPiece,
    graph_norm,
    torus_pairing,
)


class WindingData(namedtuple("WindingData", "ambient w")):
    """A knot in the solid torus U1 recorded by its winding number."""

    __slots__ = ()

    def __new__(cls, ambient: LensSpace, w: int) -> WindingData:
        if w < 0:
            raise DomainError("winding number must be >= 0")
        return super().__new__(cls, ambient, w)


class GenusReport(
    namedtuple("GenusReport", "chi_minus mu_pairing theta boundary_class fibered")
):
    """Certified norm data for one boundary class.

    ``theta`` is chi_minus divided by the meridian pairing: twice the
    rational genus of the certified surface.  Whether it is the exact
    minimum for the homology class, or only an upper bound, is the
    caller's bookkeeping.
    """

    __slots__ = ()

    def __new__(cls, chi_minus: Fraction, mu_pairing: int, theta: Fraction,
                boundary_class: PeripheralClass, fibered: bool) -> GenusReport:
        if chi_minus < 0:
            raise ValueError("chi_minus must be >= 0")
        if mu_pairing < 1:
            raise ValueError("mu_pairing must be a positive integer")
        # theta == chi_minus / mu_pairing, cross-multiplied in integers.
        chi = chi_minus
        if theta.numerator * chi.denominator * mu_pairing != chi.numerator * theta.denominator:
            raise ValueError("theta must equal chi_minus / mu_pairing")
        return super().__new__(cls, chi_minus, mu_pairing, theta, boundary_class, fibered)


def boundary_kernel(data: WindingData) -> PeripheralClass:
    """Peripheral class that bounds in the complement: (w^2 q/d, p/d)."""
    p, q, w = data.ambient.p, data.ambient.q, data.w
    d = gcd(w, p)  # gcd(0, p) = p covers the null-homologous case
    return PeripheralClass(mu_coeff=w * w * q // d, lambda_coeff=p // d)


def presentation_matrix(data: WindingData) -> IntMatrix:
    """Presentation of H1 of the complement over generators (mu, lambda, M, L).

    Rows: the longitude is w times the other core's meridian, the knot wraps
    w times around that core, and the surgery relation p*M + q*L = 0.
    """
    p, q, w = data.ambient.p, data.ambient.q, data.w
    return IntMatrix(3, 4, (
        w, 0, 0, -1,
        0, 1, -w, 0,
        0, 0, p, q,
    ))


def torus_fiber_summand(space: LensSpace, k: int) -> NormSummand:
    """The single Seifert piece carrying the (1,k)-torus-knot class.

    The complement fibers over a disk with cone points of order k and
    p - qk; the class (k^2 q, p) pairs with the fiber class (k, 1).  The
    caller passes k >= 1 with p - qk >= 1, as every family's constructor
    ensures; otherwise ``SeifertPiece`` refuses a cone order below 1.
    """
    boundary = PeripheralClass(k * k * space.q, space.p)
    fiber = PeripheralClass(k, 1)
    piece = SeifertPiece(base_euler=1, cone_orders=(k, space.p - space.q * k))
    return NormSummand(piece=piece, fiber_pairing=torus_pairing(boundary, fiber))


def torus_knot_theta(space: LensSpace, k: int) -> GenusReport:
    """Norm report for the (1,k)-torus knot's bounding class.

    The meridian pairing of the class (k^2 q, p) is p, so theta is the norm
    divided by p.  When the cone order p - qk equals 1 the complement is a
    solid torus and the class costs nothing.  The report certifies the
    exact minimum for homology class k only when the torus-knot criterion
    holds.
    """
    summand = torus_fiber_summand(space, k)
    chi, fibered, _ = graph_norm([summand])
    boundary = PeripheralClass(k * k * space.q, space.p)
    mu = abs(torus_pairing(boundary, PeripheralClass(1, 0)))
    return GenusReport(
        chi_minus=chi,
        mu_pairing=mu,
        theta=Fraction(chi.numerator, chi.denominator * mu),
        boundary_class=boundary,
        fibered=fibered,
    )
