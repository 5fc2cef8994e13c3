"""Knots in the Heegaard solid torus: peripheral classes and torus-knot norms.

For a knot of winding number w in the solid torus whose core generates
H1(L(p,q)), the class on the boundary torus that bounds in the complement
is (w^2 q / d) [mu] + (p / d) [lambda] with d = gcd(w, p).  The closed form
and the presentation-matrix route are kept as two independent paths; tests
sweep them against each other.

``torus_knot_theta`` is the one route to the norm of the (1,k)-torus knot,
the simple knot of class k whenever p - qk >= 1: ``graph_norm`` of the one
piece that ``torus_fiber_summand`` returns as a plain triple.  Every
verdict that compares a knot with the simple knot in its class reads that
norm here.  The norm is an ``int``; theta, its one rational, is built
only when a reader asks for it, so this module imports ``fractions`` only
there.
"""

from __future__ import annotations

from collections import namedtuple
from math import gcd
from typing import TYPE_CHECKING

from .errors import DomainError
from .lens import LensSpace
from .norm import PeripheralClass, graph_norm

if TYPE_CHECKING:
    from fractions import Fraction


class WindingData(namedtuple("WindingData", "ambient w")):
    """A knot in the solid torus U1 recorded by its winding number."""

    __slots__ = ()

    def __new__(cls, ambient: LensSpace, w: int) -> WindingData:
        if w < 0:
            raise DomainError("winding number must be >= 0")
        return super().__new__(cls, ambient, w)


class GenusReport(namedtuple("GenusReport", "chi_minus p fibered dropped")):
    """Norm data of the (1,k)-torus knot's class (k^2 q, p).

    ``chi_minus`` is the norm, an ``int``, and ``p`` the class's meridian
    pairing.  ``dropped`` is ``graph_norm``'s count of solid-torus pieces,
    1 exactly when k = 1 or p - qk = 1.
    """

    __slots__ = ()

    @property
    def theta(self) -> Fraction:
        """chi_minus / p, twice the rational genus of the certified surface."""
        from fractions import Fraction

        return Fraction(self.chi_minus, self.p)


def solid_torus_warnings(dropped: int) -> tuple[str, ...]:
    """The warning of a report or verdict that dropped ``dropped`` solid-torus pieces."""
    if dropped == 0:
        return ()
    return (
        "degenerate cone order 1: a decomposition piece is a solid torus "
        "and contributes zero",
    )


def boundary_kernel(data: WindingData) -> PeripheralClass:
    """Peripheral class that bounds in the complement: (w^2 q/d, p/d)."""
    p, q, w = data.ambient.p, data.ambient.q, data.w
    d = gcd(w, p)  # gcd(0, p) = p covers the null-homologous case
    return PeripheralClass(mu_coeff=w * w * q // d, lambda_coeff=p // d)


def presentation_matrix(data: WindingData) -> tuple[tuple[int, int, int, int], ...]:
    """Presentation of H1 of the complement over generators (mu, lambda, M, L), as rows.

    Rows: the longitude is w times the other core's meridian, the knot wraps
    w times around that core, and the surgery relation p*M + q*L = 0.  They
    are plain tuples, the input ``exactarith.peripheral_kernel`` reads.
    """
    p, q, w = data.ambient.p, data.ambient.q, data.w
    return (
        (w, 0, 0, -1),
        (0, 1, -w, 0),
        (0, 0, p, q),
    )


def torus_fiber_summand(space: LensSpace, k: int) -> tuple[int, tuple[int, int], int]:
    """The single Seifert piece carrying the (1,k)-torus-knot class, as a ``graph_norm`` triple.

    The complement fibers over a disk with cone points of order k and
    p - qk; the class (k^2 q, p) pairs with the fiber class (k, 1) as
    k^2 q - pk.  ``torus_knot_theta`` refuses p - qk < 1; below k = 1
    ``orbifold_euler_parts`` refuses the cone order.
    """
    p, q = space.p, space.q
    return 1, (k, p - q * k), k * (k * q - p)


def torus_knot_theta(space: LensSpace, k: int) -> GenusReport:
    """Norm report for the (1,k)-torus knot's bounding class.

    The route's domain is p - qk >= 1, which gives qk < p + q: there the
    (1,k)-torus knot is the simple knot in class k, so the report is the
    exact minimum for the class; outside it the route raises
    ``DomainError``.  When the cone order p - qk equals 1 the complement is
    a solid torus and the class costs nothing.
    """
    p = space.p
    cone = p - space.q * k
    if cone < 1:
        raise DomainError(f"no torus-knot route for class {k}: cone order p - qc = {cone} < 1")
    chi, fibered, dropped = graph_norm([torus_fiber_summand(space, k)])
    return GenusReport(chi, p, fibered, dropped)
