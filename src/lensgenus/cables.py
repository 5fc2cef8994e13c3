"""Norms and minimizer verdicts for cabled torus knots in lens spaces.

The (1,n)-cable of the (1,m)-torus knot lies in homology class mn.  Its
complement splits into a cable space and the torus-knot complement, so the
class norm can be computed two ways: in one piece through the (1,mn)-torus
knot, or piecewise through the cable decomposition.  When p/q clears the
threshold m^2 n the two values agree, certifying the cable as a genus
minimizer; when additionally q != m the cable is provably not the simple
knot in its class.

Iterated cables follow the same pattern with one cable piece per cabling
level.  The summand data below is the source of truth; the closed forms in
docstrings are documentation, and reduction tests pin the two together.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from math import prod

from .complement import torus_fiber_summand, torus_knot_theta
from .errors import DomainError
from .lens import LensSpace
from .norm import NormSummand, SeifertPiece, graph_norm


class CableParams(namedtuple("CableParams", "ambient m n")):
    """The (1,n)-cable of the (1,m)-torus knot in the given lens space."""

    __slots__ = ()

    def __new__(cls, ambient: LensSpace, m: int, n: int) -> CableParams:
        if m < 2 or n < 2:
            raise DomainError("cable parameters require m, n >= 2")
        return super().__new__(cls, ambient, m, n)


class IteratedCableParams(namedtuple("IteratedCableParams", "ambient ms")):
    """Iterated cable C(1,m_k) o ... o C(1,m_2) o T(1,m_1)."""

    __slots__ = ()

    def __new__(cls, ambient: LensSpace, ms: tuple[int, ...]) -> IteratedCableParams:
        if not ms:
            raise DomainError("need at least one cabling parameter")
        if any(m < 2 for m in ms):
            raise DomainError("all cabling parameters must be >= 2")
        self = super().__new__(cls, ambient, ms)
        if self.total_winding >= ambient.p:
            raise DomainError(
                f"total winding {self.total_winding} must stay below p = {ambient.p}"
            )
        return self

    @property
    def total_winding(self) -> int:
        return prod(self.ms)


CableVerdict = namedtuple(
    "CableVerdict",
    "params norm_torus_side norm_cable_side threshold_met norms_equal "
    "certified_minimizer certified_nonsimple homology_class theta warnings",
)

IteratedVerdict = namedtuple(
    "IteratedVerdict",
    "params norm_iterated norm_torus_side threshold_met norms_equal "
    "certified_minimizer homology_class theta warnings",
)


class SurfaceCheck(namedtuple(
    "SurfaceCheck",
    "m n ambient theta_inner theta_inner_expected theta_class theta_class_expected "
    "surface_genus surface_boundaries surface_identity_holds",
)):
    """Consistency record for the explicit cable surface at p = m^2 n, q = 1."""

    __slots__ = ()

    @property
    def all_hold(self) -> bool:
        return (
            self.theta_inner == self.theta_inner_expected
            and self.theta_class == self.theta_class_expected
            and self.surface_identity_holds
        )


def _solid_torus_warnings(dropped: int) -> tuple[str, ...]:
    if dropped == 0:
        return ()
    return (
        "degenerate cone order 1: a decomposition piece is a solid torus "
        "and contributes zero",
    )


def cable_side_summands(c: CableParams) -> list[NormSummand]:
    """The two pieces seen by the cable decomposition.

    Cable space: annulus base with one cone of order n, fiber class
    (n, 1) against the boundary class ((mn)^2 q, p).  Torus-knot piece:
    disk base with cones m and p - qm, fiber (m, 1) against the restricted
    class (m^2 n q, p n).
    """
    p, q, m, n = c.ambient.p, c.ambient.q, c.m, c.n
    if p - q * m < 1:
        raise DomainError(f"piece undefined: cone order p - qm = {p - q * m} < 1")
    mn = m * n
    cable_piece = NormSummand(
        piece=SeifertPiece(base_euler=0, cone_orders=(n,)),
        fiber_pairing=mn * mn * q - p * n,
    )
    torus_piece = NormSummand(
        piece=SeifertPiece(base_euler=1, cone_orders=(m, p - q * m)),
        fiber_pairing=m * m * n * q - p * n * m,
    )
    return [cable_piece, torus_piece]


def cable_verdict(c: CableParams) -> CableVerdict:
    """Evaluate both norms and certify minimizer / non-simplicity claims.

    The torus side is |pmn - q(mn)^2| (1 - 1/(mn) - 1/(p - qmn)) and the
    cable side |pn - q(mn)^2| (1 - 1/n) + |pmn - qm^2 n| (1 - 1/m - 1/(p-qm)),
    each term clamped at zero through the solid-torus extension.
    Certification requires p >= q m^2 n and the two norms to agree; above
    the threshold they always do, so a disagreement there is reported as
    ``norms_equal`` False with nothing certified, and the CLI exits 3.  For
    q = m non-simplicity is left uncertified (not refuted).
    """
    p, q, m, n = c.ambient.p, c.ambient.q, c.m, c.n
    n21, _, dropped_torus = graph_norm([torus_fiber_summand(c.ambient, m * n)])
    n22, _, dropped_cable = graph_norm(cable_side_summands(c))
    threshold = p >= q * m * m * n
    equal = n21 == n22
    return CableVerdict(
        params=c,
        norm_torus_side=n21,
        norm_cable_side=n22,
        threshold_met=threshold,
        norms_equal=equal,
        certified_minimizer=threshold and equal,
        certified_nonsimple=threshold and equal and q != m,
        homology_class=(m * n) % p,
        theta=Fraction(n21.numerator, n21.denominator * p),
        warnings=_solid_torus_warnings(dropped_cable + dropped_torus),
    )


def iterated_summands(ic: IteratedCableParams) -> list[NormSummand]:
    """Pieces of the iterated-cable decomposition.

    With partial windings w_j = m_1 ... m_j and W = w_k, the innermost
    torus-knot piece (disk, cones m_1 and p - q m_1) pairs as
    W (q w_1 - p); the j-th cable piece (annulus, cone m_j) pairs as
    (W / w_j)(q w_j^2 - p m_j).  Validated against the one- and two-level
    reductions before use.
    """
    p, q = ic.ambient.p, ic.ambient.q
    ms = ic.ms
    if p - q * ms[0] < 1:
        raise DomainError(f"piece undefined: cone order p - q m_1 = {p - q * ms[0]} < 1")
    big_w = ic.total_winding
    summands = [
        NormSummand(
            piece=SeifertPiece(base_euler=1, cone_orders=(ms[0], p - q * ms[0])),
            fiber_pairing=big_w * (q * ms[0] - p),
        )
    ]
    w = ms[0]
    for m in ms[1:]:
        w *= m
        summands.append(
            NormSummand(
                piece=SeifertPiece(base_euler=0, cone_orders=(m,)),
                fiber_pairing=(big_w // w) * (q * w * w - p * m),
            )
        )
    return summands


def iterated_verdict(ic: IteratedCableParams) -> IteratedVerdict:
    """Compare the iterated-cable norm with the torus-knot norm of class W.

    Certification threshold: p >= q m_1^2 ... m_{k-1}^2 m_k.  Above it the
    norms must agree exactly; a disagreement is reported as ``norms_equal``
    False with the minimizer uncertified, and the CLI exits 3.
    """
    p, q = ic.ambient.p, ic.ambient.q
    ms = ic.ms
    summands = iterated_summands(ic)
    norm_it, _, dropped = graph_norm(summands)
    torus_report = torus_knot_theta(ic.ambient, ic.total_winding)
    bound = q * prod(m * m for m in ms[:-1]) * ms[-1]
    threshold = p >= bound
    equal = norm_it == torus_report.chi_minus
    return IteratedVerdict(
        params=ic,
        norm_iterated=norm_it,
        norm_torus_side=torus_report.chi_minus,
        threshold_met=threshold,
        norms_equal=equal,
        certified_minimizer=threshold and equal,
        homology_class=ic.total_winding % p,
        theta=Fraction(norm_it.numerator, norm_it.denominator * p),
        warnings=_solid_torus_warnings(dropped),
    )


def explicit_surface_check(m: int, n: int) -> SurfaceCheck:
    """Cross-check the explicit minimal surface at p = m^2 n, q = 1.

    Verifies theta of the inner torus knot equals (mn - n - 1)/n, theta of
    class mn equals mn - n - 1, and that a surface of genus
    (mn - 2)(m - 1)/2 with m boundary components has exactly that
    normalized complexity: m (mn - n - 1) = 2g - 2 + b.
    """
    if m < 2 or n < 2:
        raise ValueError("surface check requires m, n >= 2")
    space = LensSpace(p=m * m * n, q=1)
    theta_inner = torus_knot_theta(space, m).theta
    theta_class = torus_knot_theta(space, m * n).theta
    genus = (m * n - 2) * (m - 1) // 2
    boundaries = m
    identity = m * (m * n - n - 1) == 2 * genus - 2 + boundaries
    return SurfaceCheck(
        m=m,
        n=n,
        ambient=space,
        theta_inner=theta_inner,
        theta_inner_expected=Fraction(m * n - n - 1, n),
        theta_class=theta_class,
        theta_class_expected=m * n - n - 1,
        surface_genus=genus,
        surface_boundaries=boundaries,
        surface_identity_holds=identity,
    )
