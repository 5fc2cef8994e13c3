"""Norms and minimizer verdicts for cabled torus knots in lens spaces.

The iterated cable C(1,m_k) o ... o C(1,m_2) o T(1,m_1) lies in homology
class W = m_1 ... m_k.  Its complement splits into the torus-knot
complement of T(1,m_1) and one cable space per further level, so the class
norm can be computed two ways: in one piece through the (1,W)-torus knot,
or piecewise through the cable decomposition.  When p/q clears the
threshold m_1^2 ... m_(k-1)^2 m_k the two values agree, certifying the
knot as a genus minimizer.

The (1,n)-cable of the (1,m)-torus knot is the two-level case ms = (m, n):
``IteratedCableParams`` is the one input type, and the one summand builder,
``iterated_summands``, serves every depth.  Its pieces are the plain
``(base_euler, cone_orders, pairing)`` triples that ``graph_norm`` reads.
For a cable that clears the threshold with q != m, the knot is provably not
the simple knot in its class.  The summand data is the source of truth; the
closed forms in docstrings are documentation, and the tests pin the two
together.

Both norms are ``int``s and compare as such; theta, the one rational of a
verdict, is built only when a reader asks for it, so this module imports
``fractions`` only there and in ``explicit_surface_check``.
"""

from __future__ import annotations

from collections import namedtuple
from math import prod
from typing import TYPE_CHECKING

from .complement import solid_torus_warnings, torus_knot_theta
from .errors import DomainError
from .lens import LensSpace
from .norm import graph_norm

if TYPE_CHECKING:
    from collections.abc import Sequence
    from fractions import Fraction


class IteratedCableParams(namedtuple("IteratedCableParams", "ambient ms")):
    """Iterated cable C(1,m_k) o ... o C(1,m_2) o T(1,m_1): m_i >= 2, p - qW >= 1.

    W = m_1 ... m_k; since q >= 1 and W >= m_1, W < p and p - q m_1 >= 1 follow.
    A cable is the case ms = (m, n).  Since every m_i >= 2, W >= 2^k, so a
    depth k above p's bit length fails p - qW >= 1 before W is multiplied out.
    """

    __slots__ = ()

    def __new__(cls, ambient: LensSpace, ms: Sequence[int]) -> IteratedCableParams:
        # A tuple of its own, so no caller can change ms once it is checked.
        ms = tuple(ms)
        if not ms:
            raise DomainError("need at least one cabling parameter")
        if min(ms) < 2:
            raise DomainError("all cabling parameters must be >= 2")
        if len(ms) > ambient.p.bit_length():
            raise DomainError(f"hypothesis p - qW >= 1 fails: W >= 2^{len(ms)} > p")
        cone = ambient.p - ambient.q * prod(ms)
        if cone < 1:
            raise DomainError(f"hypothesis p - qW >= 1 fails: p - qW = {cone}")
        return super().__new__(cls, ambient, ms)


class IteratedVerdict(namedtuple(
    "IteratedVerdict",
    "params norm_iterated norm_torus_side threshold_met norms_equal "
    "certified_minimizer certified_nonsimple homology_class warnings",
)):
    """The two ``int`` norms of an iterated cable's class and the verdicts read from them."""

    __slots__ = ()

    @property
    def theta(self) -> Fraction:
        """The class's theta, from the torus side: norm_torus_side / p."""
        from fractions import Fraction

        return Fraction(self.norm_torus_side, self.params.ambient.p)


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


def iterated_summands(ic: IteratedCableParams) -> list[tuple[int, tuple[int, ...], int]]:
    """Pieces of the iterated-cable decomposition, as ``graph_norm`` triples.

    With partial windings w_j = m_1 ... m_j and W = w_k, the innermost
    torus-knot piece (disk, cones m_1 and p - q m_1) pairs as
    W (q w_1 - p); the j-th cable piece (annulus, cone m_j) pairs as
    (W / w_j)(q w_j^2 - p m_j).  For a cable, ms = (m, n): the torus-knot
    piece pairs as mn (qm - p) and the cable piece as q (mn)^2 - pn.  The
    tests check both against a plain-tuple reference.
    """
    p, q = ic.ambient.p, ic.ambient.q
    ms = ic.ms
    big_w = prod(ms)
    w = ms[0]
    summands = [(1, (w, p - q * w), big_w * (q * w - p))]
    for m in ms[1:]:
        w *= m
        summands.append((0, (m,), (big_w // w) * (q * w * w - p * m)))
    return summands


def iterated_verdict(ic: IteratedCableParams) -> IteratedVerdict:
    """Compare the iterated-cable norm with the torus-knot norm of class W.

    Certification threshold: p >= q m_1^2 ... m_{k-1}^2 m_k, that is
    p m_k >= q W^2.  Above it the norms must agree exactly; a disagreement
    is reported as ``norms_equal`` False with the minimizer uncertified,
    and the CLI exits 3.  Both norms are ``int``s.  The torus side is class
    W's ``torus_knot_theta``, and ``theta`` is read from it; a solid torus
    dropped on either route is warned about.  Non-simplicity is certified
    only for a cable (k = 2) with a certified minimizer and q != m_1; at
    q = m_1, and at any other depth, it is not certified (unknown, never
    refuted).
    """
    p, q = ic.ambient.p, ic.ambient.q
    ms = ic.ms
    big_w = prod(ms)
    norm_it, _, dropped = graph_norm(iterated_summands(ic))
    torus = torus_knot_theta(ic.ambient, big_w)
    threshold = p * ms[-1] >= q * big_w * big_w
    equal = norm_it == torus.chi_minus
    certified = threshold and equal
    return IteratedVerdict(
        ic, norm_it, torus.chi_minus, threshold, equal, certified,
        certified and len(ms) == 2 and q != ms[0], big_w % p,
        solid_torus_warnings(dropped + torus.dropped),
    )


def explicit_surface_check(m: int, n: int) -> SurfaceCheck:
    """Cross-check the explicit minimal surface at p = m^2 n, q = 1.

    Verifies theta of the inner torus knot equals (mn - n - 1)/n, theta of
    class mn equals mn - n - 1, and that a surface of genus
    (mn - 2)(m - 1)/2 with m boundary components has exactly that
    normalized complexity: m (mn - n - 1) = 2g - 2 + b.
    """
    from fractions import Fraction

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
