"""Thurston norm of graph manifolds built from Seifert fibered pieces.

A class is evaluated piece by piece: each piece contributes
|pairing with the regular fiber| * |orbifold Euler characteristic| when
that characteristic is negative.  Pieces with nonnegative characteristic
and zero pairing carry vertical annuli and tori, which cost nothing; a
solid torus (positive characteristic over a disk) is dropped, as its disk
fibers cost nothing either.  Any other piece with nonzero pairing but
positive characteristic has no fiber surface at all, so the formula
refuses it.  ``graph_norm`` is the one evaluation of a class; it reads
each piece's characteristic once.

The arithmetic is on integers: ``orbifold_euler_parts`` gives a piece's
characteristic as a numerator over the lcm of its cone orders, the total
is an integer numerator and denominator, and only each result is built as
a ``Fraction`` (``Fraction(*orbifold_euler_parts(piece))`` is the
characteristic itself, in lowest terms).
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from math import lcm
from typing import Iterable


#: Integer class x*[mu] + y*[lambda] on a torus boundary.
PeripheralClass = namedtuple("PeripheralClass", "mu_coeff lambda_coeff")


class SeifertPiece(namedtuple("SeifertPiece", "base_euler cone_orders")):
    """Base-orbifold data: compact base surface and cone-point orders.

    ``base_euler`` is the Euler characteristic of the base surface with its
    boundary, e.g. disk = 1, annulus = 0.  Order-1 cone points are allowed
    and contribute nothing.
    """

    __slots__ = ()

    def __new__(cls, base_euler: int, cone_orders: tuple[int, ...]) -> SeifertPiece:
        for a in cone_orders:
            if a < 1:
                raise ValueError(f"cone order {a} < 1")
        return super().__new__(cls, base_euler, cone_orders)


#: One Seifert piece together with the class-fiber pairing on it.
NormSummand = namedtuple("NormSummand", "piece fiber_pairing")


def orbifold_euler_parts(piece: SeifertPiece) -> tuple[int, int]:
    """chi(base) - sum(1 - 1/a) over the cone orders a, as (numerator, L).

    L = lcm of the cone orders (1 without cones); the pair is not reduced.
    """
    cones = piece.cone_orders
    denom = lcm(*cones)
    num = (piece.base_euler - len(cones)) * denom
    for a in cones:
        num += denom // a
    return num, denom


def torus_pairing(x: PeripheralClass, y: PeripheralClass) -> int:
    """Intersection pairing on the torus; alternating, so x vs x is 0."""
    return x.mu_coeff * y.lambda_coeff - x.lambda_coeff * y.mu_coeff


def graph_norm(summands: Iterable[NormSummand]) -> tuple[Fraction, bool, int]:
    """Norm of a class on a graph manifold, whether it fibers, and the pieces dropped.

    Returns sum over pieces of |pairing| * max(0, -chi_orb), ``fibered=True``
    iff every pairing is nonzero, and the count of solid-torus pieces
    dropped.  chi_orb is evaluated once per piece.  chi_orb = 0 pieces are
    zero-extended (annulus/torus fibers).  A chi_orb > 0 piece over a disk
    has at most one genuine cone point, so it is a solid torus whose disk
    fibers cost nothing: it is dropped and counted.  Over any other base,
    chi_orb > 0 with nonzero pairing raises, since the piecewise formula has
    no fiber surface there.

    Each chi_orb is read as two integers and the total is kept as an integer
    numerator and denominator: the one ``Fraction`` built is the total.
    """
    num, den = 0, 1
    fibered = True
    dropped = 0
    for s in summands:
        chi_num, chi_den = orbifold_euler_parts(s.piece)
        pairing = s.fiber_pairing
        if pairing == 0:
            fibered = False
        if chi_num <= 0:
            num = num * chi_den - abs(pairing) * chi_num * den
            den *= chi_den
        elif s.piece.base_euler == 1:
            dropped += 1
        elif pairing:
            raise ValueError(
                "norm formula inapplicable: piece with positive orbifold "
                f"Euler characteristic {Fraction(chi_num, chi_den)} has nonzero fiber pairing"
            )
    return Fraction(num, den), fibered, dropped
