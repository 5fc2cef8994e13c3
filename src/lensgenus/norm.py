"""Thurston norm of graph manifolds built from Seifert fibered pieces.

A piece is a plain triple ``(base_euler, cone_orders, pairing)``: the Euler
characteristic of its base surface with boundary (disk = 1, annulus = 0),
the orders of its cone points (order 1 is allowed and contributes nothing),
and the pairing of the class with its regular fiber.

A class is evaluated piece by piece: each piece contributes
|pairing with the regular fiber| * |orbifold Euler characteristic| when
that characteristic is negative.  That share is the Euler characteristic
of a horizontal surface, which covers the base orbifold |pairing| times,
so it is an integer, and ``graph_norm`` refuses a piece whose share is
not.  Pieces with nonnegative characteristic and zero pairing carry
vertical annuli and tori, which cost nothing; a solid torus (positive
characteristic over a disk) is dropped, as its disk fibers cost nothing
either.  Any other piece with nonzero pairing but positive characteristic
has no fiber surface at all, so the formula refuses it.  ``graph_norm`` is
the one evaluation of a class; it reads each piece's characteristic once.

The arithmetic is on integers: ``orbifold_euler_parts`` gives a piece's
characteristic as a numerator over the lcm of its cone orders, each share
is an exact integer quotient, and the norm is an ``int``.  A ``Fraction``
is built only in an error message
(``Fraction(*orbifold_euler_parts(base_euler, cone_orders))`` is the
characteristic itself, in lowest terms), so this module imports
``fractions`` only there.
"""

from __future__ import annotations

from collections import namedtuple
from math import lcm
from typing import Iterable


#: Integer class x*[mu] + y*[lambda] on a torus boundary.
PeripheralClass = namedtuple("PeripheralClass", "mu_coeff lambda_coeff")


def orbifold_euler_parts(base_euler: int, cone_orders: tuple[int, ...]) -> tuple[int, int]:
    """chi(base) - sum(1 - 1/a) over the cone orders a, as (numerator, L).

    L = lcm of the cone orders (1 without cones); the pair is not reduced.
    This is the one reader of cone orders: the first order below 1 raises
    ``ValueError`` before any division.
    """
    for a in cone_orders:
        if a < 1:
            raise ValueError(f"cone order {a} < 1")
    denom = lcm(*cone_orders)
    num = (base_euler - len(cone_orders)) * denom
    for a in cone_orders:
        num += denom // a
    return num, denom


def graph_norm(
    pieces: Iterable[tuple[int, tuple[int, ...], int]],
) -> tuple[int, bool, int]:
    """Norm of a class on a graph manifold, whether it fibers, and the pieces dropped.

    ``pieces`` are ``(base_euler, cone_orders, pairing)`` triples.  Returns
    sum over pieces of |pairing| * max(0, -chi_orb), ``fibered=True`` iff
    every pairing is nonzero, and the count of solid-torus pieces dropped.
    chi_orb is evaluated once per piece.  chi_orb = 0 pieces are
    zero-extended (annulus/torus fibers).  A chi_orb > 0 piece over a disk
    has at most one genuine cone point, so it is a solid torus whose disk
    fibers cost nothing: it is dropped and counted.  Over any other base,
    chi_orb > 0 with nonzero pairing raises, since the piecewise formula has
    no fiber surface there.

    A piece's share |pairing| * chi_orb is the Euler characteristic of a
    surface, so a share that is not an integer raises ``ValueError`` before
    it is added; every share is an exact integer quotient and the norm is
    an ``int``.
    """
    total = 0
    fibered = True
    dropped = 0
    for base_euler, cone_orders, pairing in pieces:
        chi_num, chi_den = orbifold_euler_parts(base_euler, cone_orders)
        if pairing == 0:
            fibered = False
        if chi_num <= 0:
            share = abs(pairing) * chi_num
            if share % chi_den:
                from fractions import Fraction

                raise ValueError(
                    f"piece share not an integer: a horizontal surface covering its base "
                    f"{abs(pairing)} times has Euler characteristic {Fraction(share, chi_den)}"
                )
            total -= share // chi_den
        elif base_euler == 1:
            dropped += 1
        elif pairing:
            from fractions import Fraction

            raise ValueError(
                "norm formula inapplicable: piece with positive orbifold "
                f"Euler characteristic {Fraction(chi_num, chi_den)} has nonzero fiber pairing"
            )
    return total, fibered, dropped
