"""Lens spaces L(p,q), their homology classes, and simple knots.

L(p,q) is presented by p/q-surgery on one component of a positive Hopf
link; the other component generates first homology.  Homology classes are
normalized to [0, p-1] and an oriented knot is not identified with its
reverse.
"""

from __future__ import annotations

from collections import namedtuple
from math import gcd

from .errors import DomainError


class LensSpace(namedtuple("LensSpace", "p q")):
    __slots__ = ()

    def __new__(cls, p: int, q: int) -> LensSpace:
        if not p > q >= 1:
            raise DomainError(f"need p > q >= 1, got (p, q) = ({p}, {q})")
        if gcd(p, q) != 1:
            raise DomainError(f"p and q must be coprime, got ({p}, {q})")
        return super().__new__(cls, p, q)

    def __str__(self) -> str:
        return f"L({self.p},{self.q})"


class H1Class(namedtuple("H1Class", "value ambient")):
    """A first-homology class, as a residue in [0, p-1]."""

    __slots__ = ()

    def __new__(cls, value: int, ambient: LensSpace) -> H1Class:
        if not 0 <= value < ambient.p:
            raise DomainError(f"class {value} outside [0, {ambient.p - 1}]")
        return super().__new__(cls, value, ambient)


def simple_knot_class(space: LensSpace, a: int) -> int:
    """Homology class of the simple knot with parameter ``a``.

    This is the unique c in [0, p-1] with q*c = a (mod p); q is invertible
    mod p by coprimality.
    """
    if not 0 <= a < space.p:
        raise ValueError(f"parameter a={a} outside [0, {space.p - 1}]")
    return (a * pow(space.q, -1, space.p)) % space.p


def simple_knot_in_class(c: H1Class) -> int:
    """Marking parameter ``a`` of the unique simple knot in the class ``c``.

    a = q*c mod p in the class's lens space, in [0, p-1]; a = 0 is the unknot.
    """
    return (c.ambient.q * c.value) % c.ambient.p
