"""Lens spaces L(p,q), their homology classes, and simple knots.

L(p,q) is presented by p/q-surgery on one component of a positive Hopf
link; the other component generates first homology.  Homology classes are
normalized to [0, p-1] and an oriented knot is not identified with its
reverse.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .errors import DomainError


@dataclass(frozen=True)
class LensSpace:
    p: int
    q: int

    def __post_init__(self) -> None:
        if not self.p > self.q >= 1:
            raise DomainError(f"need p > q >= 1, got (p, q) = ({self.p}, {self.q})")
        if gcd(self.p, self.q) != 1:
            raise DomainError(f"p and q must be coprime, got ({self.p}, {self.q})")

    def __str__(self) -> str:
        return f"L({self.p},{self.q})"


@dataclass(frozen=True)
class H1Class:
    """A first-homology class, as a residue in [0, p-1]."""

    value: int
    ambient: LensSpace

    def __post_init__(self) -> None:
        if not 0 <= self.value < self.ambient.p:
            raise DomainError(f"class {self.value} outside [0, {self.ambient.p - 1}]")


def simple_knot_class(space: LensSpace, a: int) -> int:
    """Homology class of the simple knot with parameter ``a``.

    This is the unique c in [0, p-1] with q*c = a (mod p); q is invertible
    mod p by coprimality.
    """
    if not 0 <= a < space.p:
        raise ValueError(f"parameter a={a} outside [0, {space.p - 1}]")
    return (a * pow(space.q, -1, space.p)) % space.p


def simple_knot_in_class(space: LensSpace, c: H1Class) -> int:
    """Marking parameter ``a`` of the unique simple knot in the class ``c``.

    a = q*c mod p, in [0, p-1]; a = 0 is the unknot.
    """
    if c.ambient != space:
        raise ValueError("class lives in a different lens space")
    return (space.q * c.value) % space.p
