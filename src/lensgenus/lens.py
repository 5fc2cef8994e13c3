"""Lens spaces L(p,q), simple knots, and the torus-knot criterion.

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


@dataclass(frozen=True)
class SimpleKnot:
    """The simple knot with marking parameter ``a``; a = 0 is the unknot."""

    ambient: LensSpace
    a: int

    def __post_init__(self) -> None:
        if not 0 <= self.a < self.ambient.p:
            raise ValueError(f"parameter a={self.a} outside [0, {self.ambient.p - 1}]")


@dataclass(frozen=True)
class TorusKnotDesc:
    """Certificate that a class is represented by the (1,k)-torus knot."""

    ambient: LensSpace
    k: int

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError("k must be >= 1")


def simple_knot_class(space: LensSpace, a: int) -> int:
    """Homology class of the simple knot with parameter ``a``.

    This is the unique c in [0, p-1] with q*c = a (mod p); q is invertible
    mod p by coprimality.
    """
    if not 0 <= a < space.p:
        raise ValueError(f"parameter a={a} outside [0, {space.p - 1}]")
    return (a * pow(space.q, -1, space.p)) % space.p


def simple_knot_in_class(space: LensSpace, c: H1Class) -> SimpleKnot:
    """The unique simple knot representing the class ``c``."""
    if c.ambient != space:
        raise ValueError("class lives in a different lens space")
    return SimpleKnot(ambient=space, a=(space.q * c.value) % space.p)


def torus_knot_class(space: LensSpace, k: int) -> TorusKnotDesc:
    """Certify that the simple knot in class k is the (1,k)-torus knot.

    Valid exactly when k*q < p + q (the integer form of k < p/q + 1);
    beyond that bound the simple knot in class k need not be a torus knot,
    so callers must not assume it is.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if k * space.q >= space.p + space.q:
        raise ValueError(
            f"torus-criterion violated: k={k} >= p/q + 1 in {space}"
        )
    return TorusKnotDesc(ambient=space, k=k)
