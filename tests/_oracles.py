"""Independent oracles for the test suite.

Nothing here shares code with the library's reduction: determinants come
from fraction-free elimination, invariant factors from determinantal
divisors (gcds of k-by-k minors), and orbifold Euler characteristics and
graph norms from their definitions, one ``Fraction`` step per term, so
agreement is a genuine cross-check.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations
from math import gcd


def exact_det(rows: list[list[int]]) -> int:
    """Integer determinant by Bareiss fraction-free elimination."""
    n = len(rows)
    m = [list(r) for r in rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def _minor_det(rows: list[list[int]], ri: tuple[int, ...], ci: tuple[int, ...]) -> int:
    return exact_det([[rows[i][j] for j in ci] for i in ri])


def minors_invariant_factors(rows: list[list[int]]) -> list[int]:
    """Invariant factors via determinantal divisors d_k = gcd of k-minors."""
    nrows, ncols = len(rows), len(rows[0])
    divisors = [1]
    for k in range(1, min(nrows, ncols) + 1):
        g = 0
        for ri in combinations(range(nrows), k):
            for ci in combinations(range(ncols), k):
                g = gcd(g, _minor_det(rows, ri, ci))
        if g == 0:
            break
        divisors.append(g)
    return [divisors[i + 1] // divisors[i] for i in range(len(divisors) - 1)]


def random_unimodular(rng: random.Random, n: int, steps: int = 12) -> list[list[int]]:
    """Product of elementary shears and swaps; determinant is +-1."""
    m = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    if n < 2:
        return m
    for _ in range(steps):
        i, j = rng.sample(range(n), 2)
        if rng.random() < 0.5:
            c = rng.randint(-3, 3)
            for k in range(n):
                m[i][k] += c * m[j][k]
        else:
            m[i], m[j] = m[j], m[i]
    return m


def mat_mul(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    return [
        [sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0]))]
        for i in range(len(a))
    ]


def chi_orb_reference(base_euler: int, cone_orders: tuple[int, ...]) -> Fraction:
    """chi(base) - sum(1 - 1/a) over the cone orders a, term by term."""
    chi = Fraction(base_euler)
    for a in cone_orders:
        chi -= 1 - Fraction(1, a)
    return chi


def graph_norm_reference(
    pieces: list[tuple[int, tuple[int, ...], int]],
) -> tuple[Fraction, bool, int]:
    """(total, fibered, dropped) for pieces given as (base_euler, cone_orders, pairing).

    total = sum |pairing| * max(0, -chi_orb); the class fibers iff no pairing
    is 0; a chi_orb > 0 piece over a disk is a solid torus, dropped and
    counted; over any other base a chi_orb > 0 piece with nonzero pairing
    has no fiber surface, and the formula is inapplicable.
    """
    total = Fraction(0)
    fibered = True
    dropped = 0
    for base_euler, cone_orders, pairing in pieces:
        chi = chi_orb_reference(base_euler, cone_orders)
        if pairing == 0:
            fibered = False
        if chi <= 0:
            total += abs(pairing) * -chi
        elif base_euler == 1:
            dropped += 1
        elif pairing != 0:
            raise ValueError(
                "norm formula inapplicable: piece with positive orbifold "
                f"Euler characteristic {chi} has nonzero fiber pairing"
            )
    return total, fibered, dropped


def cable_pieces_reference(p: int, q: int, m: int, n: int) -> list[tuple[int, tuple[int, ...], int]]:
    """The (1,n)-cable of T(1,m) in L(p, q) as two pieces for ``graph_norm_reference``.

    Cable space: annulus base, one cone of order n, fiber (n, 1) against the
    boundary class ((mn)^2 q, p).  Torus-knot piece: disk base, cones m and
    p - qm, fiber (m, 1) against the restricted class (m^2 n q, pn).
    """
    mn = m * n
    return [(0, (n,), mn * mn * q - p * n), (1, (m, p - q * m), m * m * n * q - p * m * n)]
