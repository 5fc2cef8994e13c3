"""Independent oracles for the test suite.

Each oracle reaches a library answer by another algorithm:

- ``smith_normal_form`` (unimodular row and column operations; the pivot
  is the minimal nonzero absolute value, ties to the smallest row, then
  column) is the oracle of ``exactarith.fold_columns`` in both its uses.
  ``filling_homology`` reads the twist diagram's filled relations through
  ``twistfamily._relation_rows``, the rows ``twist_homology`` folds, and
  ``cokernel_coordinates`` decides whether a peripheral class dies, which
  checks ``peripheral_kernel``'s lattice cut.
- Determinants come from fraction-free elimination and invariant factors
  from determinantal divisors (gcds of k-by-k minors); they check the
  Smith form itself.
- Orbifold Euler characteristics and graph norms come from their
  definitions, one ``Fraction`` step per term, and ``cable_pieces_reference``
  restates a cable's pieces as plain tuples; they check ``norm.graph_norm``.

Nothing here shares code with the library's reductions, so agreement is a
genuine cross-check: only the relation rows and the value types come from
the library.
"""

from __future__ import annotations

import random
from collections import namedtuple
from fractions import Fraction
from itertools import combinations
from math import gcd

from lensgenus.exactarith import AbelianGroup, IntMatrix
from lensgenus.twistfamily import FramedLink, _relation_rows


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


#: Smith normal form ``U @ A @ V == D`` with unimodular U and V, each a tuple
#: of int row tuples; ``invariant_factors`` are the nonzero diagonal entries
#: of D, each positive and dividing the next.
SNFResult = namedtuple("SNFResult", "D U V invariant_factors")


def _find_pivot(d: list[list[int]], t: int, m: int, n: int) -> tuple[int, int] | None:
    """Minimal |entry| != 0 in the trailing block, smallest (row, col) wins ties."""
    best = None
    best_abs = None
    for i in range(t, m):
        di = d[i]
        for j in range(t, n):
            e = di[j]
            if e:
                a = -e if e < 0 else e
                if best_abs is None or a < best_abs:
                    best, best_abs = (i, j), a
    return best


def smith_normal_form(rows: list[list[int]]) -> SNFResult:
    """Diagonalize ``rows`` over Z by unimodular row and column operations.

    Returns D, U, V with ``U @ rows @ V == D``, D diagonal with nonnegative
    entries whose nonzero part forms a divisibility chain.  Total on any
    nonempty matrix; the pivot rule makes the output deterministic.
    """
    m = len(rows)
    if m == 0:
        raise ValueError("smith_normal_form requires a nonempty matrix")
    n = len(rows[0])
    d = [list(r) for r in rows]
    u = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    v = [[1 if i == j else 0 for j in range(n)] for i in range(n)]

    t = 0
    while t < min(m, n):
        piv = _find_pivot(d, t, m, n)
        if piv is None:
            break
        pi, pj = piv
        if pi != t:
            d[t], d[pi] = d[pi], d[t]
            u[t], u[pi] = u[pi], u[t]
        if pj != t:
            for r in d:
                r[t], r[pj] = r[pj], r[t]
            for r in v:
                r[t], r[pj] = r[pj], r[t]
        if d[t][t] < 0:
            d[t] = [-e for e in d[t]]
            u[t] = [-e for e in u[t]]

        pivot = d[t][t]
        clean = True
        for i in range(t + 1, m):
            if d[i][t]:
                q = d[i][t] // pivot
                if q:
                    d[i] = [x - q * y for x, y in zip(d[i], d[t])]
                    u[i] = [x - q * y for x, y in zip(u[i], u[t])]
                if d[i][t]:
                    clean = False
        for j in range(t + 1, n):
            if d[t][j]:
                q = d[t][j] // pivot
                if q:
                    for r in d:
                        r[j] -= q * r[t]
                    for r in v:
                        r[j] -= q * r[t]
                if d[t][j]:
                    clean = False
        if not clean:
            continue

        # Pivot now owns its row and column.  Before moving on it must also
        # divide the rest of the block, or the divisibility chain can break.
        bad_row = None
        for i in range(t + 1, m):
            if any(d[i][j] % pivot for j in range(t + 1, n)):
                bad_row = i
                break
        if bad_row is None:
            t += 1
        else:
            d[t] = [x + y for x, y in zip(d[t], d[bad_row])]
            u[t] = [x + y for x, y in zip(u[t], u[bad_row])]

    factors = tuple(d[i][i] for i in range(min(m, n)) if d[i][i])
    return SNFResult(
        D=tuple(map(tuple, d)),
        U=tuple(map(tuple, u)),
        V=tuple(map(tuple, v)),
        invariant_factors=factors,
    )


def snf_cokernel(snf: SNFResult) -> AbelianGroup:
    """Group presented by the reduced matrix: Z per zero column, Z/d per factor d > 1."""
    torsion = tuple(f for f in snf.invariant_factors if f > 1)
    return AbelianGroup(len(snf.V) - len(snf.invariant_factors), torsion)


def cokernel_invariants(a: IntMatrix) -> AbelianGroup:
    """Abelian group presented by ``a`` (relations in rows, generators in columns)."""
    if a.rows == 0:
        return AbelianGroup(a.cols, ())
    return snf_cokernel(smith_normal_form(a.to_lists()))


def cokernel_coordinates(snf: SNFResult, vec: tuple[int, ...]) -> tuple[int, ...]:
    """Coordinates of ``vec`` in the cokernel's diagonal basis.

    Coordinate j lives in Z/d_j (reduced to [0, d_j)) when d_j > 0 and in Z
    when d_j = 0.  The zero tuple means ``vec`` lies in the row space.
    """
    n = len(snf.V)
    if len(vec) != n:
        raise ValueError("vector length does not match generator count")
    coords = []
    for j in range(n):
        c = sum(x * row[j] for x, row in zip(vec, snf.V))
        dj = snf.D[j][j] if j < len(snf.D) else 0
        coords.append(c % dj if dj else c)
    return tuple(coords)


def filling_homology(fl: FramedLink, label: str | None = None) -> tuple[AbelianGroup, int | None]:
    """H1 of the filled manifold and the class of the unfilled ``label`` in it.

    One Smith form of the filled relations gives both.  The unfilled
    component is homologous to the sum of its linking numbers times the
    meridians of the filled components; its class needs a cyclic group
    and is a nonnegative residue (an integer when the group is infinite
    cyclic).  With ``label`` None only the group is read.
    """
    if label is not None:
        idx = fl.index_of(label)
        if fl.components[idx].framing is not None:
            raise ValueError(f"component {label!r} is filled")
    filled = fl.filled_indices()
    if not filled:  # nothing filled: the manifold is S^3, H1 = 0
        return AbelianGroup(0, ()), None if label is None else 0
    snf = smith_normal_form(_relation_rows(fl, filled))
    group = snf_cokernel(snf)
    if label is None:
        return group, None
    if group.free_rank + len(group.torsion) > 1:
        raise ValueError(f"first homology {group} is not cyclic")
    if group.order() == 1:
        return group, 0
    vec = tuple(fl.linking[idx][j] for j in filled)
    # The diagonal runs 1, ..., 1 and then the lone entry that is not 1,
    # which carries the cyclic coordinate.
    return group, cokernel_coordinates(snf, vec)[snf.invariant_factors.count(1)]


def h1_of_complement(fl: FramedLink) -> AbelianGroup:
    """First homology of the filled manifold minus the unfilled components."""
    n = len(fl.components)
    rows = _relation_rows(fl, range(n))
    return snf_cokernel(smith_normal_form(rows)) if rows else AbelianGroup(n, ())
