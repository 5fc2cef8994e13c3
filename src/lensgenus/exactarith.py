"""Exact integer matrices, Smith normal form, and abelian-group invariants.

Everything in this module works over arbitrary-precision Python integers;
there is no floating point anywhere.  Two reductions do the work:

- Smith normal form, by row and column operations, gives cokernels of
  presentation matrices, hence first homology and cokernel coordinates.
- The peripheral kernel (the boundary classes that bound) is a left
  kernel, so it needs only the row half of that reduction: a row-only
  (Hermite) echelon form on plain lists that carries just the two columns
  of the row transform it projects to.

Both pick as pivot the minimal nonzero absolute value, ties broken by
smallest row index then smallest column index, so transforms are
reproducible across platforms.  Inputs are validated as ``IntMatrix`` at
the public functions; the reductions themselves run on plain lists, and a
Smith form's D, U and V are those lists' own rows, as int tuples: integer
row and column operations keep the shape and the entries integral.
"""

from __future__ import annotations

from collections import namedtuple
from math import gcd


class IntMatrix(namedtuple("IntMatrix", "rows cols entries")):
    """Immutable integer matrix, entries stored row-major.

    ``rows == 0`` is allowed (an empty relation set); ``cols`` must be
    positive so generators are always well defined.
    """

    __slots__ = ()

    def __new__(cls, rows: int, cols: int, entries: tuple[int, ...]) -> IntMatrix:
        self = super().__new__(cls, rows, cols, entries)
        # Named __post_init__ because perfbench/spans.py counts matrices through it.
        self.__post_init__()
        return self

    def __post_init__(self) -> None:
        if self.rows < 0 or self.cols < 1:
            raise ValueError(f"bad shape {self.rows}x{self.cols}")
        if len(self.entries) != self.rows * self.cols:
            raise ValueError(
                f"entry count {len(self.entries)} != {self.rows}x{self.cols}"
            )
        if not all(isinstance(e, int) for e in self.entries):
            raise ValueError("entries must be integers")

    @classmethod
    def from_rows(cls, rows: list[list[int]] | tuple) -> "IntMatrix":
        nrows = len(rows)
        ncols = len(rows[0]) if nrows else 1
        if any(len(r) != ncols for r in rows):
            raise ValueError("ragged rows")
        return cls(nrows, ncols, tuple(e for r in rows for e in r))

    @classmethod
    def zero_rows(cls, cols: int) -> "IntMatrix":
        """Empty relation set on ``cols`` generators."""
        return cls(0, cols, ())

    def at(self, i: int, j: int) -> int:
        return self.entries[i * self.cols + j]

    def to_lists(self) -> list[list[int]]:
        n, e = self.cols, self.entries
        return [list(e[i : i + n]) for i in range(0, self.rows * n, n)]


class SNFResult(namedtuple("SNFResult", "D U V invariant_factors")):
    """Smith normal form ``U @ A @ V == D`` with unimodular U, V.

    D, U and V are tuples of row tuples.  ``invariant_factors`` are the
    nonzero diagonal entries of D; each is positive and divides the next.
    """

    __slots__ = ()

    @property
    def rank(self) -> int:
        return len(self.invariant_factors)

    def cokernel(self) -> "AbelianGroup":
        """Group presented by the reduced matrix: Z per zero column, Z/d per factor d > 1."""
        torsion = tuple(f for f in self.invariant_factors if f > 1)
        return AbelianGroup(free_rank=len(self.V) - self.rank, torsion=torsion)


class AbelianGroup(namedtuple("AbelianGroup", "free_rank torsion")):
    """Finitely generated abelian group Z^free_rank + Z/t1 + ... + Z/tk.

    Torsion coefficients satisfy ``t_i >= 2`` and ``t_i | t_{i+1}``.
    """

    __slots__ = ()

    def __new__(cls, free_rank: int, torsion: tuple[int, ...]) -> AbelianGroup:
        if free_rank < 0:
            raise ValueError("negative free rank")
        for t in torsion:
            if t < 2:
                raise ValueError(f"torsion coefficient {t} < 2")
        for a, b in zip(torsion, torsion[1:]):
            if b % a != 0:
                raise ValueError(f"torsion {a} does not divide {b}")
        return super().__new__(cls, free_rank, torsion)

    def order(self) -> int | None:
        """Group order, or None when infinite."""
        if self.free_rank > 0:
            return None
        n = 1
        for t in self.torsion:
            n *= t
        return n

    def is_cyclic(self) -> bool:
        return self.free_rank + len(self.torsion) <= 1

    def __str__(self) -> str:
        parts = ["Z"] * self.free_rank + [f"Z/{t}" for t in self.torsion]
        return " + ".join(parts) if parts else "0"


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


def smith_normal_form(a: IntMatrix) -> SNFResult:
    """Diagonalize ``a`` over Z by unimodular row and column operations.

    Returns D, U, V with ``U @ a @ V == D``, D diagonal with nonnegative
    entries whose nonzero part forms a divisibility chain.  Total on any
    nonempty matrix; the pivot rule makes the output deterministic.
    """
    m, n = a.rows, a.cols
    if m == 0:
        raise ValueError("smith_normal_form requires a nonempty matrix")
    d = a.to_lists()
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


def cokernel_invariants(a: IntMatrix) -> AbelianGroup:
    """Abelian group presented by ``a`` (relations in rows, generators in columns)."""
    if a.rows == 0:
        return AbelianGroup(free_rank=a.cols, torsion=())
    return smith_normal_form(a).cokernel()


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


def _lattice_generator(pairs: list[tuple[int, int]]) -> tuple[int, int] | None:
    """Generator of the rank-1 lattice spanned by ``pairs`` in Z^2.

    Returns None when every pair is zero; raises when the span has rank 2.
    """
    nonzero = [p for p in pairs if p != (0, 0)]
    if not nonzero:
        return None
    x0, y0 = nonzero[0]
    for x, y in nonzero[1:]:
        if x0 * y - y0 * x != 0:
            raise ValueError("lattice has rank 2")
    g = gcd(x0, y0)
    dx, dy = x0 // g, y0 // g
    mults = [x // dx if dx else y // dy for x, y in nonzero]
    c = 0
    for mlt in mults:
        c = gcd(c, mlt)
    return c * dx, c * dy


def _left_kernel_heads(d: list[list[int]]) -> list[tuple[int, int]]:
    """First two coordinates of a basis of the left kernel of ``d``.

    Row-only (Hermite) echelon reduction, done in place on ``d``: unimodular
    row operations bring it to echelon form, column by column, with the
    pivot chosen as the minimal nonzero absolute value (smallest row index
    on ties).  The rows of the transform U that land on zero rows of the
    echelon form span the left kernel; only U's first two columns are
    carried, since those are all the projection reads.
    """
    m, n = len(d), len(d[0])
    u = [(0, 0)] * m
    u[0], u[1] = (1, 0), (0, 1)
    t = 0
    for j in range(n):
        while t < m:
            piv, best = -1, 0
            for i in range(t, m):
                e = d[i][j]
                if e and (piv < 0 or abs(e) < best):
                    piv, best = i, abs(e)
            if piv < 0:
                break
            d[t], d[piv] = d[piv], d[t]
            u[t], u[piv] = u[piv], u[t]
            top, pivot = d[t], d[t][j]
            (ux, uy), cleared = u[t], True
            for i in range(t + 1, m):
                e = d[i][j]
                if e:
                    q = e // pivot
                    d[i] = [x - q * y for x, y in zip(d[i], top)]
                    u[i] = (u[i][0] - q * ux, u[i][1] - q * uy)
                    cleared = cleared and not d[i][j]
            if cleared:
                t += 1
                break
    return u[t:]


def peripheral_kernel(a: IntMatrix, mu_col: int, lambda_col: int) -> tuple[int, int]:
    """Generator of the kernel of Z^2 -> coker(a), (1,0) -> [mu], (0,1) -> [lambda].

    Works purely through an exact row (Hermite) reduction of the
    presentation, independent of any closed-form answer, so it can serve
    as an oracle.  The generator is normalized to have y >= 0, and x >= 0
    when y = 0.

    Raises ValueError when the kernel is not infinite cyclic, which signals
    a malformed presentation.
    """
    if not (0 <= mu_col < a.cols and 0 <= lambda_col < a.cols):
        raise ValueError("mu/lambda column out of range")
    if mu_col == lambda_col:
        raise ValueError("mu and lambda columns must differ")

    # (x, y, c) with x*e_mu + y*e_lambda + c*A = 0 is exactly the left kernel
    # of A with e_mu, e_lambda stacked on top; project it to (x, y).
    e_mu = [0] * a.cols
    e_mu[mu_col] = 1
    e_lam = [0] * a.cols
    e_lam[lambda_col] = 1
    pairs = _left_kernel_heads([e_mu, e_lam] + a.to_lists())
    try:
        generator = _lattice_generator(pairs)
    except ValueError:
        raise ValueError("peripheral kernel is not cyclic of rank 1 (rank 2)")
    if generator is None:
        raise ValueError("peripheral kernel is not cyclic of rank 1 (trivial)")
    x, y = generator
    if y < 0 or (y == 0 and x < 0):
        x, y = -x, -y
    return x, y
