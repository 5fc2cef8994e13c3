"""Exact integer matrices, abelian groups, and the peripheral kernel.

Everything in this module works over arbitrary-precision Python integers;
there is no floating point anywhere.  One reduction does the work:
``fold_columns``, the 2x2 gcd step that clears chosen columns of a list of
integer rows.  It reads the twist family's homology, and the peripheral
kernel (the boundary classes that bound): the relation lattice, the row
space of the presentation, cut by the (mu, lambda) coordinate plane.  Its
answer is the normalized generator of a rank-1 lattice in Z^2, so no pivot
rule shows in it.

Inputs are validated as ``IntMatrix`` at the public functions; the
reduction itself runs on plain lists.  No Smith normal form lives here:
the test suite keeps one as the independent oracle of both uses of the fold.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import repeat
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
        if not all(map(isinstance, self.entries, repeat(int))):
            raise ValueError("entries must be integers")

    @classmethod
    def from_rows(cls, rows: list[list[int]] | tuple) -> "IntMatrix":
        """The matrix of ``rows``; ``[]`` fixes no column count, so it is refused."""
        if not rows:
            raise ValueError("an empty row list fixes no column count: "
                             "build IntMatrix(0, cols, ()) instead")
        ncols = len(rows[0])
        if any(len(r) != ncols for r in rows):
            raise ValueError("ragged rows")
        return cls(len(rows), ncols, tuple(e for r in rows for e in r))

    def to_lists(self) -> list[list[int]]:
        n, e = self.cols, self.entries
        return [list(e[i : i + n]) for i in range(0, self.rows * n, n)]


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

    def __str__(self) -> str:
        parts = ["Z"] * self.free_rank + [f"Z/{t}" for t in self.torsion]
        return " + ".join(parts) if parts else "0"


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


def fold_columns(
    rows: list[list[int]], cols: list[int], pivots: bool = True
) -> tuple[list[list[int] | None], list[list[int]]]:
    """Clear ``cols`` of ``rows`` in turn: the pivot rows set aside, and the rows left.

    For each column the rows nonzero there are folded into one pivot row,
    two at a time, by a 2x2 unimodular step from an extended gcd, and the
    pivot is set aside; the rows left are zero in every cleared column, and
    with the pivots they span the lattice ``rows`` did.  A pivot holds its
    column's gcd there up to sign and is zero in the columns cleared before
    it; a zero column sets aside None.  With ``pivots`` False no pivot is
    kept and the last step of each column, which only forms it, is skipped.
    """
    set_aside: list[list[int] | None] = []
    for j in cols:
        hits = [r for r in rows if r[j]]
        if not hits:
            if pivots:
                set_aside.append(None)
            continue
        rows = [r for r in rows if not r[j]]
        top = hits[0]
        for k, row in enumerate(hits[1:], 2):
            # With t*s + e*c = g = gcd(t, e), the step [[s, c], [e/g, -t/g]]
            # has determinant -1: the new pivot holds g at j, the other row 0.
            t, e = top[j], row[j]
            g = gcd(t, e)
            x, y = e // g, t // g
            rows.append([x * u - y * v for u, v in zip(top, row)])
            if pivots or k < len(hits):
                s = pow(y, -1, abs(x))
                c = (g - s * t) // e
                top = [s * u + c * v for u, v in zip(top, row)]
        if pivots:
            set_aside.append(top)
    return set_aside, rows


def peripheral_kernel(a: IntMatrix, mu_col: int, lambda_col: int) -> tuple[int, int]:
    """Generator of the kernel of Z^2 -> coker(a), (1,0) -> [mu], (0,1) -> [lambda].

    (x, y) dies exactly when x*e_mu + y*e_lambda lies in the row space of
    ``a``, so the kernel is that lattice cut by the (mu, lambda) plane.
    Each other column is cleared in turn by ``fold_columns``, and its
    pivot row is set aside: the other rows are zero in that column, so a
    combination that vanishes there leaves the pivot out.  The rows left
    are zero off (mu, lambda), and their (mu, lambda) entries span the
    kernel.  This reads only the presentation, independent of any
    closed-form answer, so it can serve as an oracle.  The generator is
    normalized to have y >= 0, and x >= 0 when y = 0.

    Raises ValueError when the kernel is not infinite cyclic, which signals
    a malformed presentation.
    """
    if not (0 <= mu_col < a.cols and 0 <= lambda_col < a.cols):
        raise ValueError("mu/lambda column out of range")
    if mu_col == lambda_col:
        raise ValueError("mu and lambda columns must differ")

    others = list(range(a.cols))
    others.remove(mu_col)
    others.remove(lambda_col)
    # The pivots are only set aside, so they are never formed.
    _, rows = fold_columns(a.to_lists(), others, pivots=False)
    try:
        generator = _lattice_generator([(r[mu_col], r[lambda_col]) for r in rows])
    except ValueError:
        raise ValueError("peripheral kernel is not cyclic of rank 1 (rank 2)")
    if generator is None:
        raise ValueError("peripheral kernel is not cyclic of rank 1 (trivial)")
    x, y = generator
    if y < 0 or (y == 0 and x < 0):
        x, y = -x, -y
    return x, y
