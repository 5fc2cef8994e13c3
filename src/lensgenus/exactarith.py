"""Exact integer matrices, abelian groups, and the peripheral kernel.

Everything in this module works over arbitrary-precision Python integers;
there is no floating point anywhere.  One reduction does the work:
``fold_columns``, the 2x2 gcd step that clears chosen columns of a list of
integer rows.  It reads the twist family's homology, and the peripheral
kernel (the boundary classes that bound): the relation lattice, the row
space of the presentation, cut by the (mu, lambda) coordinate plane.  Its
answer is the normalized generator of a rank-1 lattice in Z^2, so no pivot
rule shows in it.

Both work on plain integer rows, tuples or lists: ``peripheral_kernel``
checks their shape once and folds them as given, with no copy.  The
library builds no ``IntMatrix``; the type stays for the test suite's Smith
form and for the benchmark's count of matrices built.  No Smith normal
form lives here: the test suite keeps one as the independent oracle of both
uses of the fold.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable, Sequence
from itertools import repeat
from math import gcd
from operator import itemgetter

_TRIVIAL = "peripheral kernel is not cyclic of rank 1 (trivial)"


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


def _lattice_generator(pairs: Iterable[tuple[int, int]]) -> tuple[int, int] | None:
    """Generator of the rank-1 lattice spanned by ``pairs`` in Z^2.

    Returns None when every pair is zero; raises when the span has rank 2.
    One pass: the first nonzero pair fixes the primitive direction, and each
    later pair must lie on it; the generator is that direction times the
    gcd of every pair's multiple of it.
    """
    pairs = iter(pairs)
    for x0, y0 in pairs:
        if x0 or y0:
            break
    else:
        return None
    c = gcd(x0, y0)
    dx, dy = x0 // c, y0 // c
    for x, y in pairs:
        if x0 * y != y0 * x:
            raise ValueError("lattice has rank 2")
        c = gcd(c, x // dx if dx else y // dy)
    return c * dx, c * dy


def fold_columns(
    rows: Sequence[Sequence[int]], cols: Iterable[int], pivots: bool = True
) -> tuple[list[Sequence[int] | None], list[Sequence[int]]]:
    """Clear ``cols`` of ``rows`` in turn: the pivot rows set aside, and the rows left.

    For each column the rows nonzero there are folded into one pivot row,
    two at a time, by a 2x2 unimodular step from an extended gcd, and the
    pivot is set aside; the rows left are zero in every cleared column, and
    with the pivots they span the lattice ``rows`` did.  A pivot holds its
    column's gcd there up to sign and is zero in the columns cleared before
    it; a zero column sets aside None.  With ``pivots`` False no pivot is
    kept and the last step of each column, which only forms it, is skipped.
    The rows may be tuples or lists and are never changed: a row no step
    touches is passed on as given, and every row a step makes is a list.
    """
    set_aside: list[Sequence[int] | None] = []
    for j in cols:
        hits: list[Sequence[int]] = []
        rest: list[Sequence[int]] = []
        for row in rows:
            if row[j]:
                hits.append(row)
            else:
                rest.append(row)
        rows = rest
        if not hits:
            if pivots:
                set_aside.append(None)
            continue
        hits_left = iter(hits)
        top = next(hits_left)
        t = top[j]
        steps_left = len(hits) - 1
        for row in hits_left:
            steps_left -= 1
            # With t*s + e*c = g = gcd(t, e), the step [[s, c], [e/g, -t/g]]
            # has determinant -1: the new pivot holds g at j, the other row 0.
            e = row[j]
            g = gcd(t, e)
            x, y = e // g, t // g
            rows.append([x * u - y * v for u, v in zip(top, row)])
            if pivots or steps_left:
                s = pow(y, -1, abs(x))
                c = (g - s * t) // e
                top = [s * u + c * v for u, v in zip(top, row)]
                t = g
        if pivots:
            set_aside.append(top)
    return set_aside, rows


def peripheral_kernel(
    rows: Sequence[Sequence[int]], mu_col: int, lambda_col: int
) -> tuple[int, int]:
    """Generator of the kernel of Z^2 -> coker(rows), (1,0) -> [mu], (0,1) -> [lambda].

    ``rows`` is the presentation, one integer row per relation, all of one
    length: a tuple of tuples or a list of lists.  (x, y) dies exactly when
    x*e_mu + y*e_lambda lies in the row space, so the kernel is that
    lattice cut by the (mu, lambda) plane.  Each other column is cleared
    in turn by ``fold_columns``, and its pivot row is set aside: the other
    rows are zero in that column, so a combination that vanishes there
    leaves the pivot out.  The rows left are zero off (mu, lambda), and
    their (mu, lambda) entries span the kernel.  This reads only the
    presentation, independent of any closed-form answer, so it can serve
    as an oracle.  The generator is normalized to have y >= 0, and x >= 0
    when y = 0.

    Raises ValueError when the rows are ragged or a column is out of range,
    and when the kernel is not infinite cyclic, which signals a malformed
    presentation; no relation at all leaves the kernel trivial.
    """
    if not rows:
        raise ValueError(_TRIVIAL)
    if len(set(map(len, rows))) != 1:
        raise ValueError("ragged rows")
    ncols = len(rows[0])
    if not (0 <= mu_col < ncols and 0 <= lambda_col < ncols):
        raise ValueError("mu/lambda column out of range")
    if mu_col == lambda_col:
        raise ValueError("mu and lambda columns must differ")

    others = list(range(ncols))
    others.remove(mu_col)
    others.remove(lambda_col)
    # The pivots are only set aside, so they are never formed.
    _, rows = fold_columns(rows, others, pivots=False)
    try:
        generator = _lattice_generator(map(itemgetter(mu_col, lambda_col), rows))
    except ValueError:
        raise ValueError("peripheral kernel is not cyclic of rank 1 (rank 2)")
    if generator is None:
        raise ValueError(_TRIVIAL)
    x, y = generator
    if y < 0 or (y == 0 and x < 0):
        x, y = -x, -y
    return x, y
