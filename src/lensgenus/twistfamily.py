"""Annulus-twist families of homologous knots, as framed surgery data.

The family K(a,b,n) lives in L(2k,1), k = a + b + 2: a nonorientable
spanning surface made of a disk with k positively half-twisted bands, a
curve gamma through every band, and a co-orientable curve alpha through
two bands, whose push-offs are resurgered to twist gamma.  The deliverable
here is the six-component framed link of that construction, exact first
homology of its filling and the class of the unfilled gamma in it, and an
export line for external geometry software.  The module writes no file:
``lensgenus.cli`` writes the line where a command asks for it.

Block identity: for every (a, b, n) the filled relations, over the
meridians (dF, A, B, alpha0, alpha1), have a unimodular block on
(A, B, alpha0, alpha1), and (A, B, alpha0, alpha1, gamma) =
(a, b, 2n, -2n, k) * dF in homology.  Every relation but dF's vanishes on
that substitution and dF's reads 2k * dF, so H1 = Z/2k, generated by dF,
with gamma in class k.  ``twist_verdict`` reads both by ``twist_homology``,
a fold of 2x2 gcd steps over the relation rows that raises on any pivot
other than 1 or -1.  The library has no second homology route: the test
suite reads the same relation rows through a Smith normal form, as the
oracle of the fold.

The linking numbers are not all forced by the text; the free ones were
derived from the band picture and are locked by the homology grid: every
(a, b, n) must give H1 = Z/2k with gamma in the order-2 class k, the
gamma complement must match the winding-number presentation, and swapping
a and b must change nothing.  Any edit that fails that grid is wrong.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from math import gcd
from typing import Sequence

from .errors import ConsistencyError, DomainError
from .exactarith import AbelianGroup, fold_columns

#: Marker for a component left unfilled (a cusp of the exported manifold).
UNFILLED = None


LinkComponent = namedtuple("LinkComponent", "label framing")


class FramedLink(namedtuple("FramedLink", "components linking")):
    """Framed link with a symmetric linking matrix, zero on the diagonal.

    Framings carry the self-linking data, so the diagonal is unused.
    """

    __slots__ = ()

    def __new__(cls, components: tuple[LinkComponent, ...],
                linking: tuple[tuple[int, ...], ...]) -> FramedLink:
        n = len(components)
        if len(linking) != n or any(len(r) != n for r in linking):
            raise ValueError("linking matrix size must match component count")
        for i in range(n):
            if linking[i][i] != 0:
                raise ValueError("linking diagonal must be zero")
            for j in range(i + 1, n):
                if linking[i][j] != linking[j][i]:
                    raise ValueError("linking matrix must be symmetric")
        labels = [c.label for c in components]
        if len(set(labels)) != len(labels):
            raise ValueError("component labels must be unique")
        return super().__new__(cls, components, linking)

    def index_of(self, label: str) -> int:
        for i, c in enumerate(self.components):
            if c.label == label:
                return i
        raise ValueError(f"no component labelled {label!r}")

    def filled_indices(self) -> list[int]:
        return [i for i, c in enumerate(self.components) if c.framing is not None]


class TwistParams(namedtuple("TwistParams", "a b n")):
    """Band counts a, b >= 1 and twist count n != 0; k = a + b + 2."""

    __slots__ = ()

    def __new__(cls, a: int, b: int, n: int) -> TwistParams:
        if a < 1 or b < 1:
            raise DomainError("band counts a, b must be >= 1")
        if n == 0:
            raise DomainError("twist count n must be nonzero")
        return super().__new__(cls, a, b, n)

    @property
    def k(self) -> int:
        return self.a + self.b + 2


def twist_framings(n: int) -> tuple[Fraction, Fraction]:
    """Surgery coefficients (1 - 1/n, 1 + 1/n) for the two alpha push-offs.

    The annulus framing differs from the Seifert framing by one, which
    turns the twist framings into these rational coefficients.  The pair
    is returned in the order (alpha0, alpha1) = (1 - 1/n, 1 + 1/n); the
    homology of the construction is insensitive to swapping the two.
    """
    if n == 0:
        raise ValueError("twist count n must be nonzero")
    return Fraction(n - 1, n), Fraction(n + 1, n)


def build_twist_diagram(t: TwistParams) -> FramedLink:
    """Six-component framed link presenting K(a,b,n) in L(2k,1).

    Components: the surface boundary dF framed k+2 (the 2k surface framing
    minus the a+b twists absorbed into the encircling curves), the two
    encircling curves framed -1/a and -1/b, the two alpha push-offs framed
    per ``twist_framings``, and the unfilled gamma.

    Linking data, locked by the homology grid: each encircling curve links
    dF and gamma once; gamma runs through two bands not absorbed into the
    twist regions, linking dF twice; alpha crosses two such bands as well
    (linking dF twice) and its push-offs link each other once through the
    annulus and gamma once each (their two surface crossings with gamma
    cancel through the annulus).
    """
    k = t.k
    f0, f1 = twist_framings(t.n)
    components = (
        LinkComponent("dF", Fraction(k + 2)),
        LinkComponent("Acircle", Fraction(-1, t.a)),
        LinkComponent("Bcircle", Fraction(-1, t.b)),
        LinkComponent("alpha0", f0),
        LinkComponent("alpha1", f1),
        LinkComponent("gamma", UNFILLED),
    )
    linking = (
        #       dF  A  B a0 a1  g
        (0, 1, 1, 2, 2, 2),  # dF
        (1, 0, 0, 0, 0, 1),  # Acircle
        (1, 0, 0, 0, 0, 1),  # Bcircle
        (2, 0, 0, 0, 1, 1),  # alpha0
        (2, 0, 0, 1, 0, 1),  # alpha1
        (2, 1, 1, 1, 1, 0),  # gamma
    )
    return FramedLink(components=components, linking=linking)


def _relation_rows(fl: FramedLink, generators: Sequence[int]) -> list[list[int]]:
    """Surgery relations over the meridians listed in ``generators``, as int rows.

    Filling component i by p/q imposes p*mu_i + q * sum lk(i,j) mu_j = 0.
    Only filled components among ``generators`` contribute a relation,
    but the relation sees every generator.
    """
    rows = []
    for i in generators:
        fr = fl.components[i].framing
        if fr is None:
            continue
        num, den, lk = fr.numerator, fr.denominator, fl.linking[i]
        rows.append([num if j == i else den * lk[j] for j in generators])
    return rows


def twist_homology(fl: FramedLink) -> tuple[AbelianGroup, int]:
    """H1 of the filled twist diagram and gamma's class, by a unimodular fold.

    The filled relations are read from the diagram's framings and linking
    numbers.  Each meridian column but dF's is cleared by ``fold_columns``,
    and each pivot set aside must be 1 or -1: the relations then have a
    unimodular block off dF, so H1 is cyclic on [dF], of order the gcd of
    the dF entries left over.  Gamma is the sum of its linking numbers times
    the filled meridians; that vector, reduced by the pivots in the order
    they were set aside, is a multiple of [dF], and its dF entry is the
    class: a residue, or an integer when H1 is infinite cyclic.

    Raises ``ConsistencyError`` on any other pivot: the block identity of
    the module docstring fails, so the diagram is wrong.  There is no
    fallback route.
    """
    filled = fl.filled_indices()
    gamma = fl.linking[fl.index_of("gamma")]
    vec = [gamma[j] for j in filled]
    keep = filled.index(fl.index_of("dF"))
    cols = [j for j in range(len(filled)) if j != keep]
    pivots, rows = fold_columns(_relation_rows(fl, filled), cols)
    for j, pivot in zip(cols, pivots):
        unit = pivot[j] if pivot else 0
        if unit != 1 and unit != -1:
            label = fl.components[filled[j]].label
            raise ConsistencyError(
                f"twist diagram pivot {unit} on the {label} meridian is not 1 or -1: "
                "the filled relations have no unimodular block"
            )
        c = vec[j] * unit
        if c:
            vec = [x - c * y for x, y in zip(vec, pivot)]
    order = gcd(*(r[keep] for r in rows))
    if order == 0:
        return AbelianGroup(1, ()), vec[keep]
    return AbelianGroup(0, (order,) if order > 1 else ()), vec[keep] % order


#: Homology check of K(a,b,n): the filling has H1 = Z/2k, gamma in class k.
TwistVerdict = namedtuple("TwistVerdict", "params diagram h1 gamma_class holds")


def twist_verdict(t: TwistParams) -> TwistVerdict:
    """Build the diagram of K(a,b,n) and check its filling homology.

    ``twist_homology`` folds the diagram's filled relations: the block on
    (A, B, alpha0, alpha1) is unimodular, and (A, B, alpha0, alpha1, gamma)
    = (a, b, 2n, -2n, k) * dF turns every relation but dF's into 0 and
    dF's into 2k * dF, so H1 = Z/2k with gamma in class k.  Class k is its
    own negative mod 2k, so the check does not depend on the orientation of
    gamma.
    """
    fl = build_twist_diagram(t)
    group, cls = twist_homology(fl)
    order = 2 * t.k
    return TwistVerdict(t, fl, group, cls, group.order() == order and cls % order == t.k)


def filling_spec_export(t: TwistParams) -> str:
    """Canonical cusp-filling line for the six-component link.

    The cusps are ordered so the filled manifold reads
    M((-1,a),(-1,b),(k+2,1),(n-1,n),(n+1,n),inf); the last cusp is
    unfilled and is the knot K(a,b,n) itself.  Every slope is primitive
    by construction.
    """
    n = t.n
    return f"M((-1,{t.a}),(-1,{t.b}),({t.k + 2},1),({n - 1},{n}),({n + 1},{n}),inf)"
