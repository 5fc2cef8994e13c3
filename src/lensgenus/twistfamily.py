"""Annulus-twist families of homologous knots, as framed surgery data.

The family K(a,b,n) lives in L(2k,1), k = a + b + 2: a nonorientable
spanning surface made of a disk with k positively half-twisted bands, a
curve gamma through every band, and a co-orientable curve alpha through
two bands, whose push-offs are resurgered to twist gamma.  The deliverable
here is the six-component framed link of that construction, exact first
homology of its fillings and the class of the unfilled component (both
read off one Smith normal form of the filled relations), and an export
line for external geometry software.

The linking numbers are not all forced by the text; the free ones were
derived from the band picture and are locked by the homology grid: every
(a, b, n) must give H1 = Z/2k with gamma in the order-2 class k, the
gamma complement must match the winding-number presentation, and swapping
a and b must change nothing.  Any edit that fails that grid is wrong.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import DomainError
from .exactarith import (
    AbelianGroup,
    IntMatrix,
    cokernel_coordinates,
    cokernel_invariants,
    smith_normal_form,
)

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


def _relation_matrix(fl: FramedLink, generators: Sequence[int]) -> IntMatrix:
    """Surgery relations over the meridians listed in ``generators``.

    Filling component i by p/q imposes p*mu_i + q * sum lk(i,j) mu_j = 0.
    Only filled components among ``generators`` contribute a relation,
    but the relation sees every generator.
    """
    rows = []
    for i in generators:
        fr = fl.components[i].framing
        if fr is None:
            continue
        row = [
            fr.numerator if j == i else fr.denominator * fl.linking[i][j]
            for j in generators
        ]
        rows.append(row)
    if not rows:
        return IntMatrix.zero_rows(len(generators))
    return IntMatrix.from_rows(rows)


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
    snf = smith_normal_form(_relation_matrix(fl, filled))
    group = snf.cokernel()
    if label is None:
        return group, None
    if not group.is_cyclic():
        raise ValueError(f"first homology {group} is not cyclic")
    if group.order() == 1:
        return group, 0
    vec = tuple(fl.linking[idx][j] for j in filled)
    # The diagonal runs 1, ..., 1 and then the lone entry that is not 1,
    # which carries the cyclic coordinate; only that one is computed.
    (cls,) = cokernel_coordinates(snf, vec, (snf.invariant_factors.count(1),))
    return group, cls


def h1_of_complement(fl: FramedLink) -> AbelianGroup:
    """First homology of the filled manifold minus the unfilled components."""
    return cokernel_invariants(_relation_matrix(fl, range(len(fl.components))))


#: Homology check of K(a,b,n): the filling has H1 = Z/2k, gamma in class k.
TwistVerdict = namedtuple("TwistVerdict", "params diagram h1 gamma_class holds")


def twist_verdict(t: TwistParams) -> TwistVerdict:
    """Build the diagram of K(a,b,n) and check its filling homology.

    One Smith form of the filled relations gives both H1 and gamma's class.
    Class k is its own negative mod 2k, so the check does not depend on
    the orientation of gamma.
    """
    fl = build_twist_diagram(t)
    group, cls = filling_homology(fl, "gamma")
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


def export_filling_specs(
    verdicts: Iterable[TwistVerdict],
    path: str,
    sidecar_path: str | None = None,
) -> int:
    """Write one canonical spec line per verdict's triple; returns the count.

    The optional JSON sidecar records, per triple, the parameters, the
    order of the filled manifold's first homology, the class of the
    unfilled component, and the spec line, all read from the verdict.
    """
    import json  # only a call that exports pays for it

    lines = []
    records = []
    for v in verdicts:
        t = v.params
        text = filling_spec_export(t)
        lines.append(text)
        records.append(
            {
                "a": t.a,
                "b": t.b,
                "n": t.n,
                "k": t.k,
                "h1_order": v.h1.order(),
                "gamma_class": v.gamma_class,
                "spec": text,
            }
        )
    files = [(path, "\n".join(lines) + ("\n" if lines else ""))]
    if sidecar_path is not None:
        files.append((sidecar_path, json.dumps(records, indent=2, sort_keys=True) + "\n"))
    _write_all_or_none(files)
    return len(lines)


def _write_all_or_none(files: Sequence[tuple[str, str]]) -> None:
    """Write each ``(path, text)``, or leave every existing file as it was.

    Every text first goes to a temporary file beside its target, and the
    targets are replaced only once all of them are written, so a missing
    directory or a denied write changes no file.  An empty path or an
    existing directory, which would fail only at its rename, is refused
    before any temporary file is written.  An ``OSError`` names the target
    path, never the temporary one.
    """
    import errno
    import os
    from contextlib import suppress

    for target, _ in files:
        if not target or os.path.isdir(target):
            code = errno.EISDIR if target else errno.ENOENT
            raise OSError(code, os.strerror(code), target)
    temps: list[tuple[str, str]] = []
    try:
        for target, text in files:
            tmp = f"{target}.{os.getpid()}.tmp"
            with open(tmp, "x", encoding="ascii") as fh:
                temps.append((tmp, target))
                fh.write(text)
        for tmp, target in temps:
            os.replace(tmp, target)
    except OSError as exc:
        raise type(exc)(exc.errno, exc.strerror, target) from exc
    finally:
        for tmp, _ in temps:
            with suppress(FileNotFoundError):
                os.remove(tmp)
