import json
import re
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lensgenus import cli, exactarith, twistfamily
from lensgenus.complement import WindingData, presentation_matrix
from lensgenus.errors import ConsistencyError
from lensgenus.exactarith import AbelianGroup
from lensgenus.lens import LensSpace
from lensgenus.twistfamily import (
    UNFILLED,
    FramedLink,
    LinkComponent,
    TwistParams,
    build_twist_diagram,
    filling_spec_export,
    twist_framings,
    twist_homology,
    twist_verdict,
)

from _oracles import cokernel_invariants, filling_homology, h1_of_complement

TWIST_GRID = [
    (a, b, n)
    for a in range(1, 6)
    for b in range(1, 6)
    for n in [-5, -3, -1, 1, 2, 4, 5]
]

#: The grid of the CI sweep ``sweep twist --a 1:5 --b 1:5 --n=-5:5``.
CI_TWIST_GRID = [(a, b, n) for a in range(1, 6) for b in range(1, 6) for n in range(-5, 6) if n]

#: Band counts of any size: small ones, Hypothesis's own unbounded draw, and 30 digits.
band_counts = st.one_of(st.integers(1, 20), st.integers(min_value=1),
                        st.integers(10**29, 10**30 - 1))
twist_counts = st.one_of(band_counts, band_counts.map(lambda x: -x))


def relinked(fl, i, j, delta):
    """``fl`` with the linking number of components i and j moved by ``delta``."""
    linking = [list(row) for row in fl.linking]
    linking[i][j] += delta
    linking[j][i] += delta
    return FramedLink(fl.components, tuple(map(tuple, linking)))


class TestTwistFramings:
    @pytest.mark.parametrize(
        "n, expected",
        [
            (1, (Fraction(0), Fraction(2))),
            (-1, (Fraction(2), Fraction(0))),
            (5, (Fraction(4, 5), Fraction(6, 5))),
        ],
    )
    def test_examples(self, n, expected):
        assert twist_framings(n) == expected

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            twist_framings(0)


class TestDiagram:
    def test_structure(self):
        fl = build_twist_diagram(TwistParams(2, 3, 4))
        assert len(fl.components) == 6
        unfilled = [c for c in fl.components if c.framing is UNFILLED]
        assert [c.label for c in unfilled] == ["gamma"]

    def test_frozen_framings(self):
        fl = build_twist_diagram(TwistParams(1, 3, 2))
        values = [c.framing for c in fl.components[:5]]
        assert values == [
            Fraction(8),
            Fraction(-1),
            Fraction(-1, 3),
            Fraction(1, 2),
            Fraction(3, 2),
        ]

    def test_first_example_framings(self):
        fl = build_twist_diagram(TwistParams(1, 1, 1))
        assert fl.components[0].framing == 6
        assert fl.components[3].framing == 0
        assert fl.components[4].framing == 2

    def test_validation(self):
        with pytest.raises(ValueError):
            TwistParams(0, 1, 1)
        with pytest.raises(ValueError):
            TwistParams(1, 1, 0)


class TestFramedLink:
    def test_symmetry_enforced(self):
        with pytest.raises(ValueError, match="symmetric"):
            FramedLink(
                components=(
                    LinkComponent("x", Fraction(1)),
                    LinkComponent("y", Fraction(1)),
                ),
                linking=((0, 1), (2, 0)),
            )

    def test_diagonal_enforced(self):
        with pytest.raises(ValueError, match="diagonal"):
            FramedLink(
                components=(LinkComponent("x", Fraction(1)),),
                linking=((3,),),
            )


class TestFillingHomology:
    def test_single_unknot(self):
        fl = FramedLink(
            components=(LinkComponent("u", Fraction(8)),),
            linking=((0,),),
        )
        assert filling_homology(fl)[0] == AbelianGroup(0, (8,))

    def test_hopf_link_surgery_description(self):
        # p/q on one component, the other unfilled: the filled manifold is
        # the lens space, its homology Z/p.
        for p, q in [(8, 1), (5, 2), (13, 5)]:
            fl = FramedLink(
                components=(
                    LinkComponent("L2", Fraction(p, q)),
                    LinkComponent("L1", UNFILLED),
                ),
                linking=((0, 1), (1, 0)),
            )
            assert filling_homology(fl)[0] == AbelianGroup(0, (p,))
            assert filling_homology(fl, "L1")[1] == 1 % p

    def test_no_filled_component_is_s3(self):
        fl = FramedLink(components=(LinkComponent("K", UNFILLED),), linking=((0,),))
        assert filling_homology(fl)[0] == AbelianGroup(0, ())
        assert filling_homology(fl, "K")[1] == 0

    def test_no_label_reads_no_class(self):
        # With no label the class is None, whether or not anything is filled.
        s3 = FramedLink(components=(LinkComponent("K", UNFILLED),), linking=((0,),))
        lens = FramedLink(
            components=(LinkComponent("L2", Fraction(5, 2)), LinkComponent("L1", UNFILLED)),
            linking=((0, 1), (1, 0)),
        )
        assert filling_homology(s3) == (AbelianGroup(0, ()), None)
        assert filling_homology(lens) == (AbelianGroup(0, (5,)), None)

    def test_unknot_framed_one_is_s3(self):
        fl = FramedLink(
            components=(LinkComponent("U", Fraction(1)), LinkComponent("K", UNFILLED)),
            linking=((0, 1), (1, 0)),
        )
        assert filling_homology(fl)[0] == AbelianGroup(0, ())
        assert filling_homology(fl, "K")[1] == 0

    def test_twist_diagram_gives_order_two_k(self):
        fl = build_twist_diagram(TwistParams(1, 1, 1))
        assert filling_homology(fl)[0] == AbelianGroup(0, (8,))

    def test_grid(self):
        for a, b, n in TWIST_GRID:
            t = TwistParams(a, b, n)
            fl = build_twist_diagram(t)
            assert filling_homology(fl)[0] == AbelianGroup(0, (2 * t.k,)), (a, b, n)

    def test_complement_of_unfilled_link_is_free(self):
        # No filled component gives no relation: H1 of the complement of a
        # link in S^3 is free on its meridians.
        fl = FramedLink(
            components=(LinkComponent("K", UNFILLED), LinkComponent("J", UNFILLED)),
            linking=((0, 3), (3, 0)),
        )
        assert h1_of_complement(fl) == AbelianGroup(2, ())

    def test_complement_matches_winding_presentation(self):
        # The knot has winding number k in the Heegaard solid torus, so the
        # complement homology must match the winding-number presentation.
        for a, b, n in [(1, 1, 1), (1, 3, 2), (2, 2, 5), (3, 5, -4)]:
            t = TwistParams(a, b, n)
            fl = build_twist_diagram(t)
            data = WindingData(LensSpace(2 * t.k, 1), t.k)
            assert h1_of_complement(fl) == cokernel_invariants(
                presentation_matrix(data)
            )


class TestUnfilledClass:
    def test_first_example(self):
        fl = build_twist_diagram(TwistParams(1, 1, 1))
        assert filling_homology(fl, "gamma")[1] == 4

    def test_independent_of_n(self):
        for a, b in [(1, 3), (2, 2), (4, 5)]:
            values = {
                filling_homology(build_twist_diagram(TwistParams(a, b, n)), "gamma")[1]
                for n in [-5, -2, -1, 1, 2, 3, 5]
            }
            assert len(values) == 1
            k = a + b + 2
            assert values.pop() % (2 * k) in (k, (-k) % (2 * k))

    def test_specific_values(self):
        assert filling_homology(build_twist_diagram(TwistParams(1, 3, 2)), "gamma")[1] == 6
        assert filling_homology(build_twist_diagram(TwistParams(2, 2, 5)), "gamma")[1] == 6

    def test_swap_symmetry(self):
        for a, b, n in [(1, 3, 2), (2, 5, -4), (4, 1, 3)]:
            one = build_twist_diagram(TwistParams(a, b, n))
            two = build_twist_diagram(TwistParams(b, a, n))
            assert filling_homology(one)[0] == filling_homology(two)[0]
            assert filling_homology(one, "gamma")[1] == filling_homology(two, "gamma")[1]

    def test_verdict_on_grid(self):
        for a, b, n in TWIST_GRID:
            t = TwistParams(a, b, n)
            v = twist_verdict(t)
            assert v.holds, (a, b, n)
            assert v.h1 == filling_homology(v.diagram)[0] == AbelianGroup(0, (2 * t.k,))
            assert v.gamma_class == filling_homology(v.diagram, "gamma")[1]

    def test_verdict_validates_four_pivots(self, monkeypatch):
        # The relation rows stay plain int lists: no matrix is validated.  The
        # fold sets aside one pivot per meridian but dF's, each 1 or -1.
        matrices, folds = [], []
        real_post_init = exactarith.IntMatrix.__post_init__
        monkeypatch.setattr(exactarith.IntMatrix, "__post_init__",
                            lambda m: matrices.append((m.rows, m.cols)) or real_post_init(m))
        real_fold = twistfamily.fold_columns

        def fold(rows, cols, *args):
            cols = list(cols)
            pivots, rest = real_fold(rows, cols, *args)
            folds.append((len(rows), cols, [p[j] for j, p in zip(cols, pivots)], len(rest)))
            return pivots, rest

        monkeypatch.setattr(twistfamily, "fold_columns", fold)
        assert twist_verdict(TwistParams(1, 1, 1)).holds
        assert matrices == []
        [(rows, cols, units, left)] = folds
        assert (rows, cols, left) == (5, [1, 2, 3, 4], 1)
        assert all(u in (1, -1) for u in units)

    def test_filled_component_rejected(self):
        fl = build_twist_diagram(TwistParams(1, 1, 1))
        with pytest.raises(ValueError, match="filled"):
            filling_homology(fl, "dF")

    def test_unknown_label_rejected(self):
        fl = build_twist_diagram(TwistParams(1, 1, 1))
        with pytest.raises(ValueError, match="no component labelled 'delta'"):
            filling_homology(fl, "delta")

    def test_non_cyclic_homology_rejected(self):
        # Two unlinked 0-framed unknots fill to H1 = Z^2.
        fl = FramedLink(
            components=(LinkComponent("U", Fraction(0)), LinkComponent("V", Fraction(0)),
                        LinkComponent("K", UNFILLED)),
            linking=((0, 0, 1), (0, 0, 0), (1, 0, 0)),
        )
        with pytest.raises(ValueError, match="not cyclic"):
            filling_homology(fl, "K")


class TestTwistHomology:
    def test_agrees_with_smith_form_on_ci_grid(self):
        for a, b, n in CI_TWIST_GRID:
            fl = build_twist_diagram(TwistParams(a, b, n))
            assert twist_homology(fl) == filling_homology(fl, "gamma"), (a, b, n)

    @given(band_counts, band_counts, twist_counts)
    @example(10**30 + 1, 7, -(10**20))
    @example(1, 1, 1)
    @settings(max_examples=200, deadline=None)
    def test_agrees_with_smith_form_unbounded(self, a, b, n):
        t = TwistParams(a, b, n)
        fl = build_twist_diagram(t)
        assert twist_homology(fl) == filling_homology(fl, "gamma")
        assert twist_homology(fl) == (AbelianGroup(0, (2 * t.k,)), t.k)

    @given(band_counts, band_counts, twist_counts)
    @example(10**30 + 1, 7, -(10**20))
    @settings(max_examples=200, deadline=None)
    def test_block_identity_in_closed_form(self, a, b, n):
        # (dF, A, B, alpha0, alpha1) = (1, a, b, 2n, -2n) * dF kills every
        # relation but dF's, which reads 2k * dF, and gamma reads k * dF.
        t = TwistParams(a, b, n)
        fl = build_twist_diagram(t)
        filled = fl.filled_indices()
        assert [fl.components[i].label for i in filled] == [
            "dF", "Acircle", "Bcircle", "alpha0", "alpha1"]
        dF = (1, a, b, 2 * n, -2 * n)
        rows = twistfamily._relation_rows(fl, filled)
        assert [sum(x * y for x, y in zip(row, dF)) for row in rows] == [2 * t.k, 0, 0, 0, 0]
        gamma = fl.linking[fl.index_of("gamma")]
        assert sum(gamma[j] * y for j, y in zip(filled, dF)) == t.k

    @pytest.mark.parametrize("n", [1, 2, -3])
    def test_relinked_diagram_has_no_unimodular_block(self, n):
        # lk(Acircle, Bcircle) = 1 leaves the Bcircle pivot -2, and the Smith
        # form agrees that the diagram no longer gives Z/2k.
        fl = relinked(build_twist_diagram(TwistParams(1, 1, n)), 1, 2, 1)
        with pytest.raises(ConsistencyError, match="pivot -2 on the Bcircle meridian"):
            twist_homology(fl)
        assert filling_homology(fl)[0] != AbelianGroup(0, (8,))

    def test_relinked_diagram_with_infinite_homology(self):
        # lk(dF, alpha1) = 4 keeps every pivot a unit but fills to H1 = Z;
        # gamma's class is then an integer, as the Smith form reads it.
        fl = relinked(build_twist_diagram(TwistParams(1, 1, 1)), 0, 4, 2)
        assert twist_homology(fl) == filling_homology(fl, "gamma") == (AbelianGroup(1, ()), 2)

    def test_zero_column_is_no_unit(self):
        fl = relinked(build_twist_diagram(TwistParams(1, 1, 1)), 1, 2, -1)
        with pytest.raises(ConsistencyError, match="pivot 0 on the Bcircle meridian"):
            twist_homology(fl)


def cusps(line):
    """The filling slopes of a spec line, in cusp order; None for ``inf``."""
    found = re.findall(r"\((-?\d+),(-?\d+)\)|(inf)", line)
    slopes = [None if inf else (int(x), int(y)) for x, y, inf in found]
    text = ",".join("inf" if f is None else f"({f[0]},{f[1]})" for f in slopes)
    assert line == f"M({text})"  # the slopes are the whole line
    return slopes


def export(capsys, triple, path, sidecar=None):
    """Exit code of ``twist`` at ``triple`` with ``--export path`` (and ``--sidecar``)."""
    argv = ["twist", *(f"--{flag}={v}" for flag, v in zip("abn", triple)), "--export", str(path)]
    code = cli.main(argv + (["--sidecar", str(sidecar)] if sidecar else []))
    capsys.readouterr()
    return code


class TestExport:
    def test_canonical_lines(self):
        line = filling_spec_export(TwistParams(1, 1, 1))
        assert line == "M((-1,1),(-1,1),(6,1),(0,1),(2,1),inf)"
        line = filling_spec_export(TwistParams(1, 3, 2))
        assert line == "M((-1,1),(-1,3),(8,1),(1,2),(3,2),inf)"
        assert filling_spec_export(TwistParams(2, 3, -5)).endswith("(-6,-5),(-4,-5),inf)")

    def test_n_one_gives_zero_filling(self):
        assert cusps(filling_spec_export(TwistParams(2, 3, 1)))[3] == (0, 1)

    def test_pairs_coprime(self):
        for a, b, n in TWIST_GRID:
            slopes = cusps(filling_spec_export(TwistParams(a, b, n)))
            assert len(slopes) == 6 and slopes[-1] is None
            assert all(gcd(x, y) == 1 for x, y in slopes[:-1])

    def test_byte_stable(self):
        lines = {filling_spec_export(TwistParams(2, 3, -5)) for _ in range(5)}
        assert len(lines) == 1

    def test_export_files(self, tmp_path, capsys):
        out = tmp_path / "specs.txt"
        sidecar = tmp_path / "specs.json"
        assert export(capsys, (1, 1, 1), out, sidecar) == 0
        assert out.read_text() == "M((-1,1),(-1,1),(6,1),(0,1),(2,1),inf)\n"
        records = json.loads(sidecar.read_text())
        assert records == [{
            "a": 1,
            "b": 1,
            "n": 1,
            "k": 4,
            "h1_order": 8,
            "gamma_class": 4,
            "spec": "M((-1,1),(-1,1),(6,1),(0,1),(2,1),inf)",
        }]
        assert export(capsys, (1, 3, 2), out) == 0
        assert out.read_text() == "M((-1,1),(-1,3),(8,1),(1,2),(3,2),inf)\n"

    @pytest.mark.parametrize("bad, name, error", [
        (bad, name, error)
        for name, error in [("missing/x", FileNotFoundError), ("", FileNotFoundError),
                            ("D", IsADirectoryError)]
        for bad in ("export", "sidecar")
    ], ids=["export", "sidecar", "empty-export", "empty-sidecar",
            "directory-export", "directory-sidecar"])
    def test_bad_path_leaves_the_other_file(self, tmp_path, bad, name, error):
        (tmp_path / "D").mkdir()
        paths = {"export": tmp_path / "specs.txt", "sidecar": tmp_path / "specs.json"}
        for path in paths.values():
            path.write_bytes(b"kept\n")
        paths[bad] = str(tmp_path / name) if name else ""
        with pytest.raises(error) as raised:
            cli._write_all_or_none([(str(paths["export"]), "spec\n"),
                                    (str(paths["sidecar"]), "[]\n")])
        # The error names the target the caller gave, not a temporary file.
        assert raised.value.filename == paths[bad]
        kept = "sidecar" if bad == "export" else "export"
        assert paths[kept].read_bytes() == b"kept\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["D", "specs.json", "specs.txt"]

    def test_no_temporary_file_left(self, tmp_path, capsys):
        out, sidecar = tmp_path / "specs.txt", tmp_path / "specs.json"
        out.write_bytes(b"old\n")
        assert export(capsys, (1, 1, 1), out, sidecar) == 0
        assert export(capsys, (1, 3, 2), out) == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == ["specs.json", "specs.txt"]
        assert out.read_text() == "M((-1,1),(-1,3),(8,1),(1,2),(3,2),inf)\n"
        assert json.loads(sidecar.read_text())[0]["spec"] == (
            "M((-1,1),(-1,1),(6,1),(0,1),(2,1),inf)"
        )
