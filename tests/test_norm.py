from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lensgenus.cables import CableParams, IteratedCableParams, cable_verdict, iterated_verdict
from lensgenus.errors import DomainError
from lensgenus.lens import LensSpace
from lensgenus.norm import (
    NormSummand,
    PeripheralClass,
    SeifertPiece,
    graph_norm,
    orbifold_euler_char,
    torus_pairing,
)
from lensgenus.stabilization import StabFamily, stab_verdict

from _oracles import chi_orb_reference, graph_norm_reference

DISK, ANNULUS, SPHERE = 1, 0, 2


class TestOrbifoldEulerChar:
    def test_disk_two_cones(self):
        assert orbifold_euler_char(SeifertPiece(DISK, (4, 4))) == Fraction(-1, 2)

    def test_annulus_one_cone(self):
        assert orbifold_euler_char(SeifertPiece(ANNULUS, (2,))) == Fraction(-1, 2)

    def test_bare_disk(self):
        assert orbifold_euler_char(SeifertPiece(DISK, ())) == 1

    def test_order_one_cones_are_invisible(self):
        with_ones = SeifertPiece(DISK, (1, 5, 1))
        without = SeifertPiece(DISK, (5,))
        assert orbifold_euler_char(with_ones) == orbifold_euler_char(without)

    def test_cone_order_validation(self):
        with pytest.raises(ValueError):
            SeifertPiece(DISK, (0,))


class TestTorusPairing:
    def test_cable_class_against_fiber(self):
        assert torus_pairing(PeripheralClass(16, 8), PeripheralClass(4, 1)) == -16

    def test_alternating(self):
        x = PeripheralClass(3, 7)
        assert torus_pairing(x, x) == 0

    def test_inner_torus_knot(self):
        assert torus_pairing(PeripheralClass(4, 8), PeripheralClass(2, 1)) == -12


class TestGraphNorm:
    def test_single_fibered_piece(self):
        value, fibered, dropped = graph_norm(
            [NormSummand(SeifertPiece(DISK, (4, 4)), 16)]
        )
        assert value == 8
        assert fibered
        assert dropped == 0

    def test_two_pieces_one_dead(self):
        value, fibered, _ = graph_norm(
            [
                NormSummand(SeifertPiece(ANNULUS, (2,)), 0),
                NormSummand(SeifertPiece(DISK, (2, 6)), 24),
            ]
        )
        assert value == 8
        assert not fibered

    def test_empty_sum(self):
        assert graph_norm([]) == (Fraction(0), True, 0)

    def test_zero_extension_at_chi_zero(self):
        # disk with cones (2,2) has chi_orb = 0: annulus fibers, no cost
        value, fibered, _ = graph_norm([NormSummand(SeifertPiece(DISK, (2, 2)), 5)])
        assert value == 0
        assert fibered

    def test_positive_chi_with_pairing_rejected(self):
        # Over a disk such a piece is a solid torus and is dropped; over any
        # other base (here a sphere with one cone point) there is no fiber
        # surface.
        with pytest.raises(ValueError, match="norm formula inapplicable"):
            graph_norm([NormSummand(SeifertPiece(SPHERE, (3,)), 2)])

    def test_positive_chi_with_zero_pairing_allowed(self):
        value, fibered, dropped = graph_norm([NormSummand(SeifertPiece(SPHERE, (3,)), 0)])
        assert (value, fibered, dropped) == (0, False, 0)
        value, fibered, dropped = graph_norm([NormSummand(SeifertPiece(DISK, ()), 0)])
        assert (value, fibered, dropped) == (0, False, 1)

    def test_clamped_variant_drops_solid_tori(self):
        value, fibered, dropped = graph_norm(
            [
                NormSummand(SeifertPiece(DISK, (3, 1)), 7),
                NormSummand(SeifertPiece(DISK, (2, 6)), 24),
            ]
        )
        assert value == 8
        assert fibered
        assert dropped == 1


pieces = st.builds(
    SeifertPiece,
    st.sampled_from([DISK, ANNULUS]),
    st.lists(st.integers(min_value=2, max_value=9), min_size=1, max_size=3).map(tuple),
).filter(lambda piece: orbifold_euler_char(piece) <= 0)

summand_lists = st.lists(
    st.builds(NormSummand, pieces, st.integers(min_value=-30, max_value=30)),
    max_size=5,
)


class TestGraphNormProperties:
    @given(summand_lists, st.integers(min_value=-7, max_value=7))
    @settings(max_examples=200, deadline=None)
    def test_homogeneity(self, summands, t):
        base, _, _ = graph_norm(summands)
        scaled, _, _ = graph_norm(
            [NormSummand(s.piece, t * s.fiber_pairing) for s in summands]
        )
        assert scaled == abs(t) * base

    @given(summand_lists, summand_lists)
    @settings(max_examples=200, deadline=None)
    def test_monotone_under_extra_summands(self, first, second):
        value_first, _, _ = graph_norm(first)
        value_both, _, _ = graph_norm(first + second)
        assert value_both >= value_first


# Any piece the constructor accepts, including positive-chi ones, and
# pairings far beyond the cable grids.
any_pieces = st.builds(
    SeifertPiece,
    st.integers(min_value=-2, max_value=2),
    st.lists(st.integers(min_value=1, max_value=60), max_size=4).map(tuple),
)
any_summand_lists = st.lists(
    st.builds(NormSummand, any_pieces, st.integers(min_value=-(10**6), max_value=10**6)),
    max_size=5,
)


class TestAgainstReference:
    @given(any_pieces)
    @settings(max_examples=200, deadline=None)
    def test_orbifold_euler_char(self, piece):
        chi = orbifold_euler_char(piece)
        assert type(chi) is Fraction
        assert chi == chi_orb_reference(piece.base_euler, piece.cone_orders)

    @given(any_summand_lists)
    @settings(max_examples=200, deadline=None)
    def test_graph_norm(self, summands):
        triples = [(s.piece.base_euler, s.piece.cone_orders, s.fiber_pairing) for s in summands]
        try:
            expected = graph_norm_reference(triples)
        except ValueError as exc:
            with pytest.raises(ValueError) as raised:
                graph_norm(summands)
            assert str(raised.value) == str(exc)
        else:
            total, fibered, dropped = graph_norm(summands)
            assert type(total) is Fraction
            assert (total, fibered, dropped) == expected

    def test_inapplicable_message_in_lowest_terms(self):
        # Over lcm(4, 4) the characteristic is 2/4; the message prints 1/2.
        with pytest.raises(ValueError) as raised:
            graph_norm([NormSummand(SeifertPiece(SPHERE, (4, 4)), 3)])
        assert str(raised.value) == (
            "norm formula inapplicable: piece with positive orbifold "
            "Euler characteristic 1/2 has nonzero fiber pairing"
        )


def admissible(build, *grids):
    """Every value of ``build`` over the product of ``grids`` that is defined."""
    for point in product(*grids):
        try:
            yield build(*point)
        except DomainError:
            continue


class TestNoFloats:
    """Norms and theta stay ``Fraction``s, so no integer total meets ``/``."""

    @pytest.mark.parametrize(
        "summands, total",
        [
            ([], 0),
            ([NormSummand(SeifertPiece(DISK, (4, 4)), 16)], 8),
            ([NormSummand(SeifertPiece(DISK, (2, 2)), 5)], 0),
            ([NormSummand(SeifertPiece(DISK, (3, 5)), 15)], 7),
            ([NormSummand(SeifertPiece(ANNULUS, (3,)), 1)], Fraction(2, 3)),
        ],
    )
    def test_graph_norm_total(self, summands, total):
        value, _, _ = graph_norm(summands)
        assert type(value) is Fraction
        assert value == total

    def test_verdict_fields(self):
        names = {
            "cable": {"norm_torus_side", "norm_cable_side", "theta"},
            "iterated": {"norm_iterated", "norm_torus_side", "theta"},
            "stab": {"torus_chi", "theta"},
        }
        ps, qs = range(2, 41), range(1, 4)
        verdicts = {
            "cable": admissible(
                lambda p, q, m, n: cable_verdict(CableParams(LensSpace(p, q), m, n)),
                ps, qs, (2, 3), (2, 3),
            ),
            "iterated": admissible(
                lambda p, q, ms: iterated_verdict(IteratedCableParams(LensSpace(p, q), ms)),
                ps, qs, [(2, 2), (2, 3), (2, 2, 2)],
            ),
            "stab": admissible(
                lambda p, q, k: stab_verdict(StabFamily(LensSpace(p, q), k)),
                ps, qs, (1, 2, 3),
            ),
        }
        for kind, found in verdicts.items():
            seen = 0
            whole = 0
            for v in found:
                values = {name: getattr(v, name) for name in v._fields}
                assert not any(isinstance(x, float) for x in values.values()), (kind, v)
                fractions = {name for name, x in values.items() if isinstance(x, Fraction)}
                assert fractions == names[kind], (kind, v)
                for name in names[kind]:
                    assert type(values[name]) is Fraction, (kind, v, name)
                    whole += values[name].denominator == 1
                seen += 1
            # The grid reaches whole-number norms, where an int could slip in.
            assert seen > 20 and whole > 0, kind
