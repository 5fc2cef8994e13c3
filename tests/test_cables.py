from fractions import Fraction
from itertools import combinations_with_replacement, product
from math import gcd, lcm, prod

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from _oracles import cable_pieces_reference, graph_norm_reference
from lensgenus import norm
from lensgenus.cables import (
    IteratedCableParams,
    explicit_surface_check,
    iterated_summands,
    iterated_verdict,
)
from lensgenus.complement import torus_knot_theta
from lensgenus.errors import DomainError
from lensgenus.lens import LensSpace
from lensgenus.norm import graph_norm, orbifold_euler_parts


def params(p, q, m, n):
    """The (1,n)-cable of the (1,m)-torus knot: the iterated cable ms = (m, n)."""
    return IteratedCableParams(LensSpace(p, q), (m, n))


# Each side of a cable norm comparison: the torus side from the one norm
# route, the cable side from the plain-tuple reference, which shares no code
# with the library's summands or its graph norm.
def torus_side(c):
    return torus_knot_theta(c.ambient, prod(c.ms)).chi_minus


def cable_side(c):
    return graph_norm_reference(cable_pieces_reference(c.ambient.p, c.ambient.q, *c.ms))[0]


def iterated_norm(ic):
    return graph_norm(iterated_summands(ic))[0]


@pytest.fixture
def chi_orb_calls(monkeypatch):
    """Log of the (base_euler, cone_orders) pieces ``orbifold_euler_parts`` is evaluated on."""
    calls = []
    real = norm.orbifold_euler_parts

    def logged(base_euler, cone_orders):
        calls.append((base_euler, cone_orders))
        return real(base_euler, cone_orders)

    monkeypatch.setattr(norm, "orbifold_euler_parts", logged)
    return calls


class TestTorusSideNorm:
    @pytest.mark.parametrize(
        "p, q, m, n, expected",
        [
            (8, 1, 2, 2, 8),
            (17, 2, 2, 2, 23),
            (32, 1, 2, 4, 160),
            (7, 1, 2, 2, 5),
        ],
    )
    def test_examples(self, p, q, m, n, expected):
        assert torus_side(params(p, q, m, n)) == expected

    def test_undefined_piece(self):
        # p - qmn = 7 - 8 < 1: the torus-knot piece would have a cone order below 1.
        with pytest.raises(DomainError, match="p - qW = -1$"):
            params(7, 2, 2, 2)


class TestCableSideNorm:
    @pytest.mark.parametrize(
        "p, q, m, n, expected",
        [
            (8, 1, 2, 2, 8),
            (17, 2, 2, 2, 23),
            (7, 1, 2, 2, 7),
        ],
    )
    def test_examples(self, p, q, m, n, expected):
        assert cable_side(params(p, q, m, n)) == expected

    def test_summand_shapes(self):
        cable_piece, torus_piece = cable_pieces_reference(8, 1, 2, 2)
        base_euler, cone_orders, pairing = cable_piece
        assert base_euler == 0
        assert cone_orders == (2,)
        assert pairing == 0
        base_euler, cone_orders, pairing = torus_piece
        assert base_euler == 1
        assert cone_orders == (2, 6)
        assert abs(pairing) == 24
        # The library builds the same two pieces, the torus-knot piece first,
        # here and on a grid of cables.
        torus, cable = iterated_summands(params(8, 1, 2, 2))
        assert [cable, torus] == [cable_piece, torus_piece]
        for p, q, m, n in product(range(5, 90), range(1, 5), range(2, 5), range(2, 5)):
            if gcd(p, q) == 1 and p > q and p - q * m * n >= 1:
                torus, cable = iterated_summands(params(p, q, m, n))
                assert [cable, torus] == cable_pieces_reference(p, q, m, n)

    def test_undefined_piece(self):
        # p - qm = 5 - 6 < 1 as well: the constructor refuses it first.
        with pytest.raises(DomainError, match="p - qW = -7$"):
            params(5, 3, 2, 2)


@st.composite
def criterion_2_points(draw):
    """(p, q, m, n) of criterion 2's ranges: m, n in [2, 5], q in [1, 7], p <= 500."""
    m, n = draw(st.integers(2, 5)), draw(st.integers(2, 5))
    q = draw(st.integers(1, 7))
    p = draw(st.integers(q * m * n + 1, 500).filter(lambda p: gcd(p, q) == 1))
    return p, q, m, n


class TestOneInputShape:
    @given(criterion_2_points())
    @example((8, 1, 2, 2))  # on the threshold
    @example((41, 2, 2, 2))  # q = m
    @example((17, 2, 2, 4))  # p - qmn = 1: the torus piece is a solid torus
    @settings(max_examples=300, deadline=None)
    def test_reference_pieces_through_the_library(self, point):
        # The library and its oracle read one piece shape: the reference
        # triples go through graph_norm unchanged, and give the oracle's
        # result and the verdict's cable-side norm.
        p, q, m, n = point
        pieces = cable_pieces_reference(p, q, m, n)
        result = graph_norm(pieces)
        assert result == graph_norm_reference(pieces)
        assert result[0] == iterated_verdict(params(p, q, m, n)).norm_iterated


class TestCableVerdict:
    """A cable's verdict is the iterated verdict of its two levels (m, n)."""

    def test_base_example(self):
        v = iterated_verdict(params(8, 1, 2, 2))
        assert v.norm_torus_side == v.norm_iterated == 8
        assert v.threshold_met and v.norms_equal
        assert v.certified_minimizer
        assert v.certified_nonsimple  # q = 1 != m = 2
        assert v.homology_class == 4
        assert v.theta == 1
        assert v.warnings == ()

    def test_q_equal_m_withholds_nonsimplicity(self):
        v = iterated_verdict(params(17, 2, 2, 2))
        assert v.norm_torus_side == v.norm_iterated == 23
        assert v.certified_minimizer
        assert not v.certified_nonsimple

    def test_below_threshold(self):
        v = iterated_verdict(params(7, 1, 2, 2))
        assert (v.norm_torus_side, v.norm_iterated) == (5, 7)
        assert not v.threshold_met
        assert not v.certified_minimizer
        assert not v.certified_nonsimple

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            IteratedCableParams(LensSpace(8, 1), (1, 2))

    def test_nonsimple_rule_by_depth(self):
        # Non-simplicity is certified only at depth 2, with a certified
        # minimizer and q != m_1, where the cable side is the plain-tuple
        # reference's; every other depth certifies nothing.
        seen = set()
        for p, q in product(range(5, 120), range(1, 4)):
            if gcd(p, q) != 1 or p <= q:
                continue
            space = LensSpace(p, q)
            for ms in [(2,), (3,), (2, 2), (2, 3), (3, 2), (2, 2, 2), (2, 3, 2)]:
                if p - q * prod(ms) < 1:
                    continue
                v = iterated_verdict(IteratedCableParams(space, ms))
                rule = v.certified_minimizer and len(ms) == 2 and q != ms[0]
                assert v.certified_nonsimple == rule, (p, q, ms)
                if len(ms) == 2:
                    assert v.norm_iterated == cable_side(v.params), (p, q, ms)
                seen.add((len(ms), v.certified_minimizer, v.certified_nonsimple))
        # Certified minimizers at every depth; non-simple ones only at depth 2.
        assert {(k, True) for k in (1, 2, 3)} <= {(k, c) for k, c, _ in seen}
        assert {(k, n) for k, _, n in seen if n} == {(2, True)}

    @pytest.mark.parametrize("p, q, m, n", [(8, 1, 2, 2), (7, 1, 2, 2), (9, 2, 2, 2), (50, 3, 2, 2)])
    def test_one_chi_orb_per_piece(self, chi_orb_calls, p, q, m, n):
        # Three pieces: the torus-knot piece and the two cable-side pieces.
        iterated_verdict(params(p, q, m, n))
        assert len(chi_orb_calls) == 3

    def test_equality_sweep(self):
        for m in (2, 3):
            for n in (2, 3):
                for q in (1, 2, 3):
                    for p in range(q * m * m * n, q * m * m * n + 40):
                        if p <= q or gcd(p, q) != 1 or p - q * m * n < 2:
                            continue
                        v = iterated_verdict(params(p, q, m, n))
                        assert v.norms_equal, (p, q, m, n)


class TestIteratedCables:
    def test_two_level_reduction(self):
        space = LensSpace(8, 1)
        assert iterated_norm(IteratedCableParams(space, (2, 2))) == 8
        assert iterated_norm(IteratedCableParams(space, (2, 2))) == cable_side(
            params(8, 1, 2, 2)
        )

    def test_three_level_pieces(self):
        ic = IteratedCableParams(LensSpace(32, 1), (2, 2, 2))
        summands = iterated_summands(ic)
        assert len(summands) == 3
        values = []
        for base_euler, cone_orders, pairing in summands:
            chi = Fraction(*orbifold_euler_parts(base_euler, cone_orders))
            values.append(abs(pairing) * max(Fraction(0), -chi))
        assert values == [112, 48, 0]
        assert iterated_norm(ic) == 160

    def test_single_level_reduction(self):
        space = LensSpace(10, 1)
        assert iterated_norm(IteratedCableParams(space, (3,))) == 11
        assert (
            iterated_norm(IteratedCableParams(space, (3,)))
            == torus_knot_theta(space, 3).chi_minus
        )

    def test_reductions_on_grid(self):
        for m in (2, 3, 4):
            for n in (2, 3):
                for q in (1, 2):
                    for p in range(q * m * m * n, q * m * m * n + 25):
                        if p <= q or gcd(p, q) != 1 or p - q * m * n < 1:
                            continue
                        space = LensSpace(p, q)
                        c = params(p, q, m, n)
                        assert iterated_norm(
                            IteratedCableParams(space, (m, n))
                        ) == cable_side(c)
                        assert (
                            iterated_norm(IteratedCableParams(space, (m,)))
                            == torus_knot_theta(space, m).chi_minus
                        )

    def test_verdicts(self):
        v = iterated_verdict(IteratedCableParams(LensSpace(32, 1), (2, 2, 2)))
        assert v.norm_iterated == v.norm_torus_side == 160
        assert v.certified_minimizer
        assert v.homology_class == 8

        v = iterated_verdict(IteratedCableParams(LensSpace(8, 1), (2, 2)))
        assert v.norm_iterated == v.norm_torus_side == 8
        assert v.certified_minimizer

        v = iterated_verdict(IteratedCableParams(LensSpace(31, 1), (2, 2, 2)))
        assert not v.threshold_met
        assert not v.certified_minimizer
        assert v.norm_iterated == 155
        assert v.norm_torus_side == 153

    @pytest.mark.parametrize("p, q, ms", [(32, 1, (2, 2, 2)), (31, 1, (2, 2, 2)), (10, 1, (3,)),
                                          (100, 3, (2, 2)), (200, 1, (2, 3, 2, 2))])
    def test_one_chi_orb_per_piece(self, chi_orb_calls, p, q, ms):
        # One piece per cabling level, plus the torus-knot piece of class W.
        iterated_verdict(IteratedCableParams(LensSpace(p, q), ms))
        assert len(chi_orb_calls) == len(ms) + 1

    def test_winding_bound_enforced(self):
        with pytest.raises(DomainError, match="hypothesis p - qW >= 1 fails: p - qW = -1$"):
            IteratedCableParams(LensSpace(8, 1), (3, 3))

    def test_keeps_no_caller_list(self):
        # The rules hold for the ms that was checked: a caller's list, changed
        # afterwards, once left W = 12 > p and a verdict that raised.
        ms = [2, 2]
        ic = IteratedCableParams(LensSpace(8, 1), ms)
        ms.append(3)
        assert ic.ms == (2, 2)
        assert iterated_verdict(ic) == iterated_verdict(
            IteratedCableParams(LensSpace(8, 1), (2, 2)))

    def test_norm_denominator_divides_cone_lcm(self):
        for p, q, ms in [(32, 1, (2, 2, 2)), (50, 1, (2, 3)), (100, 3, (2, 2))]:
            ic = IteratedCableParams(LensSpace(p, q), ms)
            value = iterated_norm(ic)
            orders = lcm(
                *[o for _, cone_orders, _ in iterated_summands(ic) for o in cone_orders]
            )
            assert value >= 0
            assert orders % value.denominator == 0
        for p, q, m, n in [(17, 2, 2, 2), (23, 1, 3, 2), (50, 3, 2, 2)]:
            c = params(p, q, m, n)
            for value, orders in [
                (torus_side(c), lcm(m * n, p - q * m * n)),
                (cable_side(c), lcm(n, m, p - q * m)),
            ]:
                assert value >= 0
                assert orders % value.denominator == 0


# Every (p, q, m, n) or (p, q, ms) the property tests try, bad values included.
ps, qs, cabling = st.integers(-1, 300), st.integers(-1, 7), st.integers(0, 5)


def lens_rule(p, q):
    return p > q >= 1 and gcd(p, q) == 1


class TestConstructorsAreTheDomain:
    @given(ps, qs, cabling, cabling)
    @example(8, 1, 2, 2)  # on the threshold
    @example(7, 2, 2, 2)  # p - qmn = -1, p - qm = 3
    @settings(max_examples=300, deadline=None)
    def test_cable(self, p, q, m, n):
        rule = lens_rule(p, q) and m >= 2 and n >= 2 and p - q * m * n >= 1
        try:
            c = params(p, q, m, n)
        except DomainError:
            assert not rule, (p, q, m, n)
            return
        assert rule, (p, q, m, n)
        iterated_verdict(c)
        # The cable side never clamps: p - qm >= (p - qmn) + qm >= 3.
        assert graph_norm(iterated_summands(c))[2] == 0
        assert graph_norm_reference(cable_pieces_reference(p, q, m, n))[2] == 0

    @given(ps, qs, st.lists(cabling, max_size=4))
    @example(32, 1, [2, 2, 2])
    @example(8, 1, [3, 3])  # W = 9 > p
    @settings(max_examples=300, deadline=None)
    def test_iterated(self, p, q, ms):
        rule = lens_rule(p, q) and ms != [] and min(ms) >= 2 and p - q * prod(ms) >= 1
        try:
            ic = IteratedCableParams(LensSpace(p, q), tuple(ms))
        except DomainError:
            assert not rule, (p, q, ms)
            return
        assert rule, (p, q, ms)
        iterated_verdict(ic)

    def test_depth_rule_is_the_winding_rule(self):
        # A depth above p's bit length is refused before W is multiplied out.
        # The rules read ms only as a multiset, and over every one of 2s and
        # 3s up to two levels deeper than that, the constructor admits
        # exactly the points with p - qW >= 1.
        for p in range(2, 64):
            for q in (q for q in range(1, p) if gcd(p, q) == 1):
                space = LensSpace(p, q)
                for k in range(1, p.bit_length() + 3):
                    for ms in combinations_with_replacement((2, 3), k):
                        rule = p - q * prod(ms) >= 1
                        try:
                            IteratedCableParams(space, ms)
                        except DomainError:
                            assert not rule, (p, q, ms)
                        else:
                            assert rule, (p, q, ms)


class TestExplicitSurfaceCheck:
    @pytest.mark.parametrize(
        "m, n, theta_inner, theta_class, genus, boundaries",
        [
            (2, 2, Fraction(1, 2), 1, 1, 2),
            (3, 2, Fraction(3, 2), 3, 4, 3),
            (2, 3, Fraction(2, 3), 2, 2, 2),
        ],
    )
    def test_examples(self, m, n, theta_inner, theta_class, genus, boundaries):
        check = explicit_surface_check(m, n)
        assert check.theta_inner == theta_inner
        assert check.theta_class == theta_class
        assert check.surface_genus == genus
        assert check.surface_boundaries == boundaries
        assert check.all_hold

    def test_grid(self):
        for m in range(2, 7):
            for n in range(2, 7):
                assert explicit_surface_check(m, n).all_hold, (m, n)

    @pytest.mark.parametrize("m, n", [(1, 2), (2, 1), (0, 0)])
    def test_parameters_below_two_rejected(self, m, n):
        with pytest.raises(ValueError, match="surface check requires m, n >= 2"):
            explicit_surface_check(m, n)
