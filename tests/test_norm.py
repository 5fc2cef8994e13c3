from fractions import Fraction
from itertools import product
from math import gcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lensgenus.cables import IteratedCableParams, iterated_summands, iterated_verdict
from lensgenus.complement import torus_fiber_summand, torus_knot_theta
from lensgenus.errors import DomainError
from lensgenus.lens import LensSpace
from lensgenus.norm import graph_norm, orbifold_euler_parts
from lensgenus.stabilization import StabFamily, stab_verdict

from _oracles import chi_orb_reference, graph_norm_reference

DISK, ANNULUS, SPHERE = 1, 0, 2


class TestOrbifoldEulerChar:
    def test_disk_two_cones(self):
        assert Fraction(*orbifold_euler_parts(DISK, (4, 4))) == Fraction(-1, 2)

    def test_annulus_one_cone(self):
        assert Fraction(*orbifold_euler_parts(ANNULUS, (2,))) == Fraction(-1, 2)

    def test_bare_disk(self):
        assert Fraction(*orbifold_euler_parts(DISK, ())) == 1

    def test_order_one_cones_are_invisible(self):
        assert (Fraction(*orbifold_euler_parts(DISK, (1, 5, 1)))
                == Fraction(*orbifold_euler_parts(DISK, (5,))))

    def test_cone_order_validation(self):
        # orbifold_euler_parts is the one reader of cone orders, so a piece
        # reaching graph_norm is refused there, before any division.
        for refused in (lambda: orbifold_euler_parts(DISK, (0,)),
                        lambda: orbifold_euler_parts(1, (2, 0)),
                        lambda: graph_norm([(1, (2, 0), 3)])):
            with pytest.raises(ValueError, match="^cone order 0 < 1$") as info:
                refused()
            assert type(info.value) is ValueError

    def test_first_bad_cone_order_is_named(self):
        with pytest.raises(ValueError, match="^cone order -3 < 1$"):
            orbifold_euler_parts(DISK, (2, -3, 0))


class TestGraphNorm:
    def test_single_fibered_piece(self):
        value, fibered, dropped = graph_norm([(DISK, (4, 4), 16)])
        assert value == 8
        assert fibered
        assert dropped == 0

    def test_two_pieces_one_dead(self):
        value, fibered, _ = graph_norm(
            [
                (ANNULUS, (2,), 0),
                (DISK, (2, 6), 24),
            ]
        )
        assert value == 8
        assert not fibered

    def test_empty_sum(self):
        assert graph_norm([]) == (Fraction(0), True, 0)

    def test_zero_extension_at_chi_zero(self):
        # disk with cones (2,2) has chi_orb = 0: annulus fibers, no cost
        value, fibered, _ = graph_norm([(DISK, (2, 2), 5)])
        assert value == 0
        assert fibered

    def test_positive_chi_with_pairing_rejected(self):
        # Over a disk such a piece is a solid torus and is dropped; over any
        # other base (here a sphere with one cone point) there is no fiber
        # surface.
        with pytest.raises(ValueError, match="norm formula inapplicable"):
            graph_norm([(SPHERE, (3,), 2)])

    def test_positive_chi_with_zero_pairing_allowed(self):
        value, fibered, dropped = graph_norm([(SPHERE, (3,), 0)])
        assert (value, fibered, dropped) == (0, False, 0)
        value, fibered, dropped = graph_norm([(DISK, (), 0)])
        assert (value, fibered, dropped) == (0, False, 1)

    def test_reads_a_one_shot_iterable(self):
        triples = [(ANNULUS, (2,), 0), (DISK, (2, 6), 24), (DISK, (3, 1), 7)]
        assert graph_norm(iter(triples)) == graph_norm(triples) == (8, False, 1)

    def test_clamped_variant_drops_solid_tori(self):
        value, fibered, dropped = graph_norm(
            [
                (DISK, (3, 1), 7),
                (DISK, (2, 6), 24),
            ]
        )
        assert value == 8
        assert fibered
        assert dropped == 1


# A piece is (base_euler, cone_orders); a summand appends its pairing.
pieces = st.tuples(
    st.sampled_from([DISK, ANNULUS]),
    st.lists(st.integers(min_value=2, max_value=9), min_size=1, max_size=3).map(tuple),
).filter(lambda piece: Fraction(*orbifold_euler_parts(*piece)) <= 0)


def summands_of(pieces, pairings):
    return st.builds(lambda piece, pairing: (*piece, pairing), pieces, pairings)


def integral_summands_of(pieces, multiples):
    """Summands whose pairing is a multiple of the lcm of their cone orders.

    Then |pairing| * chi_orb is an integer, as on every piece of a surface.
    """
    return st.builds(lambda piece, t: (*piece, t * lcm(*piece[1])), pieces, multiples)


summand_lists = st.lists(
    integral_summands_of(pieces, st.integers(min_value=-30, max_value=30)),
    max_size=5,
)


class TestGraphNormProperties:
    @given(summand_lists, st.integers(min_value=-7, max_value=7))
    @settings(max_examples=200, deadline=None)
    def test_homogeneity(self, summands, t):
        base, _, _ = graph_norm(summands)
        scaled, _, _ = graph_norm(
            [(base_euler, cones, t * pairing) for base_euler, cones, pairing in summands]
        )
        assert scaled == abs(t) * base

    @given(summand_lists, summand_lists)
    @settings(max_examples=200, deadline=None)
    def test_monotone_under_extra_summands(self, first, second):
        value_first, _, _ = graph_norm(first)
        value_both, _, _ = graph_norm(first + second)
        assert value_both >= value_first


# Any piece whose cone orders are valid, including positive-chi ones, and
# pairings far beyond the cable grids.
any_pieces = st.tuples(
    st.integers(min_value=-2, max_value=2),
    st.lists(st.integers(min_value=1, max_value=60), max_size=4).map(tuple),
)
any_pairings = st.integers(min_value=-(10**6), max_value=10**6)
# Half the summands share out integrally, so whole lists of them are drawn too.
any_summand_lists = st.lists(
    st.one_of(summands_of(any_pieces, any_pairings), integral_summands_of(any_pieces, any_pairings)),
    max_size=5,
)


def share_message(pairing, chi):
    """``graph_norm``'s refusal of a piece whose share |pairing| * chi is not an integer."""
    return (f"piece share not an integer: a horizontal surface covering its base "
            f"{abs(pairing)} times has Euler characteristic {abs(pairing) * chi}")


class TestAgainstReference:
    @given(any_pieces)
    @settings(max_examples=200, deadline=None)
    def test_orbifold_euler_char(self, piece):
        chi = Fraction(*orbifold_euler_parts(*piece))
        assert type(chi) is Fraction
        assert chi == chi_orb_reference(*piece)

    @given(any_summand_lists)
    @settings(max_examples=200, deadline=None)
    def test_graph_norm(self, summands):
        # graph_norm is the reference, except that it refuses the first piece
        # with chi_orb <= 0 whose share |pairing| * chi_orb is not an integer:
        # the reference's own refusal comes first only from an earlier piece.
        shares = [(pairing, chi_orb_reference(base_euler, cones))
                  for base_euler, cones, pairing in summands]
        bad = [i for i, (pairing, chi) in enumerate(shares)
               if chi <= 0 and (pairing * chi).denominator != 1]
        try:
            expected = graph_norm_reference(summands[:bad[0]] if bad else summands)
        except ValueError as exc:
            message = str(exc)
        else:
            if not bad:
                total, fibered, dropped = graph_norm(summands)
                assert type(total) is int
                assert (total, fibered, dropped) == expected
                return
            message = share_message(*shares[bad[0]])
        with pytest.raises(ValueError) as raised:
            graph_norm(summands)
        assert str(raised.value) == message

    def test_inapplicable_message_in_lowest_terms(self):
        # Over lcm(4, 4) the characteristic is 2/4; the message prints 1/2.
        with pytest.raises(ValueError) as raised:
            graph_norm([(SPHERE, (4, 4), 3)])
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
    """Norms are ``int``s and theta is exactly a ``Fraction``, so no value meets ``/``."""

    @pytest.mark.parametrize(
        "summands, total",
        [
            ([], 0),
            ([(DISK, (4, 4), 16)], 8),
            ([(DISK, (2, 2), 5)], 0),
            ([(DISK, (3, 5), 15)], 7),
        ],
    )
    def test_graph_norm_total(self, summands, total):
        value, _, _ = graph_norm(summands)
        assert type(value) is int
        assert value == total

    def test_non_integral_share_raises(self):
        # An annulus with one cone point of order 3 has chi_orb = -2/3, so a
        # surface covering it once would have Euler characteristic -2/3.
        with pytest.raises(ValueError) as raised:
            graph_norm([(ANNULUS, (3,), 1)])
        assert type(raised.value) is ValueError
        assert str(raised.value) == share_message(1, Fraction(-2, 3))

    def test_verdict_fields(self):
        norms = {
            "theta": {"chi_minus"},
            "cable": {"norm_iterated", "norm_torus_side"},
            "iterated": {"norm_iterated", "norm_torus_side"},
            "stab": {"torus_chi"},
        }
        ps, qs = range(2, 41), range(1, 4)
        verdicts = {
            "theta": admissible(
                lambda p, q, k: torus_knot_theta(LensSpace(p, q), k), ps, qs, range(1, 40),
            ),
            "cable": admissible(
                lambda p, q, m, n: iterated_verdict(IteratedCableParams(LensSpace(p, q), (m, n))),
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
        # The norm theta is read from, and its meridian pairing p.
        theta_of = {
            "theta": lambda v: (v.chi_minus, v.p),
            "cable": lambda v: (v.norm_torus_side, v.params.ambient.p),
            "iterated": lambda v: (v.norm_torus_side, v.params.ambient.p),
            "stab": lambda v: (v.torus_chi, v.family.ambient.p),
        }
        for kind, found in verdicts.items():
            seen = 0
            whole = 0
            for v in found:
                assert "theta" not in v._fields, kind
                values = {name: getattr(v, name) for name in v._fields}
                assert not any(isinstance(x, (float, Fraction)) for x in values.values()), (kind, v)
                for name in norms[kind]:
                    assert type(values[name]) is int, (kind, v, name)
                assert type(v.theta) is Fraction, (kind, v)
                assert v.theta == Fraction(*theta_of[kind](v)), (kind, v)
                whole += v.theta.denominator == 1
                seen += 1
            # The grid reaches whole-number thetas, where an int could slip in.
            assert seen > 20 and whole > 0, kind


def shares_are_integers(pieces):
    """Whether every piece with chi_orb <= 0 shares out an integer |pairing| * chi_orb."""
    for base_euler, cones, pairing in pieces:
        chi_num, chi_den = orbifold_euler_parts(base_euler, cones)
        if chi_num <= 0 and pairing * chi_num % chi_den:
            return False
    return True


class TestLibraryPiecesShareIntegrally:
    """The integrality check never fires on pieces the library builds."""

    def test_iterated_cables(self):
        shapes = [ms for depth in (2, 3, 4) for ms in product((2, 3), repeat=depth)]
        seen = 0
        for p, q in product(range(2, 200), range(1, 6)):
            if p <= q or gcd(p, q) != 1:
                continue
            for ms in shapes:
                try:
                    ic = IteratedCableParams(LensSpace(p, q), ms)
                except DomainError:
                    continue
                pieces = iterated_summands(ic)
                assert shares_are_integers(pieces), (p, q, ms)
                assert type(graph_norm(pieces)[0]) is int
                seen += 1
        assert seen > 10_000

    def test_torus_route(self):
        seen = 0
        for p, q in product(range(2, 200), range(1, 6)):
            if p <= q or gcd(p, q) != 1:
                continue
            space = LensSpace(p, q)
            for k in range(1, (p - 1) // q + 1):  # p - qk >= 1
                assert shares_are_integers([torus_fiber_summand(space, k)]), (p, q, k)
                assert type(torus_knot_theta(space, k).chi_minus) is int
                seen += 1
        assert seen > 10_000
