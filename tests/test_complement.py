from fractions import Fraction
from math import gcd, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import (
    cable_pieces_reference,
    cokernel_coordinates,
    graph_norm_reference,
    smith_normal_form,
)
from lensgenus import cables, stabilization
from lensgenus.cables import IteratedCableParams
from lensgenus.complement import (
    WindingData,
    boundary_kernel,
    presentation_matrix,
    torus_fiber_summand,
    torus_knot_theta,
)
from lensgenus.errors import DomainError
from lensgenus.exactarith import peripheral_kernel
from lensgenus.lens import LensSpace
from lensgenus.stabilization import StabFamily


class TestBoundaryKernel:
    @pytest.mark.parametrize(
        "p, q, w, expected",
        [
            (8, 1, 4, (4, 2)),
            (8, 1, 0, (0, 1)),
            (8, 1, 2, (2, 4)),
            (5, 2, 3, (18, 5)),  # w^2 q = 18, d = gcd(3,5) = 1
        ],
    )
    def test_examples(self, p, q, w, expected):
        got = boundary_kernel(WindingData(LensSpace(p, q), w))
        assert (got.mu_coeff, got.lambda_coeff) == expected

    def test_agrees_with_snf_oracle_on_grid(self):
        for p in range(2, 25):
            for q in range(1, p):
                if gcd(p, q) != 1:
                    continue
                space = LensSpace(p, q)
                for w in range(0, 25):
                    data = WindingData(space, w)
                    closed = boundary_kernel(data)
                    oracle = peripheral_kernel(presentation_matrix(data), 0, 1)
                    assert oracle == (closed.mu_coeff, closed.lambda_coeff), (p, q, w)

    def test_image_in_cokernel_is_zero(self):
        for p, q, w in [(8, 1, 4), (8, 1, 2), (15, 4, 6), (9, 2, 0)]:
            data = WindingData(LensSpace(p, q), w)
            cls = boundary_kernel(data)
            snf = smith_normal_form(presentation_matrix(data).to_lists())
            coords = cokernel_coordinates(snf, (cls.mu_coeff, cls.lambda_coeff, 0, 0))
            assert set(coords) == {0}, (p, q, w)


class TestPresentationMatrix:
    def test_substitutions(self):
        assert presentation_matrix(WindingData(LensSpace(8, 1), 4)).to_lists() == [
            [4, 0, 0, -1],
            [0, 1, -4, 0],
            [0, 0, 8, 1],
        ]
        assert presentation_matrix(WindingData(LensSpace(5, 2), 3)).to_lists() == [
            [3, 0, 0, -1],
            [0, 1, -3, 0],
            [0, 0, 5, 2],
        ]
        assert presentation_matrix(WindingData(LensSpace(7, 2), 0)).to_lists() == [
            [0, 0, 0, -1],
            [0, 1, 0, 0],
            [0, 0, 7, 2],
        ]


class TestTorusKnotTheta:
    def test_cable_class_in_l81(self):
        report = torus_knot_theta(LensSpace(8, 1), 4)
        assert report.chi_minus == 8
        assert report.theta == 1
        assert report.p == 8
        assert report.fibered

    def test_inner_torus_knot_in_l81(self):
        report = torus_knot_theta(LensSpace(8, 1), 2)
        assert report.chi_minus == 4
        assert report.theta == Fraction(1, 2)

    def test_half_class_in_even_space(self):
        # L(2k,1), class k: theta = (k-2)/2
        report = torus_knot_theta(LensSpace(14, 1), 7)
        assert report.theta == Fraction(5, 2)
        for k in range(2, 12):
            assert torus_knot_theta(LensSpace(2 * k, 1), k).theta == Fraction(k - 2, 2)

    def test_cable_class_pairing_in_l81(self):
        # The class (16, 8) meets the fiber (4, 1) as 16*1 - 8*4 = -16.
        assert torus_fiber_summand(LensSpace(8, 1), 4) == (1, (4, 4), -16)

    def test_inner_torus_knot_pairing_in_l81(self):
        # The class (4, 8) meets the fiber (2, 1) as 4*1 - 8*2 = -12.
        assert torus_fiber_summand(LensSpace(8, 1), 2) == (1, (2, 6), -12)

    def test_degenerate_cone_orders(self):
        # chi_orb = 0: the class bounds vertical annuli
        assert torus_knot_theta(LensSpace(4, 1), 2).theta == 0
        # solid-torus complement: cone order 1
        assert torus_knot_theta(LensSpace(5, 2), 2).theta == 0

    def test_out_of_range(self):
        # The route refuses p - qk < 1 with the CLI's message; at k = 0 the
        # cone order p passes, and orbifold_euler_parts, the one reader of
        # cone orders, refuses the cone order 0.
        with pytest.raises(DomainError, match=r"no torus-knot route for class 8: "
                           r"cone order p - qc = 0 < 1$"):
            torus_knot_theta(LensSpace(8, 1), 8)
        with pytest.raises(ValueError, match="cone order 0 < 1") as info:
            torus_knot_theta(LensSpace(8, 1), 0)
        assert type(info.value) is ValueError


@st.composite
def route_points(draw):
    """(p, q, k): coprime p > q >= 1 and k >= 1 with p - qk >= 1."""
    p = draw(st.integers(2, 300))
    q = draw(st.integers(1, p - 1).filter(lambda q: gcd(p, q) == 1))
    k = draw(st.integers(1, (p - 1) // q))
    return p, q, k


class TestTorusKnotRoute:
    """The one route's report, checked against its definition and the oracle."""

    @given(route_points())
    @settings(max_examples=300, deadline=None)
    def test_report_against_oracle(self, point):
        p, q, k = point
        space = LensSpace(p, q)
        r = torus_knot_theta(space, k)
        # A disk with cones k and p - qk; the class (k^2 q, p) meets the
        # fiber (k, 1) as k^2 q - pk.
        piece = (1, (k, p - q * k), k * k * q - p * k)
        assert torus_fiber_summand(space, k) == piece
        chi, fibered, dropped = graph_norm_reference([piece])
        assert r.chi_minus >= 0
        assert r.p == p
        assert r.theta * p == r.chi_minus
        assert (r.chi_minus, r.fibered, r.dropped) == (chi, fibered, dropped)
        # The disk piece with cones k and p - qk is a solid torus exactly
        # when one of them is 1.
        assert (r.dropped == 1) == (k == 1 or p - q * k == 1)

    def test_family_verdicts_read_the_route(self):
        # Every cable, iterated and stab point with p < 40: the verdict's
        # theta is the route's, and it warns exactly when the route or its
        # own decomposition dropped a solid torus (stab has no warnings, and
        # its route never drops one).  A cable is the iterated cable
        # ms = (m, n), whose own pieces are read from the plain-tuple
        # reference, which shares no code with the library.
        def points(space):
            for m in range(2, 7):
                for n in range(2, 7):
                    yield "cable", IteratedCableParams, (space, (m, n))
            for ms in [(2,), (3,), (2, 2), (2, 3), (3, 2), (2, 4), (2, 2, 2)]:
                yield "iterated", IteratedCableParams, (space, ms)
            for k in range(1, 5):
                yield "stab", StabFamily, (space, k)

        warned = set()
        for p in range(2, 40):
            for q in (q for q in range(1, p) if gcd(p, q) == 1):
                space = LensSpace(p, q)
                for family, build, args in points(space):
                    try:
                        params = build(*args)
                    except DomainError:
                        continue
                    if family == "stab":
                        v = stabilization.stab_verdict(params)
                        route = torus_knot_theta(space, params.k + 4)
                        assert (v.theta, v.torus_chi, route.dropped) == (
                            route.theta, route.chi_minus, 0), args
                        continue
                    v = cables.iterated_verdict(params)
                    if family == "cable":
                        own = cable_pieces_reference(p, q, *params.ms)
                    else:
                        own = cables.iterated_summands(params)
                    route = torus_knot_theta(space, prod(params.ms))
                    dropped = route.dropped + graph_norm_reference(own)[2]
                    assert (v.theta, v.norm_torus_side) == (route.theta, route.chi_minus), args
                    assert bool(v.warnings) == (dropped > 0), args
                    warned.add((family, bool(v.warnings)))
        # The grid reaches both outcomes for both cable families.
        assert len(warned) == 4
