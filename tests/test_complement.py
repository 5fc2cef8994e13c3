from fractions import Fraction
from math import gcd

import pytest

from lensgenus.complement import (
    GenusReport,
    WindingData,
    boundary_kernel,
    presentation_matrix,
    torus_knot_theta,
)
from lensgenus.exactarith import (
    cokernel_coordinates,
    peripheral_kernel,
    smith_normal_form,
)
from lensgenus.lens import LensSpace
from lensgenus.norm import PeripheralClass


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
            snf = smith_normal_form(presentation_matrix(data))
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
        assert report.mu_pairing == 8
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

    def test_mu_pairing_is_p(self):
        for p, q, k in [(8, 1, 4), (17, 2, 6), (45, 4, 11)]:
            assert torus_knot_theta(LensSpace(p, q), k).mu_pairing == p

    def test_boundary_class(self):
        report = torus_knot_theta(LensSpace(8, 1), 4)
        assert report.boundary_class == PeripheralClass(16, 8)

    def test_degenerate_cone_orders(self):
        # chi_orb = 0: the class bounds vertical annuli
        assert torus_knot_theta(LensSpace(4, 1), 2).theta == 0
        # solid-torus complement: cone order 1
        assert torus_knot_theta(LensSpace(5, 2), 2).theta == 0

    def test_out_of_range(self):
        # Outside every family the piece itself refuses: p - qk = 0, then k = 0.
        with pytest.raises(ValueError, match="cone order 0 < 1"):
            torus_knot_theta(LensSpace(8, 1), 8)
        with pytest.raises(ValueError, match="cone order 0 < 1"):
            torus_knot_theta(LensSpace(8, 1), 0)


class TestGenusReport:
    def test_invariant_enforced(self):
        with pytest.raises(ValueError):
            GenusReport(
                chi_minus=Fraction(8),
                mu_pairing=8,
                theta=Fraction(2),
                boundary_class=PeripheralClass(16, 8),
                fibered=True,
            )

    def test_negative_chi_rejected(self):
        with pytest.raises(ValueError):
            GenusReport(
                chi_minus=Fraction(-1),
                mu_pairing=1,
                theta=Fraction(-1),
                boundary_class=PeripheralClass(0, 1),
                fibered=False,
            )
