from fractions import Fraction

import pytest

from lensgenus import order2
from lensgenus.complement import torus_knot_theta
from lensgenus.errors import ConsistencyError
from lensgenus.lens import LensSpace
from lensgenus.order2 import (
    nonorientable_genus,
    nonorientable_genus_to_theta,
    theta_to_nonorientable_genus,
    uniqueness_check,
)


class TestDictionary:
    @pytest.mark.parametrize(
        "h, theta",
        [(4, 1), (2, 0), (3, Fraction(1, 2))],
    )
    def test_examples(self, h, theta):
        assert nonorientable_genus_to_theta(h) == theta

    def test_roundtrip(self):
        for h in range(2, 101):
            assert theta_to_nonorientable_genus(nonorientable_genus_to_theta(h)) == h

    def test_below_floor(self):
        with pytest.raises(ValueError):
            nonorientable_genus_to_theta(1)
        with pytest.raises(ValueError):
            theta_to_nonorientable_genus(Fraction(-1, 2))

    def test_non_integer_rejected(self):
        with pytest.raises(ValueError, match="not an integer"):
            theta_to_nonorientable_genus(Fraction(1, 3))


class TestNonorientableGenus:
    @pytest.mark.parametrize("k, expected", [(4, 4), (2, 2), (7, 7), (1, 1)])
    def test_examples(self, k, expected):
        assert nonorientable_genus(k) == expected

    def test_cross_check_against_torus_knot(self):
        for k in range(2, 51):
            theta = torus_knot_theta(LensSpace(2 * k, 1), k).theta
            assert nonorientable_genus(k) == 2 * theta + 2

    def test_disagreeing_torus_route_aborts(self, monkeypatch):
        # A torus route one more than the class's theta: 2*theta + 2 = k + 2.
        real = order2.torus_knot_theta

        def off_by_one(space, k):
            r = real(space, k)
            # theta is chi_minus / p, so p more in the norm is one more in theta.
            return r._replace(chi_minus=r.chi_minus + r.p)

        monkeypatch.setattr(order2, "torus_knot_theta", off_by_one)
        with pytest.raises(ConsistencyError,
                           match=r"N\(2k,1\) = 4 disagrees with 2\*theta\+2 = 6 at k=4"):
            nonorientable_genus(4)

    @pytest.mark.parametrize("k", [0, -3])
    def test_k_below_one_rejected(self, k):
        with pytest.raises(ValueError, match="k must be >= 1"):
            nonorientable_genus(k)


class TestUniqueness:
    def test_examples(self):
        rep = uniqueness_check(LensSpace(4, 1))
        assert rep.nonorientable_genus == 2
        assert rep.unique_minimizer_guaranteed
        assert rep.theta == 0

        rep = uniqueness_check(LensSpace(6, 1))
        assert rep.nonorientable_genus == 3
        assert rep.unique_minimizer_guaranteed
        assert rep.theta == Fraction(1, 2)

        rep = uniqueness_check(LensSpace(8, 1))
        assert rep.nonorientable_genus == 4
        assert not rep.unique_minimizer_guaranteed
        assert rep.theta == 1

    def test_general_q_not_implemented(self):
        with pytest.raises(ValueError, match="not implemented"):
            uniqueness_check(LensSpace(8, 3))

    def test_odd_order_rejected(self):
        with pytest.raises(ValueError, match="odd"):
            uniqueness_check(LensSpace(7, 1))

    def test_criterion_is_documentation(self):
        rep = uniqueness_check(LensSpace(6, 1))
        assert "orientable" in rep.criterion
