from fractions import Fraction
from math import gcd

import pytest

from lensgenus import stabilization
from lensgenus.complement import torus_knot_theta
from lensgenus.errors import ConsistencyError
from lensgenus.lens import LensSpace
from lensgenus.norm import PeripheralClass
from lensgenus.stabilization import (
    BASE_SURFACES,
    StabFamily,
    stab_coefficients,
    stab_norms,
    stab_verdict,
    surface_combination,
)


def family(p, q, k):
    return StabFamily(LensSpace(p, q), k)


class TestCatalogue:
    def test_names_and_complexities(self):
        assert [(s.name, s.chi_minus) for s in BASE_SURFACES] == [
            ("F0", 4),
            ("Fgamma", 1),
            ("F", 4),
        ]

    def test_boundaries(self):
        f0, fg, f = BASE_SURFACES
        assert f0.boundary.on_K0 == PeripheralClass(0, 1)
        assert f0.boundary.on_L2 == PeripheralClass(-4, 0)
        assert f0.boundary.on_gamma == PeripheralClass(-1, 0)
        assert fg.boundary.on_K0 == PeripheralClass(-1, 0)
        assert fg.boundary.on_L2 == PeripheralClass(-1, 0)
        assert fg.boundary.on_gamma == PeripheralClass(0, 1)
        assert f.boundary.on_K0 == PeripheralClass(4, 2)
        assert f.boundary.on_L2 == PeripheralClass(-8, -1)
        assert f.boundary.on_gamma == PeripheralClass(-1, 0)


class TestCoefficients:
    @pytest.mark.parametrize(
        "p, q, k, expected",
        [
            (10, 1, 1, (0, 5, 5)),
            (16, 1, 4, (0, 32, 8)),
            (30, 1, 2, (18, 48, 6)),
        ],
    )
    def test_examples(self, p, q, k, expected):
        assert stab_coefficients(family(p, q, k)) == expected

    def test_nonnegative_under_hypothesis(self):
        for p, q, k in [(18, 1, 5), (41, 2, 6), (100, 3, 8)]:
            if p < 2 * q * (k + 4):
                continue
            assert all(c >= 0 for c in stab_coefficients(family(p, q, k)))

    def test_hypothesis_enforced(self):
        with pytest.raises(ValueError, match="p >= 2q"):
            family(9, 1, 1)


class TestNorms:
    def test_spot_values(self):
        norms = stab_norms(family(10, 1, 1))
        assert norms.chi_Fk == 25
        assert norms.chi_capped == 15
        assert norms.boundary.on_K0 == PeripheralClass(15, 10)
        assert norms.boundary.on_L2 == PeripheralClass(-45, -5)
        assert norms.boundary.on_gamma == PeripheralClass(-5, 5)

        norms = stab_norms(family(16, 1, 4))
        assert norms.chi_Fk == 64
        assert norms.chi_capped == 48

    def test_linearity_of_building_blocks(self):
        chi, doubled = surface_combination((2, 0, 0))
        assert (chi, doubled.on_L2) == (8, PeripheralClass(-8, 0))
        chi, total = surface_combination((1, 1, 1))
        assert (chi, total.on_K0) == (9, PeripheralClass(3, 3))
        assert surface_combination((0, 1, 0)) == (1, BASE_SURFACES[1].boundary)

    def test_identities_on_grid(self):
        for k in range(1, 8):
            for q in (1, 2, 3):
                for p in range(2 * q * (k + 4), 2 * q * (k + 4) + 30):
                    if p <= q or gcd(p, q) != 1:
                        continue
                    norms = stab_norms(family(p, q, k))
                    assert norms.chi_Fk == p * (k + 4) - q * (k + 4) ** 2

    def test_wrong_catalogue_complexity_aborts(self, monkeypatch):
        f0 = BASE_SURFACES[0]
        monkeypatch.setattr(stabilization, "BASE_SURFACES",
                            (f0._replace(chi_minus=5),) + BASE_SURFACES[1:])
        # At p = 11 the braid disk F0 enters once (at p = 10 it does not).
        with pytest.raises(ConsistencyError,
                           match=r"assembled chi 31 != closed form 30 at \(p,q,k\)=\(11,1,1\)"):
            stab_norms(family(11, 1, 1))

    def test_wrong_catalogue_boundary_aborts(self, monkeypatch):
        # The complexity still matches, so only the boundary check can see it.
        f0 = BASE_SURFACES[0]
        moved = f0.boundary._replace(on_gamma=PeripheralClass(1, 0))
        monkeypatch.setattr(stabilization, "BASE_SURFACES",
                            (f0._replace(boundary=moved),) + BASE_SURFACES[1:])
        with pytest.raises(ConsistencyError, match=r"assembled boundary .* != displayed"):
            stab_norms(family(11, 1, 1))


class TestVerdict:
    @pytest.mark.parametrize(
        "p, q, k, chi_capped, theta",
        [
            (10, 1, 1, 15, Fraction(3, 2)),
            (30, 1, 2, 114, Fraction(19, 5)),
            (16, 1, 4, 48, 3),
        ],
    )
    def test_examples(self, p, q, k, chi_capped, theta):
        v = stab_verdict(family(p, q, k))
        assert v.norms.chi_capped == chi_capped
        assert v.theta == theta
        assert v.certified_minimizer
        assert v.homology_class == k + 4

    def test_capped_matches_torus_knot(self):
        for p, q, k in [(26, 1, 3), (55, 2, 5), (91, 3, 7)]:
            v = stab_verdict(family(p, q, k))
            assert v.torus_chi == torus_knot_theta(LensSpace(p, q), k + 4).chi_minus
            assert v.norms.chi_capped == v.torus_chi
