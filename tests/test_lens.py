from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lensgenus.lens import (
    H1Class,
    LensSpace,
    simple_knot_class,
    simple_knot_in_class,
)


def brute_class(p, q, a):
    """The unique c with q*c = a (mod p), by search."""
    for c in range(p):
        if (q * c - a) % p == 0:
            return c
    raise AssertionError("no class found")


coprime_pairs = st.integers(min_value=2, max_value=200).flatmap(
    lambda p: st.tuples(
        st.just(p),
        st.integers(min_value=1, max_value=p - 1).filter(lambda q: gcd(p, q) == 1),
    )
)


class TestLensSpace:
    def test_validation(self):
        with pytest.raises(ValueError):
            LensSpace(4, 2)
        with pytest.raises(ValueError):
            LensSpace(3, 3)
        with pytest.raises(ValueError):
            LensSpace(3, 0)

    def test_str(self):
        assert str(LensSpace(8, 3)) == "L(8,3)"


class TestSimpleKnotClass:
    @pytest.mark.parametrize(
        "p, q, a, expected",
        [(8, 1, 4, 4), (5, 2, 1, 3), (8, 3, 6, 2)],
    )
    def test_examples(self, p, q, a, expected):
        assert brute_class(p, q, a) == expected
        assert simple_knot_class(LensSpace(p, q), a) == expected

    @given(coprime_pairs)
    @settings(max_examples=60, deadline=None)
    def test_bijection(self, pq):
        p, q = pq
        space = LensSpace(p, q)
        image = {simple_knot_class(space, a) for a in range(p)}
        assert image == set(range(p))

    @given(coprime_pairs)
    @settings(max_examples=60, deadline=None)
    def test_roundtrip(self, pq):
        p, q = pq
        space = LensSpace(p, q)
        for a in range(p):
            c = simple_knot_class(space, a)
            assert simple_knot_in_class(H1Class(c, space)) == a

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            simple_knot_class(LensSpace(8, 1), 8)


class TestSimpleKnotInClass:
    def test_examples(self):
        space = LensSpace(8, 1)
        assert simple_knot_in_class(H1Class(4, space)) == 4
        space = LensSpace(5, 2)
        assert simple_knot_in_class(H1Class(3, space)) == 1
        assert simple_knot_in_class(H1Class(2, LensSpace(7, 3))) == 6

    def test_class_zero_is_unknot(self):
        for p, q in [(8, 1), (5, 2), (13, 5)]:
            space = LensSpace(p, q)
            assert simple_knot_in_class(H1Class(0, space)) == 0
