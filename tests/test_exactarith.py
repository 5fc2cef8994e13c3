import random
from fractions import Fraction
from itertools import combinations
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lensgenus.exactarith import AbelianGroup, IntMatrix, fold_columns, peripheral_kernel

from _oracles import (
    cokernel_coordinates,
    cokernel_invariants,
    exact_det,
    mat_mul,
    minors_invariant_factors,
    random_unimodular,
    smith_normal_form,
)

LEMMA_MATRIX_814 = [[4, 0, 0, -1], [0, 1, -4, 0], [0, 0, 8, 1]]


def assert_valid_snf(rows):
    res = smith_normal_form(rows)
    d, u, v = ([list(r) for r in m] for m in (res.D, res.U, res.V))
    assert mat_mul(mat_mul(u, rows), v) == d
    assert all(x == 0 for i, row in enumerate(d) for j, x in enumerate(row) if i != j)
    assert abs(exact_det(u)) == 1
    assert abs(exact_det(v)) == 1
    factors = res.invariant_factors
    assert all(f > 0 for f in factors)
    for x, y in zip(factors, factors[1:]):
        assert y % x == 0
    return res


class TestSmithNormalForm:
    def test_identity(self):
        res = assert_valid_snf([[1, 0], [0, 1]])
        assert res.invariant_factors == (1, 1)
        assert res.D == ((1, 0), (0, 1))

    @pytest.mark.parametrize(
        "rows",
        [[[4, 6, -10]], [[4], [6], [-10]], [[4, 0, -1], [0, 8, 1], [2, -4, 0]]],
        ids=["1x3", "3x1", "3x3"],
    )
    def test_results_are_the_reductions_rows(self, rows):
        # D, U and V are tuples of int tuples, shaped m x n, m x m and n x n.
        res = assert_valid_snf(rows)
        m, n = len(rows), len(rows[0])
        for mat, shape in ((res.D, (m, n)), (res.U, (m, m)), (res.V, (n, n))):
            assert type(mat) is tuple and len(mat) == shape[0]
            for row in mat:
                assert type(row) is tuple and len(row) == shape[1]
                assert all(type(x) is int for x in row)

    def test_diag_4_6(self):
        # d1 = gcd(4,6) = 2, d2 = 24, so factors (2, 12)
        res = assert_valid_snf([[4, 0], [0, 6]])
        assert res.invariant_factors == (2, 12)

    def test_presentation_matrix_of_winding_four(self):
        res = assert_valid_snf(LEMMA_MATRIX_814)
        assert res.invariant_factors == (1, 1, 4)

    def test_empty_matrix_rejected(self):
        with pytest.raises(ValueError):
            smith_normal_form([])

    def test_matches_minors_oracle_small(self):
        rng = random.Random(20240917)
        for _ in range(300):
            m, n = rng.randint(1, 4), rng.randint(1, 4)
            rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]
            res = assert_valid_snf(rows)
            assert list(res.invariant_factors) == minors_invariant_factors(rows)

    def test_deterministic(self):
        rows = [[6, -3, 9], [2, 8, -5]]
        first = smith_normal_form(rows)
        second = smith_normal_form(rows)
        assert first == second

    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(min_value=1, max_value=5).flatmap(
            lambda n: st.lists(
                st.lists(st.integers(min_value=-50, max_value=50), min_size=n, max_size=n),
                min_size=1,
                max_size=5,
            )
        )
    )
    def test_snf_properties_random(self, rows):
        assert_valid_snf(rows)


class TestCokernel:
    def test_cyclic_presentation(self):
        for p in (2, 5, 12):
            g = cokernel_invariants(IntMatrix.from_rows([[p]]))
            assert g == AbelianGroup(free_rank=0, torsion=(p,))
            assert g.order() == p

    def test_winding_four_complement(self):
        g = cokernel_invariants(IntMatrix.from_rows(LEMMA_MATRIX_814))
        assert g == AbelianGroup(free_rank=1, torsion=(4,))
        assert str(g) == "Z + Z/4"
        assert g.order() is None

    def test_empty_relations(self):
        g = cokernel_invariants(IntMatrix(0, 2, ()))
        assert g == AbelianGroup(free_rank=2, torsion=())

    def test_unit_relation_kills_generator(self):
        g = cokernel_invariants(IntMatrix.from_rows([[1, 0], [0, 6]]))
        assert g == AbelianGroup(free_rank=0, torsion=(6,))

    def test_invariance_under_unimodular_moves(self):
        rng = random.Random(7)
        for _ in range(120):
            m, n = rng.randint(1, 4), rng.randint(1, 4)
            rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]
            left = random_unimodular(rng, m)
            right = random_unimodular(rng, n)
            moved = mat_mul(mat_mul(left, rows), right)
            assert cokernel_invariants(IntMatrix.from_rows(rows)) == cokernel_invariants(
                IntMatrix.from_rows(moved)
            )

    def test_coordinates_flag_row_space_membership(self):
        snf = smith_normal_form(LEMMA_MATRIX_814)
        for row in LEMMA_MATRIX_814:
            assert set(cokernel_coordinates(snf, tuple(row))) == {0}
        assert set(cokernel_coordinates(snf, (1, 0, 0, 0))) != {0}

    @pytest.mark.parametrize("vec", [(1, 0, 0), (1, 0, 0, 0, 0)])
    def test_coordinates_need_one_entry_per_generator(self, vec):
        snf = smith_normal_form(LEMMA_MATRIX_814)
        with pytest.raises(ValueError, match="vector length does not match generator count"):
            cokernel_coordinates(snf, vec)


class TestPeripheralKernel:
    @pytest.mark.parametrize(
        "rows, expected",
        [
            ([[4, 0, 0, -1], [0, 1, -4, 0], [0, 0, 8, 1]], (4, 2)),
            ([[0, 0, 0, -1], [0, 1, 0, 0], [0, 0, 8, 1]], (0, 1)),
            ([[2, 0, 0, -1], [0, 1, -2, 0], [0, 0, 8, 1]], (2, 4)),
            # p = 10**29 + 57, q = 7, w = 10**29 - 1: gcd(w, p) = 1, so (w^2 q, p).
            (
                [[10**29 - 1, 0, 0, -1], [0, 1, -(10**29 - 1), 0], [0, 0, 10**29 + 57, 7]],
                ((10**29 - 1) ** 2 * 7, 10**29 + 57),
            ),
        ],
    )
    def test_winding_presentations(self, rows, expected):
        assert peripheral_kernel(IntMatrix.from_rows(rows), 0, 1) == expected

    def test_generator_maps_to_zero_and_generates(self):
        a = IntMatrix.from_rows(LEMMA_MATRIX_814)
        x, y = peripheral_kernel(a, 0, 1)
        snf = smith_normal_form(LEMMA_MATRIX_814)

        def in_kernel(u, v):
            return set(cokernel_coordinates(snf, (u, v, 0, 0))) == {0}

        assert in_kernel(x, y)
        # Not a proper multiple of another kernel element.
        from math import gcd

        g = gcd(x, y)
        for prime in (2, 3, 5, 7):
            if g % prime == 0:
                assert not in_kernel(x // prime, y // prime)

    def test_rank_two_kernel_rejected(self):
        # Trivial cokernel: everything dies, so the kernel is all of Z^2.
        a = IntMatrix.from_rows([[1, 0], [0, 1]])
        with pytest.raises(ValueError, match="not cyclic"):
            peripheral_kernel(a, 0, 1)

    @pytest.mark.parametrize("a", [IntMatrix.from_rows([[0, 0]]), IntMatrix(0, 4, ())])
    def test_trivial_kernel_rejected(self, a):
        # Free cokernel on mu and lambda: only (0,0) dies.
        with pytest.raises(ValueError, match="not cyclic"):
            peripheral_kernel(a, 0, 1)

    def test_sign_normalization(self):
        a = IntMatrix.from_rows(LEMMA_MATRIX_814)
        x, y = peripheral_kernel(a, 0, 1)
        assert y >= 0

    def test_arbitrary_generator_columns(self):
        # Permuting columns (relabelling generators) moves mu/lambda but
        # not the kernel.
        permuted = [[row[2], row[3], row[0], row[1]] for row in LEMMA_MATRIX_814]
        assert peripheral_kernel(IntMatrix.from_rows(permuted), 2, 3) == (4, 2)

    def test_column_validation(self):
        a = IntMatrix.from_rows(LEMMA_MATRIX_814)
        with pytest.raises(ValueError):
            peripheral_kernel(a, 0, 4)
        with pytest.raises(ValueError):
            peripheral_kernel(a, 1, 1)


def in_row_space(rows, vec):
    """Whether ``vec`` is an integer combination of ``rows``, read off a Smith form."""
    if not rows:
        return not any(vec)
    snf = smith_normal_form(rows)
    return not any(cokernel_coordinates(snf, tuple(vec)))


class TestFoldColumns:
    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(min_value=1, max_value=5).flatmap(
            lambda n: st.tuples(
                st.lists(
                    st.lists(st.integers(min_value=-12, max_value=12), min_size=n, max_size=n),
                    min_size=1,
                    max_size=5,
                ),
                st.permutations(range(n)).flatmap(
                    lambda order: st.integers(0, n).map(lambda c: order[:c])),
            )
        )
    )
    @example(([[10**25, 3, 0], [-(10**25) - 1, 0, 7], [1, 10**25, 2]], [0, 2]))
    @example(([[0, 1], [0, 2]], [0, 1]))  # a zero column sets aside None
    def test_same_lattice_cleared_columns(self, case):
        rows, cols = case
        pivots, rest = fold_columns([list(r) for r in rows], cols)
        assert len(pivots) == len(cols)
        for i, (j, pivot) in enumerate(zip(cols, pivots)):
            column = [r[j] for r in rows]
            if pivot is None:  # the column is zero once those before it are cleared
                assert i or not any(column)
                continue
            # A pivot is zero in the columns cleared before it.
            assert all(pivot[c] == 0 for c in cols[:i])
            assert pivot[j] != 0
            if i == 0:
                assert abs(pivot[j]) == gcd(*column)
        assert all(r[j] == 0 for r in rest for j in cols)
        kept = [p for p in pivots if p is not None] + rest
        assert all(in_row_space(kept, r) for r in rows)
        assert all(in_row_space(rows, r) for r in kept)
        # Without pivots the last step of each column is skipped and the
        # rows left are the same.
        assert fold_columns([list(r) for r in rows], cols, pivots=False) == ([], rest)


def snf_kernel(a, mu_col, lambda_col):
    """The peripheral kernel read off Smith normal form's U, as a reference.

    The rows of U past the rank span the left kernel of [e_mu; e_lambda; A];
    their first two entries span the kernel's projection, a lattice in Z^2
    whose generator is the gcd of all entries times the primitive direction.
    """
    e_mu = [int(j == mu_col) for j in range(a.cols)]
    e_lam = [int(j == lambda_col) for j in range(a.cols)]
    b = [e_mu, e_lam] + a.to_lists()
    snf = smith_normal_form(b)
    pairs = [(snf.U[i][0], snf.U[i][1]) for i in range(len(snf.invariant_factors), len(b))]
    if any(x1 * y2 - x2 * y1 for (x1, y1), (x2, y2) in combinations(pairs, 2)):
        raise ValueError("not cyclic (rank 2)")
    nonzero = [p for p in pairs if p != (0, 0)]
    if not nonzero:
        raise ValueError("not cyclic (trivial)")
    g = 0
    for x, y in nonzero:
        g = gcd(g, x, y)
    x, y = nonzero[0]
    h = gcd(x, y)
    x, y = g * x // h, g * y // h
    return (-x, -y) if y < 0 or (y == 0 and x < 0) else (x, y)


def outcome(kernel, a, mu_col, lambda_col):
    try:
        return kernel(a, mu_col, lambda_col)
    except ValueError as exc:
        assert "not cyclic" in str(exc)
        return "not cyclic"


class TestRowKernelAgainstSmithForm:
    @settings(max_examples=400, deadline=None)
    @given(
        st.integers(min_value=2, max_value=4).flatmap(
            lambda n: st.tuples(
                st.lists(
                    st.lists(st.integers(min_value=-12, max_value=12), min_size=n, max_size=n),
                    min_size=1,
                    max_size=4,
                ),
                st.permutations(range(n)),
            )
        )
    )
    @example(([[1, 0], [0, 1]], [0, 1]))  # rank-2 kernel
    @example(([[0, 0]], [0, 1]))  # trivial kernel
    @example((LEMMA_MATRIX_814, [0, 1, 2, 3]))
    @example(  # wide and big: column 2 is all zero, mu and lambda come last
        (
            [
                [10**25, -(10**25), 0, 3, 7, -(10**25)],
                [-(10**25), 2, 0, 10**25, 0, 5],
                [1, 10**25 + 1, 0, -4, -(10**25), 0],
                [0, 6, 0, 10**25, 9, 10**25],
            ],
            [4, 5, 0, 1, 2, 3],
        )
    )
    def test_same_generator_or_both_reject(self, case):
        rows, order = case
        a = IntMatrix.from_rows(rows)
        mu_col, lambda_col = order[0], order[1]
        assert outcome(peripheral_kernel, a, mu_col, lambda_col) == outcome(
            snf_kernel, a, mu_col, lambda_col
        )


class TestIntMatrix:
    def test_shape_validation(self):
        with pytest.raises(ValueError):
            IntMatrix(2, 2, (1, 2, 3))
        with pytest.raises(ValueError):
            IntMatrix.from_rows([[1, 2], [3]])

    def test_from_rows_refuses_no_rows(self):
        # An empty row list fixes no generator count, so an empty relation set
        # names its columns; from_rows([]) once presented Z on one generator.
        with pytest.raises(ValueError, match=r"IntMatrix\(0, cols, \(\)\)"):
            IntMatrix.from_rows([])
        assert IntMatrix(0, 3, ()).to_lists() == []

    @pytest.mark.parametrize("entry", [1.0, "1", None, Fraction(1)])
    def test_entries_must_be_integers(self, entry):
        with pytest.raises(ValueError, match="entries must be integers"):
            IntMatrix(1, 2, (0, entry))
