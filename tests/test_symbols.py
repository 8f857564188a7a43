"""Coefficient-level symbol algebra tests."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import coeff, coeff_distance, eval_at
from shiftlab import symbols
from shiftlab.linalg import numerical_rank, singular_values
from shiftlab.operators import nehari_bounds
from shiftlab.symbols import (
    IsometryKind,
    _left_gram,
    block_symbol,
    circle_values,
    classify_isometry,
    constant_symbol,
    identity_symbol,
    make_cyclic_symbol,
    make_symbol,
    monomial_symbol,
    rank_profile,
    split_fiber_rows,
    split_square_blocks,
    symbol_mul,
    unit_circle_points,
    zero_symbol,
)


def sym_z():
    return make_symbol(1, 1, {1: [1]})


def sym_zbar():
    return make_symbol(1, 1, {-1: [1]})


def timotin_symbol():
    s = 1 / np.sqrt(2)
    return make_symbol(2, 2, {
        0: [[s, 0], [0, -s]],
        1: [[0, s], [0, 0]],
        -1: [[0, 0], [s, 0]],
    })


class TestConstruction:
    def test_constant_one(self):
        s = make_symbol(1, 1, {0: [1]})
        assert s.kmin == s.kmax == 0
        assert coeff(s, 0)[0, 0] == 1

    def test_single_antianalytic_monomial(self):
        s = make_symbol(1, 1, {-1: [1]})
        assert (s.kmin, s.kmax) == (-1, -1)

    def test_diagonal_assembly(self):
        s = make_symbol(2, 2, {0: [[1, 0], [0, 0]], 1: [[0, 0], [0, 1]]})
        assert (s.kmin, s.kmax) == (0, 1)
        np.testing.assert_allclose(eval_at(s, 1j), np.diag([1, 1j]))

    def test_canonical_trims_zero_extremes(self):
        s = make_symbol(1, 1, {-2: [0], 0: [3], 2: [0]})
        assert (s.kmin, s.kmax) == (0, 0)

    def test_zero_symbol_canonical_form(self):
        s = zero_symbol(2, 3)
        assert s.is_zero() and s.kmin == s.kmax == 0

    def test_empty_list_rejected(self):
        with pytest.raises(ValueError, match="zero_symbol"):
            make_symbol(1, 1, {})

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="entries"):
            make_symbol(2, 2, {0: [1, 2, 3]})

    def test_square_blocks_reassemble(self):
        rng = np.random.default_rng(8)
        s = make_symbol(3, 3, {k: rng.standard_normal((3, 3)) for k in (-2, 0, 1)})
        a, b, c, d = split_square_blocks(s, 1)
        assert [blk.shape for blk in (a, b, c, d)] == [(1, 1), (1, 2), (2, 1), (2, 2)]
        assert coeff_distance(block_symbol([[a, b], [c, d]]), s) == 0.0
        top, bottom = split_fiber_rows(s, 1)
        assert coeff_distance(block_symbol([[top], [bottom]]), s) == 0.0

    @pytest.mark.parametrize("shape, dim_e", [((3, 2), 1), ((2, 2), 0), ((2, 2), 2)])
    def test_split_rejects_a_layout_it_cannot_make(self, shape, dim_e):
        with pytest.raises(ValueError, match="square|split"):
            split_square_blocks(zero_symbol(*shape), dim_e)


class TestAlgebra:
    def test_inverse_monomials(self):
        prod = symbol_mul(sym_zbar(), sym_z())
        assert coeff_distance(prod, identity_symbol(1)) == 0

    def test_diagonal_product(self):
        s1 = make_symbol(2, 2, {0: [[1, 0], [0, 0]], 1: [[0, 0], [0, 1]]})
        s2 = make_symbol(2, 2, {0: [[0, 0], [0, 1]], 1: [[1, 0], [0, 0]]})
        prod = symbol_mul(s1, s2)
        expected = monomial_symbol(1, np.eye(2))
        assert coeff_distance(prod, expected) == 0

    def test_polynomial_product_by_hand(self):
        # (z**2) * (1 + z) expanded by hand gives z**2 + z**3
        theta = make_symbol(1, 1, {2: [1]})
        gamma = make_symbol(1, 1, {0: [1], 1: [1]})
        prod = symbol_mul(theta, gamma)
        assert coeff_distance(prod, make_symbol(1, 1, {2: [1], 3: [1]})) == 0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="inner dimensions"):
            symbol_mul(make_symbol(1, 2, {0: [[1, 1]]}), make_symbol(1, 1, {0: [1]}))

    def test_adjoint_of_z(self):
        assert coeff_distance(sym_z().adjoint(), sym_zbar()) == 0

    def test_adjoint_of_constant(self):
        s = constant_symbol(1j * np.eye(2))
        assert coeff_distance(s.adjoint(), constant_symbol(-1j * np.eye(2))) == 0

    def test_adjoint_transposes(self):
        s = make_symbol(1, 2, {0: [[0, 1]], 1: [[1, 0]]})
        adj = s.adjoint()
        assert adj.shape == (2, 1)
        assert coeff_distance(adj, make_symbol(2, 1, {0: [[0], [1]], -1: [[1], [0]]})) == 0

    def test_conj_arg_examples(self):
        assert coeff_distance(sym_z().conj_arg(), sym_zbar()) == 0
        s = make_symbol(1, 1, {0: [1], 1: [2]})
        assert coeff_distance(s.conj_arg(), make_symbol(1, 1, {0: [1], -1: [2]})) == 0

    def test_conj_arg_involution(self):
        s = make_symbol(1, 1, {2: [3], -1: [-1j]})
        assert coeff_distance(s.conj_arg().conj_arg(), s) == 0


@st.composite
def small_symbols(draw, rows=None, cols=None):
    rows = rows if rows is not None else draw(st.integers(1, 3))
    cols = cols if cols is not None else draw(st.integers(1, 3))
    kmin = draw(st.integers(-2, 0))
    kmax = draw(st.integers(0, 2))
    vals = st.integers(-3, 3)
    coeffs = {}
    for k in range(kmin, kmax + 1):
        re = draw(st.lists(vals, min_size=rows * cols, max_size=rows * cols))
        im = draw(st.lists(vals, min_size=rows * cols, max_size=rows * cols))
        coeffs[k] = (np.asarray(re) + 1j * np.asarray(im)).reshape(rows, cols)
    return make_symbol(rows, cols, coeffs)


class TestProperties:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_eval_multiplicative(self, data):
        s1 = data.draw(small_symbols())
        s2 = data.draw(small_symbols(rows=s1.cols))
        prod = symbol_mul(s1, s2)
        for z in unit_circle_points(5):
            np.testing.assert_allclose(
                eval_at(prod, z), eval_at(s1, z) @ eval_at(s2, z), atol=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(s=small_symbols())
    def test_adjoint_involution_and_eval(self, s):
        assert coeff_distance(s.adjoint().adjoint(), s) == 0
        for z in unit_circle_points(4):
            np.testing.assert_allclose(
                eval_at(s.adjoint(), z), eval_at(s, z).conj().T, atol=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(s=small_symbols())
    def test_conj_arg_eval(self, s):
        assert coeff_distance(s.conj_arg().conj_arg(), s) == 0
        for z in unit_circle_points(4):
            np.testing.assert_allclose(
                eval_at(s.conj_arg(), z), eval_at(s, np.conj(z)), atol=1e-12)


class TestNonzeroTermLoops:
    """The coefficient loops skip zero coefficients; the dense loops over
    every stored coefficient are the reference, to the last bit."""

    @staticmethod
    def gapped_symbol(rng, rows, cols):
        ks = rng.choice(np.arange(-6, 7), size=3, replace=False)
        return make_symbol(rows, cols, {
            int(k): rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
            for k in ks})

    def test_bit_identical_to_dense_loops(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            s1, s2 = self.gapped_symbol(rng, 2, 3), self.gapped_symbol(rng, 3, 2)
            dense = np.zeros((len(s1.coeffs) + len(s2.coeffs) - 1, 2, 2), dtype=complex)
            for i, a in enumerate(s1.coeffs):
                for j, b in enumerate(s2.coeffs):
                    dense[i + j] += a @ b
            np.testing.assert_array_equal(symbol_mul(s1, s2).coeffs, dense)
            # the Gram lags are those of pairs of nonzero terms; every other
            # lag of the dense loop sums exact zeros
            n = len(s1.coeffs)
            gram = _left_gram(s1)
            assert sorted(gram) == sorted({i - j for i in s1.terms for j in s1.terms})
            for m in range(1 - n, n):
                ref = np.zeros((3, 3), dtype=complex)
                for j in range(n):
                    if 0 <= j + m < n:
                        ref += s1.coeffs[j].conj().T @ s1.coeffs[j + m]
                np.testing.assert_array_equal(gram.get(m, np.zeros((3, 3))), ref)


class TestNonzeroTermsOnce:
    """Each symbol finds its nonzero coefficients once, however often the
    circle is sampled."""

    def test_nehari_sampling_does_not_rescan_the_stack(self, monkeypatch):
        calls, original = [], symbols._nonzero_terms

        def counted(coeffs):
            calls.append(coeffs.shape[0])
            return original(coeffs)

        monkeypatch.setattr(symbols, "_nonzero_terms", counted)
        counts = []
        for k in (1000, 2000):
            # L1 = 0.5 + 0.5 z^k: the completed symbol has band k and is
            # sampled at 4k + 1 points
            l1 = make_symbol(1, 1, {0: [0.5], k: [0.5]})
            calls.clear()
            assert len(nehari_bounds(timotin_symbol(), 1, [(l1, zero_symbol(1, 1))])) == 1
            counts.append(len(calls))
        assert counts[0] == counts[1] < 50


class TestClassification:
    def test_column_isometry(self):
        r = 1 / np.sqrt(3)
        phi = make_symbol(3, 1, {0: [[r], [0], [0]], -1: [[0], [r], [r]]})
        cls = classify_isometry(phi)
        assert cls.kind is IsometryKind.ISOMETRY
        assert cls.residual <= 1e-14
        # pointwise oracle: phi(z)^H phi(z) = 1 on sampled circle points
        for z in unit_circle_points(7):
            np.testing.assert_allclose(
                eval_at(phi, z).conj().T @ eval_at(phi, z), [[1.0]], atol=1e-12)

    def test_identity_unitary(self):
        cls = classify_isometry(identity_symbol(2))
        assert cls.kind is IsometryKind.UNITARY

    def test_degree_one_unitary(self):
        phi = timotin_symbol()
        cls = classify_isometry(phi)
        assert cls.kind is IsometryKind.UNITARY
        assert cls.residual <= 1e-14
        for z in unit_circle_points(9):
            np.testing.assert_allclose(
                eval_at(phi, z).conj().T @ eval_at(phi, z), np.eye(2), atol=1e-12)

    def test_zero_kind(self):
        assert classify_isometry(zero_symbol(2, 2)).kind is IsometryKind.ZERO

    def test_none_kind_has_positive_residual(self):
        row = make_symbol(1, 2, {0: [[1, 0]], 1: [[0, 1]]})
        cls = classify_isometry(row)
        assert cls.kind is IsometryKind.NONE
        assert cls.residual > 1e-3

    def test_partial_isometry_with_padding(self):
        r = 1 / np.sqrt(3)
        phi = make_symbol(3, 3, {0: [[r, 0, 0], [0, 0, 0], [0, 0, 0]],
                                 -1: [[0, 0, 0], [r, 0, 0], [r, 0, 0]]})
        cls = classify_isometry(phi)
        assert cls.kind is IsometryKind.PARTIAL_ISOMETRY

    def test_coisometry(self):
        r = 1 / np.sqrt(3)
        phi = make_symbol(1, 3, {0: [[r, 0, 0]], 1: [[0, r, r]]})
        cls = classify_isometry(phi)
        assert cls.kind is IsometryKind.COISOMETRY


class TestLeftGramMemory:
    """_left_gram keeps one matrix per lag of two nonzero terms, not one per
    lag of the stored band, so a far coefficient costs memory in proportion
    to the coefficient stack alone."""

    def test_far_coefficient_stays_within_a_small_multiple_of_the_stack(self):
        # U = diag(z**200000, 1): the stack holds 200,001 2 x 2 coefficients,
        # two of them nonzero; one Gram matrix per lag of the band took 18x
        # the stack's bytes
        u = make_symbol(2, 2, {0: [[0, 0], [0, 1]], 200000: [[1, 0], [0, 0]]})
        tracemalloc.start()
        try:
            cls = classify_isometry(u)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert cls.kind is IsometryKind.UNITARY and cls.residual == 0.0
        assert peak <= 3 * u.coeffs.nbytes


class TestRankProfile:
    def test_unitary_valued_implies_constant_full_rank(self):
        phi = timotin_symbol()
        assert classify_isometry(phi).kind is IsometryKind.UNITARY
        assert set(rank_profile(phi, 9)) == {2}

    def test_diagonal_full_rank(self):
        s = make_symbol(2, 2, {0: [[1, 0], [0, 0]], 1: [[0, 0], [0, 1]]})
        assert set(rank_profile(s, 9)) == {2}

    def test_row_never_vanishes(self):
        s = make_symbol(1, 2, {0: [[0, -1 / np.sqrt(2)]], 1: [[1 / np.sqrt(2), 0]]})
        assert set(rank_profile(s, 9)) == {1}

    def test_zero_of_scalar_polynomial_detected(self):
        # z - 1 vanishes at the sample z = 1 and nowhere else on the grid
        s = make_symbol(1, 1, {0: [-1], 1: [1]})
        ranks = rank_profile(s, 8)
        assert len(set(ranks)) > 1
        assert ranks[0] == 0 and all(r == 1 for r in ranks[1:])

    def test_undersampling_rejected(self):
        with pytest.raises(ValueError, match="undersamples"):
            rank_profile(timotin_symbol(), 2)

    def test_zero_symbol_has_rank_zero_everywhere(self):
        assert rank_profile(zero_symbol(1, 2), 5) == [0] * 5


@st.composite
def sparse_symbols(draw):
    """Up to four nonzero Gaussian coefficients at degrees in [-60, 60]; none
    gives the zero symbol, one a symbol of bandwidth 0."""
    rows, cols = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    degrees = draw(st.sets(st.integers(-60, 60), max_size=4))
    if not degrees:
        return zero_symbol(rows, cols)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    return make_symbol(rows, cols, {
        k: rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
        for k in degrees})


class TestCircleValues:
    """The chunked sampler against the per-point oracle ``conftest.eval_at``,
    which takes z**k where the sampler takes the root of index k j mod N."""

    @settings(max_examples=80, deadline=None)
    @given(s=sparse_symbols(), extra=st.integers(0, 40))
    # 101 stored coefficients of 2 entries, 2 terms: chunks of 25 points,
    # and 205 points take 9 chunks, the last of 5
    @example(s=make_symbol(2, 1, {-50: [[1], [-0.5j]], 50: [[0.25], [2]]}), extra=4)
    def test_chunks_match_the_pointwise_oracle(self, s, extra):
        count = 2 * s.bandwidth + 1 + extra
        chunks = list(circle_values(s, count))
        width = max(len(s.terms), s.rows * s.cols)
        assert len({c.shape[0] for c in chunks[:-1]}) <= 1
        assert all(c.shape[0] == 1 or 4 * c.shape[0] * width <= s.coeffs.size for c in chunks)
        values = np.concatenate(chunks)
        assert values.shape == (count, s.rows, s.cols)
        points = unit_circle_points(count)
        for z, v in zip(points, values):
            np.testing.assert_allclose(v, eval_at(s, z), rtol=1e-12, atol=1e-12)
        assert rank_profile(s, count) == [numerical_rank(singular_values(eval_at(s, z)))
                                          for z in points]


class TestCyclicSymbol:
    def test_single_pole_geometric(self):
        s = make_cyclic_symbol([0.5], [1.0], 3)
        got = [coeff(s, -k)[0, 0] for k in (1, 2, 3)]
        np.testing.assert_allclose(got, [1.0, 0.5, 0.25])

    def test_two_pole_direct_sum(self):
        s = make_cyclic_symbol([0.5, 1 / 3], [0.25, 1 / 16], 2)
        np.testing.assert_allclose(coeff(s, -1)[0, 0], 0.25 + 1 / 16)
        np.testing.assert_allclose(coeff(s, -2)[0, 0], 0.125 + 1 / 48)

    def test_empty_pole_list(self):
        assert make_cyclic_symbol([], [], 5).is_zero()

    def test_analytic_part_empty(self):
        s = make_cyclic_symbol([0.5, 0.25], [1, 1], 4)
        assert s.kmax <= -1

    def test_repeated_pole_rejected(self):
        with pytest.raises(ValueError, match="distinct"):
            make_cyclic_symbol([0.5, 0.5], [1, 1], 3)

    def test_pole_outside_disk_rejected(self):
        with pytest.raises(ValueError, match="unit disk"):
            make_cyclic_symbol([1.0], [1], 3)
