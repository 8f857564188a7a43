"""Shared linear-algebra helpers."""

import dataclasses
import re
import sys
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import conftest
from conftest import (
    dense_of_list,
    dense_operator,
    dense_principal_angle_distance,
    gram_norm,
    haar_unitary,
    hankel_op,
    nonzero_triplets,
    ref_binary,
    ref_penrose_norm,
    signed_zero_matrix,
    support_core,
)
from shiftlab import cli, linalg, operators
from shiftlab.linalg import (
    RANK_RTOL,
    Triplets,
    column_space,
    extent,
    sparse_difference,
    sparse_norm,
    sparse_product,
    nullspace,
    principal_angle_distance,
    project,
    singular_values,
    spectral_norm,
    times,
)
from shiftlab.operators import (
    _binary_singular_values,
    _penrose_certified,
    _penrose_defect,
    build_kernel_operator,
)
from shiftlab.subspaces import TYPE_I, InvariantSubspaceSpec, bilateral_subspace
from shiftlab.symbols import make_symbol, zero_symbol


def kernel_of(m):
    """``nullspace`` of the entries of the dense m, as a dense basis."""
    return dense_of_list(nullspace(nonzero_triplets(m), m.shape[1]), m.shape[1])


def span_of(m):
    """``column_space`` of the entries of the dense m, as a dense basis."""
    return dense_of_list(column_space(nonzero_triplets(m)), m.shape[0])


def every_entry(m) -> Triplets:
    """Every entry of the dense m as a triplet, zeros and -0.0 included."""
    rows, cols = np.indices(m.shape)
    return Triplets(rows.ravel(), cols.ravel(), m.ravel())


class TestSpectralNorm:
    def test_zero_matrix_is_exactly_zero(self):
        value = spectral_norm(nonzero_triplets(np.zeros((5, 3), dtype=complex)))
        assert value == 0.0 and type(value) is float
        value = spectral_norm(every_entry(np.zeros((5, 3), dtype=complex)))
        assert value == 0.0 and type(value) is float

    def test_empty_matrix_is_exactly_zero(self):
        assert spectral_norm(nonzero_triplets(np.zeros((4, 0), dtype=complex))) == 0.0
        assert spectral_norm(nonzero_triplets(np.zeros((0, 0)))) == 0.0
        assert spectral_norm(linalg._NONE) == 0.0


def orthonormal(rng, d, k):
    z = rng.standard_normal((d, k)) + 1j * rng.standard_normal((d, k))
    return np.linalg.qr(z)[0]


class TestPrincipalAngleDistance:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), d=st.integers(1, 60),
           data=st.data(), log_eps=st.floats(-16, 0))
    def test_one_sided_norm_matches_two_sided(self, seed, d, data, log_eps):
        # equal dimensions: ||(I - P1) B2|| = ||(I - P2) B1|| in exact arithmetic
        k = data.draw(st.integers(1, d))
        rng = np.random.default_rng(seed)
        b1 = orthonormal(rng, d, k)
        noise = rng.standard_normal((d, k)) + 1j * rng.standard_normal((d, k))
        b2 = np.linalg.qr(b1 + 10.0 ** log_eps * noise)[0]
        r12 = b2 - b1 @ (b1.conj().T @ b2)
        r21 = b1 - b2 @ (b2.conj().T @ b1)
        reference = min(1.0, max(np.linalg.norm(r12, 2), np.linalg.norm(r21, 2)))
        distance = principal_angle_distance(nonzero_triplets(b1), nonzero_triplets(b2))
        assert abs(distance - reference) <= 1e-14

    def test_dimension_mismatch_is_one(self):
        rng = np.random.default_rng(0)
        assert principal_angle_distance(nonzero_triplets(orthonormal(rng, 6, 2)),
                                        nonzero_triplets(orthonormal(rng, 6, 3))) == 1.0


# Dense references: the full matrix factored as it stands, zero rows and
# columns included.

def ref_singular_values(m):
    return np.linalg.svd(m, compute_uv=False) if m.size else np.zeros(0)


def ref_nullspace(m, rtol=RANK_RTOL):
    if m.size == 0:
        return np.eye(m.shape[1], dtype=complex)
    _, sv, vh = np.linalg.svd(m, full_matrices=True)
    cutoff = rtol * sv[0] if sv[0] > 0 else rtol
    return vh[int(np.sum(sv > cutoff)):].conj().T


def ref_column_space(m, rtol=RANK_RTOL):
    if m.size == 0:
        return np.zeros((m.shape[0], 0), dtype=complex)
    u, sv, _ = np.linalg.svd(m, full_matrices=False)
    if sv[0] == 0.0:
        return np.zeros((m.shape[0], 0), dtype=complex)
    return u[:, :int(np.sum(sv > rtol * sv[0]))]


def planted(rng, rows, cols, support_rows, support_cols, rank, binary):
    """rows x cols matrix that is zero outside a rank-`rank` core on the
    chosen rows and columns; the core's nonzero singular values are 1 when
    `binary`, else in [0.5, 2], so every rank decision has a wide margin."""
    m = np.zeros((rows, cols), dtype=complex)
    r, c = support_rows.size, support_cols.size
    rank = min(rank, r, c)
    if rank:
        s = np.ones(rank) if binary else rng.uniform(0.5, 2.0, rank)
        core = (orthonormal(rng, r, rank) * s) @ orthonormal(rng, c, rank).conj().T
        m[np.ix_(support_rows, support_cols)] = core
    return m


def assert_orthonormal(b):
    assert np.max(np.abs(b.conj().T @ b - np.eye(b.shape[1])), initial=0.0) <= 1e-12


def assert_same_span(b, ref):
    assert b.shape == ref.shape
    assert_orthonormal(b)
    assert dense_principal_angle_distance(b, ref) <= 1e-12


@st.composite
def planted_matrices(draw):
    rows = draw(st.integers(0, 12))
    cols = draw(st.integers(0, 12))
    keep_rows = draw(st.lists(st.booleans(), min_size=rows, max_size=rows))
    keep_cols = draw(st.lists(st.booleans(), min_size=cols, max_size=cols))
    rank = draw(st.integers(0, 12))
    binary = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    return planted(rng, rows, cols, np.flatnonzero(keep_rows), np.flatnonzero(keep_cols),
                   rank, binary)


SPECIAL_SHAPES = [(0, 0), (0, 5), (5, 0), (1, 7), (7, 1), (6, 6), (4, 9), (9, 4)]


def special_matrices():
    """Empty, all-zero, single-row, single-column and rank-deficient cases."""
    rng = np.random.default_rng(5)
    out = []
    for rows, cols in SPECIAL_SHAPES:
        out.append(np.zeros((rows, cols), dtype=complex))
        out.append(planted(rng, rows, cols, np.arange(rows), np.arange(cols), 2, False))
        out.append(planted(rng, rows, cols, np.arange(0, rows, 2), np.arange(1, cols, 2),
                           3, True))
    return out


class TestSupportStripping:
    """The helpers factor only the nonzero core of m; each must agree with
    the dense factorization of m itself."""

    def check(self, m):
        t = nonzero_triplets(m)
        sv, ref_sv = singular_values(t), ref_singular_values(m)
        nonzero = ref_sv[ref_sv > 1e-12]
        np.testing.assert_allclose(sv[sv > 1e-12], nonzero, rtol=0, atol=1e-12)
        assert np.all(sv[nonzero.size:] <= 1e-12)
        assert spectral_norm(t) == pytest.approx(ref_sv[0] if ref_sv.size else 0.0,
                                                 abs=1e-12)
        assert_same_span(kernel_of(m), ref_nullspace(m))
        assert_same_span(span_of(m), ref_column_space(m))
        for tol in (1e-8, 0.3):
            # an empty matrix is svd_analysis's empty window, refused there
            assert (m.size > 0 and _binary_singular_values(t, tol)) == ref_binary(m, tol)

    @settings(max_examples=150, deadline=None)
    @given(m=planted_matrices())
    def test_planted_zero_rows_and_columns(self, m):
        self.check(m)

    @pytest.mark.parametrize("index", range(3 * len(SPECIAL_SHAPES)))
    def test_special_shapes(self, index):
        self.check(special_matrices()[index])

    def test_zero_columns_are_kernel_unit_vectors(self):
        m = np.zeros((3, 4), dtype=complex)
        m[:, 1] = [1.0, 2.0, 0.0]
        kernel = kernel_of(m)
        assert kernel.shape == (4, 3)
        assert np.allclose(kernel[1], 0.0)
        assert np.allclose(m @ kernel, 0.0)

    def test_column_space_lives_on_support_rows(self):
        m = np.zeros((5, 2), dtype=complex)
        m[[0, 3], 0] = [3.0, 4.0]
        basis = span_of(m)
        assert basis.shape == (5, 1)
        np.testing.assert_allclose(np.abs(basis[:, 0]), [0.6, 0, 0, 0.8, 0], atol=1e-15)


PENROSE_TOLS = [1e-12, 1e-8, 1e-4, 0.3, 0.7, 1.5]


def penrose_gram(t, monkeypatch):
    """The (G, d, joined) that ``_penrose_defect(t)`` forms through
    ``linalg._gram``, or None past its budget."""
    found = []

    def spied(w, limit):
        found.append(linalg._gram(w, limit))
        return found[-1]

    with monkeypatch.context() as patch:
        patch.setattr(operators, "_gram", spied)
        _penrose_defect(t)
    (gram,) = found
    return gram


def band_edges(tol):
    """Singular values just inside and just outside the binary band of tol
    at both of its edges, and 0.5, 0 and 1."""
    near = [tol * (1 - 1e-3), tol * (1 + 1e-3)]
    edges = near + [1 - t for t in near] + [1 + t for t in near] + [0.5, 0.0, 1.0]
    return [s for s in edges if s >= 0]


class TestPenroseCertificate:
    """The certificate ||a (a* a) - a||_F < PENROSE_MARGIN tol (1 - tol^2),
    taken on the nonzero triplets of a, is sufficient, never necessary: a
    certified matrix has every singular value in the band.  The cores have
    full support, so the fallback SVD factors the same matrix as the
    reference and the two verdicts agree exactly."""

    @settings(max_examples=200, deadline=None)
    @given(tol=st.sampled_from(PENROSE_TOLS), picks=st.lists(st.integers(0, 8), min_size=1,
                                                             max_size=5),
           extra=st.integers(0, 4), wide=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
    # one singular value just above the band's lower edge: s |s^2 - 1| = 0.91 tol
    @example(tol=0.3, picks=[1], extra=0, wide=False, seed=0)
    def test_certified_matrices_are_in_the_band(self, tol, picks, extra, wide, seed):
        edges = band_edges(tol)
        sv = np.array([edges[i % len(edges)] for i in picks])
        rng = np.random.default_rng(seed)
        short, long = sv.size, sv.size + extra
        u, v = orthonormal(rng, long, short), orthonormal(rng, short, short)
        m = (u * sv) @ v.conj().T
        if wide:
            m = m.conj().T
        if _penrose_certified(nonzero_triplets(m), tol):
            assert ref_binary(m, tol)
        assert _binary_singular_values(nonzero_triplets(m), tol) == ref_binary(m, tol)

    @pytest.mark.parametrize("tol", PENROSE_TOLS)
    def test_partial_isometries_are_certified_below_one(self, tol, monkeypatch):
        # three 3 x 2 partial isometries of ranks 1, 2 and 1 on disjoint
        # rows and columns, so the Gram matrix stays under its term budget
        rng = np.random.default_rng(3)
        m = block_diagonal([orthonormal(rng, 3, r) @ orthonormal(rng, 2, r).conj().T
                            for r in (1, 2, 1)])
        t = nonzero_triplets(m)
        assert penrose_gram(t, monkeypatch) is not None
        assert _penrose_certified(t, tol) == (tol < 1.0)
        assert _binary_singular_values(t, tol)


def ref_support(m):
    nonzero = m != 0
    return np.flatnonzero(nonzero.any(axis=1)), np.flatnonzero(nonzero.any(axis=0))


def transposed(t):
    """The entry list of the transpose of the matrix t lists."""
    return Triplets(t.cols, t.rows, t.vals)


def block_support(t):
    """The rows and the columns of the matrix t lists that ``_blocks``
    places in a block, ascending: its rows as the columns of the transpose."""
    return tuple(np.sort(np.concatenate([np.zeros(0, int)]
                                        + [cols.ravel() for cols, _ in linalg._blocks(x)]))
                 for x in (transposed(t), t))


class TestNonzeroMasks:
    """_blocks reads an entry list that may list zeros, -0.0 and entries
    with one part zero; it must find exactly the entries m != 0 finds, and
    its stacks must hold exactly m's values there."""

    def check(self, m):
        t = every_entry(m)
        for got, ref in zip(block_support(t), ref_support(m)):
            np.testing.assert_array_equal(got, ref)
        for cols, stack in linalg._blocks(t):
            for at, block in zip(cols, stack):
                # a block's rows are those its columns meet, ascending
                rows = np.flatnonzero((m[:, at] != 0).any(axis=1))
                np.testing.assert_array_equal(block, m[np.ix_(rows, at)])

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), rows=st.integers(0, 9), cols=st.integers(0, 9))
    def test_signed_zeros_and_single_parts(self, seed, rows, cols):
        self.check(signed_zero_matrix(np.random.default_rng(seed), rows, cols))

    @pytest.mark.parametrize("view", ["strided", "transposed", "column-gather", "column-slice",
                                      "real"])
    def test_non_contiguous_and_real_inputs(self, view):
        big = signed_zero_matrix(np.random.default_rng(7), 12, 15)
        big[3, :] = 0
        big[:, 4] = -0.0
        # a transpose and a column gather are column-major, the slices neither
        m = {"strided": big[::2, 1::3], "transposed": big.T,
             "column-gather": big[:, [0, 4, 5, 9, 14]], "column-slice": big[:, 2:9],
             "real": big.real.copy()}[view]
        assert view == "real" or not m.flags.c_contiguous
        self.check(m)


def dense_of(t, shape):
    """The matrix a triplet list describes, repeated positions summed."""
    m = np.zeros(shape, dtype=complex)
    np.add.at(m, (t.rows, t.cols), t.vals)
    return m


class TestNonzeroTriplets:
    """The oracle nonzero_triplets (tests/conftest.py) lists exactly the
    entries np.nonzero(m) finds, in its order and with their values: -0.0
    and complex(-0.0, -0.0) are dropped as m != 0 drops them.  The
    operator builders' entries are held against it."""

    def check(self, m):
        t = nonzero_triplets(m)
        rows, cols = np.nonzero(m)
        np.testing.assert_array_equal(t.rows, rows)
        np.testing.assert_array_equal(t.cols, cols)
        np.testing.assert_array_equal(t.vals, m[rows, cols])
        assert np.all(t.vals != 0)

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), rows=st.integers(0, 9), cols=st.integers(0, 9))
    def test_signed_zeros_and_single_parts(self, seed, rows, cols):
        self.check(signed_zero_matrix(np.random.default_rng(seed), rows, cols))

    def test_all_zero_operator(self):
        op = build_kernel_operator(zero_symbol(2, 2), 1, 4)
        assert op.entries.rows.size == 0
        m = dense_operator(op)
        m[::3, ::2] = complex(-0.0, -0.0)
        self.check(m)
        assert nonzero_triplets(m).rows.size == 0

    def test_operator_with_an_empty_window(self):
        # the builder lists the whole matrix; the window is applied by each check
        op = hankel_op(make_symbol(1, 1, {-5: [1], -6: [-0.0]}), 2)
        assert op.exact_window == -1
        m = dense_operator(op)
        self.check(m)
        for got, ref in zip(op.entries, nonzero_triplets(m)):
            np.testing.assert_array_equal(got, ref)
        np.testing.assert_array_equal(dense_of(op.entries, m.shape), m)


@st.composite
def sparse_pairs(draw):
    """(a, b): two signed-zero matrices that can be multiplied; their
    entries are dyadic, so every product and sum of them is exact."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    rows, inner, cols = (draw(st.integers(0, 9)) for _ in range(3))
    return signed_zero_matrix(rng, rows, inner), signed_zero_matrix(rng, inner, cols)


class TestSparseProducts:
    """The triplet products, differences and cores against dense arrays;
    the entries are exact in binary, so the results must be equal."""

    @settings(max_examples=100, deadline=None)
    @given(pair=sparse_pairs())
    def test_product_matches_dense(self, pair):
        a, b = pair
        ta, tb = nonzero_triplets(a), nonzero_triplets(b)
        terms = sum(np.count_nonzero(b[k]) for k in ta.cols)
        product = sparse_product(ta, tb, terms)
        np.testing.assert_array_equal(dense_of(product, (a.shape[0], b.shape[1])), a @ b)
        keys = product.rows * max(b.shape[1], 1) + product.cols
        assert np.all(np.diff(keys) > 0), "one entry per position, row-major"
        if terms:
            assert sparse_product(ta, tb, terms - 1) is None

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), rows=st.integers(0, 9), cols=st.integers(0, 9))
    def test_difference_matches_dense(self, seed, rows, cols):
        rng = np.random.default_rng(seed)
        a = signed_zero_matrix(rng, rows, cols)
        b = np.where(rng.random((rows, cols)) < 0.5, a, signed_zero_matrix(rng, rows, cols))
        diff = sparse_difference(nonzero_triplets(a), nonzero_triplets(b))
        assert np.all(diff.vals != 0)
        np.testing.assert_array_equal(dense_of(diff, a.shape), a - b)
        for got, ref in zip(diff, nonzero_triplets(a - b)):
            np.testing.assert_array_equal(got, ref)

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), rows=st.integers(0, 9), cols=st.integers(0, 9))
    def test_support_core_is_the_stripped_matrix(self, seed, rows, cols):
        m = signed_zero_matrix(np.random.default_rng(seed), rows, cols)
        core = support_core(nonzero_triplets(m))
        ref = m[np.ix_(*ref_support(m))]
        assert core.shape == ref.shape
        np.testing.assert_array_equal(core, ref)


class TestGram:
    """``linalg._gram`` joins the columns whose Gram cosine exceeds
    NEGLIGIBLE eps, on the entries scaled by ``linalg._exponent``, at every
    scale."""

    @settings(max_examples=150, deadline=None)
    @given(entries=st.dictionaries(st.tuples(st.integers(0, 5), st.integers(0, 5)),
                                   st.tuples(st.integers(-2 ** 10, 2 ** 10),
                                             st.integers(-2 ** 10, 2 ** 10)),
                                   min_size=1, max_size=20),
           power=st.integers(-1074, 990))
    # the Gram entries of these would underflow to 0 or overflow unscaled
    @example(entries={(0, 0): (3, 1), (1, 0): (1, -2), (1, 1): (5, 0)}, power=-560)
    @example(entries={(0, 0): (3, 1), (1, 0): (1, -2), (1, 1): (5, 0)}, power=520)
    # every entry subnormal
    @example(entries={(0, 0): (3, 1), (1, 0): (1, -2), (2, 1): (-7, 4)}, power=-1074)
    def test_joined_matches_the_dense_cosine(self, entries, power):
        (rows, cols), ints = zip(*entries.keys()), np.array(list(entries.values()))
        # Gaussian integers of at most 11 bits: their Gram matrix is exact
        mantissas = ints[:, 0] + 1j * ints[:, 1]
        t = Triplets(np.array(rows), np.array(cols), np.ldexp(ints, power).view(complex).ravel())
        np.testing.assert_array_equal(t.vals, mantissas * 2.0 ** power)
        exp = linalg._exponent(np.abs(t.vals))
        scaled = np.ldexp(t.vals.view(float), -exp).view(complex)
        assert np.max(np.abs(scaled)) < 1.0
        assert np.max(np.abs(scaled)) >= 0.5 or exp == -1021 or not scaled.any()
        assert np.ldexp(scaled.view(float), exp).tobytes() == t.vals.tobytes()
        gram, d, joined = linalg._gram(t._replace(vals=scaled), 10 ** 4)
        w = np.zeros((6, 6), dtype=complex)
        w[rows, cols] = mantissas
        dense = w.conj().T @ w
        norms = np.sqrt(np.abs(np.diag(dense)))
        with np.errstate(divide="ignore", invalid="ignore"):
            cosine = np.abs(dense) / np.outer(norms, norms)
        oracle = (cosine > linalg.NEGLIGIBLE * np.finfo(float).eps) & ~np.eye(6, dtype=bool)
        found = np.zeros((6, 6), dtype=bool)
        found[gram.rows, gram.cols] = joined
        np.testing.assert_array_equal(found, oracle)
        np.testing.assert_array_equal(np.ldexp(d, 2 * (exp - power)), np.diag(dense).real[:d.size])


def ref_norm(m):
    """sigma_max by the values-only SVD of the dense matrix; 0.0 when empty."""
    return float(np.linalg.svd(m, compute_uv=False)[0]) if m.size else 0.0


def cancelling_blocks(rng, blocks, wide):
    """Block-diagonal 3 x 2 blocks [[1, 1], [1, -1], [1, 0]], each scaled by
    a power of 2, transposed when wide.  The two columns (rows) of a block
    share two rows (columns), so their Gram entry is a sum of two terms
    that cancels to exactly 0; they are orthogonal, and the norm is
    sqrt(3) times the largest scale."""
    scales = 2.0 ** rng.integers(-3, 4, blocks)
    m = np.kron(np.diag(scales), np.array([[1, 1], [1, -1], [1, 0]])).astype(complex)
    return (m.T if wide else m), np.sqrt(3) * scales.max()


sparse_matrices = st.one_of(planted_matrices(), st.builds(
    lambda seed, rows, cols: signed_zero_matrix(np.random.default_rng(seed), rows, cols),
    st.integers(0, 2 ** 32 - 1), st.integers(0, 12), st.integers(0, 12)))


def hermitian_with_values(rng, values, top=None):
    """q diag(values) q* for a random unitary q, whose first column is
    replaced by the unit vector top, when given, before orthonormalising:
    the eigenvector of values[0]."""
    d = len(values)
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    if top is not None:
        a[:, 0] = top
    q = np.linalg.qr(a)[0]
    return (q * np.asarray(values)) @ q.conj().T


class TestSparseNorm:
    """sparse_norm, the Lanczos iteration on the short side's W* W, against
    the values-only SVD of the dense matrix and the dense ``eigvalsh`` of
    the Gram matrix (``conftest.gram_norm``).  All three are backward
    stable, so they agree to a small multiple of eps: rel=1e-13 is about
    450 eps."""

    @settings(max_examples=150, deadline=None)
    @given(m=sparse_matrices)
    @example(m=np.zeros((0, 0), dtype=complex))
    @example(m=np.zeros((3, 5), dtype=complex))
    # the Gram matrix squares (v, 2v): to 0 at v = 1e-200, to inf at 1e200
    @example(m=np.diag([1e-200, 2e-200]).astype(complex))
    @example(m=np.diag([1e200, 2e200]).astype(complex))
    def test_matches_the_dense_svd(self, m):
        # tall, wide, rank-deficient, zero rows and columns, signed zeros
        t = nonzero_triplets(m)
        value = sparse_norm(t)
        assert type(value) is float
        assert value == pytest.approx(ref_norm(m), rel=1e-13, abs=0.0)
        assert value == pytest.approx(gram_norm(t), rel=1e-13, abs=0.0)

    @settings(max_examples=150, deadline=None)
    @given(m=sparse_matrices)
    @example(m=np.diag([1e-200, 2e-200]).astype(complex))
    @example(m=np.diag([1e200, 2e200]).astype(complex))
    def test_never_above_the_oracle(self, m):
        # a Ritz value never exceeds lambda_max, so the norm is a lower
        # bound up to rounding
        t = nonzero_triplets(m)
        assert sparse_norm(t) <= gram_norm(t) * (1 + 8 * np.finfo(float).eps)

    def test_repeated_calls_are_bit_identical(self):
        rng = np.random.default_rng(12)
        m = rng.standard_normal((40, 30)) + 1j * rng.standard_normal((40, 30))
        m[rng.random(m.shape) < 0.7] = 0
        t = nonzero_triplets(m)
        first = sparse_norm(t)
        copy = Triplets(*(x.copy() for x in t))
        assert all(sparse_norm(x) == first for x in (t, t, copy, t))

    def test_empty_list_is_exactly_zero(self):
        empty = np.zeros(0, dtype=np.intp)
        value = sparse_norm(Triplets(empty, empty, np.zeros(0, dtype=complex)))
        assert value == 0.0 and type(value) is float

    def test_all_zero_list_is_exactly_zero(self):
        at = np.arange(3)
        value = sparse_norm(Triplets(at, at, np.array([0.0, -0.0, complex(-0.0, -0.0)])))
        assert value == 0.0 and type(value) is float

    @pytest.mark.parametrize("d", [5, 40, 300])
    def test_lone_top_block_at_the_last_index(self, d):
        # block diagonal: 2 x 2 blocks of norm 0.99, then a lone 1 x 1 block
        # of norm 1 at the last index, which only the start vector's last
        # entry reaches
        m = np.kron(np.eye(d // 2), 0.9 * np.array([[1, 0.1], [0.1, 1]]))
        m = np.pad(m, ((0, 1), (0, 1))).astype(complex)
        m[-1, -1] = 1.0
        t = nonzero_triplets(m)
        assert sparse_norm(t) == pytest.approx(gram_norm(t), rel=1e-13, abs=0.0)
        assert sparse_norm(t) == pytest.approx(1.0, rel=1e-13)

    @pytest.mark.parametrize("d", [6, 40, 300])
    def test_alternating_top_singular_vector(self, d):
        # the top eigenvector (1, -1, 1, ...) is orthogonal to all ones, and
        # the Krylov space of all ones would hold only the eigenvalues 0.9
        # and 0.5 below it
        alternating = (-1.0) ** np.arange(d) / np.sqrt(d)
        values = np.where(np.arange(d) < d // 2, 0.9, 0.5)
        values[0] = 1.0
        m = hermitian_with_values(np.random.default_rng(d), values, alternating)
        assert np.vdot(np.ones(d), m @ alternating) == pytest.approx(0.0, abs=1e-12)
        t = nonzero_triplets(m)
        assert sparse_norm(t) == pytest.approx(gram_norm(t), rel=1e-13, abs=0.0)
        assert sparse_norm(t) == pytest.approx(1.0, rel=1e-13)

    @pytest.mark.parametrize("d", [5, 40, 300])
    def test_top_values_clustered_within_1e_9(self, d):
        values = np.linspace(0.2, 0.9, d)
        values[:3] = [1.0, 1.0 - 4e-10, 1.0 - 1e-9]
        m = hermitian_with_values(np.random.default_rng(d + 1), values)
        t = nonzero_triplets(m)
        assert sparse_norm(t) == pytest.approx(gram_norm(t), rel=1e-13, abs=0.0)
        assert sparse_norm(t) == pytest.approx(ref_norm(m), rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("wide", [False, True])
    @pytest.mark.parametrize("route", ["sparse", "dense"])
    def test_the_gram_is_taken_on_the_short_side(self, route, wide, monkeypatch):
        # a dense core forms more Gram terms than it has entries: no Gram
        # matrix, an infinite Penrose bound, and the SVD decides
        rng = np.random.default_rng(8)
        m = (cancelling_blocks(rng, 4, False)[0] if route == "sparse"
             else planted(rng, 12, 8, np.arange(12), np.arange(8), 3, False))
        m = m.conj().T if wide else m
        t = nonzero_triplets(m)
        if route == "sparse":
            assert support_core(penrose_gram(t, monkeypatch)[0]).shape == (8, 8)
        else:
            assert penrose_gram(t, monkeypatch) is None
            assert _penrose_defect(t) == np.inf
            for tol in PENROSE_TOLS:
                assert _binary_singular_values(t, tol) == ref_binary(m, tol)
        assert sparse_norm(t) == pytest.approx(ref_norm(m), rel=1e-13)

    @pytest.mark.parametrize("wide", [False, True])
    def test_gram_entries_that_cancel(self, wide, monkeypatch):
        m, norm = cancelling_blocks(np.random.default_rng(9), 5, wide)
        t = nonzero_triplets(m)
        gram, _, joined = penrose_gram(t, monkeypatch)
        assert isinstance(gram, Triplets), "banded blocks take the sparse product"
        off_diagonal = gram.vals[gram.rows != gram.cols]
        assert off_diagonal.size and np.all(off_diagonal == 0)
        assert not joined.any()
        assert sparse_norm(t) == pytest.approx(norm, rel=1e-13)
        assert sparse_norm(t) == pytest.approx(ref_norm(m), rel=1e-13)

    @pytest.mark.parametrize("case", ["banded", "dense"])
    def test_both_gram_routes_match_the_dense_svd(self, case, monkeypatch):
        # a banded list takes the sparse product; a dense matrix has more
        # product terms than entries, so no Gram matrix is formed, the
        # Penrose bound is inf and the SVD decides.  linalg._gram forms the
        # Penrose certificate's Gram matrix; sparse_norm forms none, and the
        # oracle gram_norm forms its own, densely
        routes, original = [], linalg.sparse_product

        def spied(a, b, limit):
            product = original(a, b, limit)
            routes.append(product is not None)
            return product

        monkeypatch.setattr(linalg, "sparse_product", spied)
        rng = np.random.default_rng(4)
        if case == "banded":
            m = cancelling_blocks(rng, 6, False)[0]
        else:
            m = rng.standard_normal((7, 5)) + 1j * rng.standard_normal((7, 5))
        t = nonzero_triplets(m)
        assert gram_norm(t) == pytest.approx(ref_norm(m), rel=1e-13)
        assert routes == []
        if case == "banded":
            assert _penrose_defect(t) == pytest.approx(ref_penrose_norm(m), rel=1e-10, abs=1e-12)
        else:
            assert _penrose_defect(t) == np.inf
            for tol in PENROSE_TOLS:
                assert _binary_singular_values(t, tol) == ref_binary(m, tol)
        assert routes == [case == "banded"]


class Factored(NamedTuple):
    """One matrix that reached numpy's SVD or QR, or the closed form of a
    one-column stack, ``linalg._column_norms``; a stacked call is recorded
    block by block, each as its own ``shape[-2:]`` matrix."""

    site: str  # the innermost public function on the call stack
    routine: str  # "svd", "qr" or "norm"
    a: np.ndarray
    stacked: bool  # one block of a stacked (3-d) call
    depth: int  # the number of blocks its call factors, 1 for a 2-d call
    operand: np.ndarray | None  # the argument m of ``site``, when it has one


@pytest.fixture
def factor_calls(monkeypatch):
    """Every matrix factored by numpy's SVD or QR, or in closed form, in
    the test, in order."""
    try:
        from numpy.linalg import _linalg
    except ImportError:  # numpy < 2
        from numpy.linalg import linalg as _linalg
    calls = []

    def recording(routine, original):
        def factor(a, *args, **kwargs):
            frame = sys._getframe(1)
            # private helpers and comprehensions: up to their public caller
            while frame.f_code.co_name[0] in "_<" and frame.f_back is not None:
                frame = frame.f_back
            arr = np.asarray(a)
            blocks = arr.reshape(-1, *arr.shape[-2:])
            calls.extend(Factored(frame.f_code.co_name, routine, block, arr.ndim > 2,
                                  blocks.shape[0], frame.f_locals.get("m"))
                         for block in blocks)
            return original(a, *args, **kwargs)
        return factor

    for routine in ("svd", "qr"):
        factor = recording(routine, getattr(np.linalg, routine))
        monkeypatch.setattr(np.linalg, routine, factor)
        monkeypatch.setattr(_linalg, routine, factor)
    monkeypatch.setattr(linalg, "_column_norms", recording("norm", linalg._column_norms))
    return calls


def duplicated_column_core():
    """4 x 3 core [1, 1, ramp] whose Householder triangle has an exactly-zero
    middle row: the second column is the first, so nothing is left of it
    once the first reflector has acted."""
    ones = np.ones(4)
    return np.column_stack([ones, ones, np.arange(1.0, 5.0)]).astype(complex)


class TestTriangleFirst:
    """Tall cores reach nullspace, and wide cores column_space (as their
    tall transpose), through the triangle of a QR factorisation; both must
    agree with the dense factorization of the core itself."""

    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), short=st.integers(1, 10),
           extra=st.integers(1, 12), rank=st.integers(0, 10), binary=st.booleans(),
           wide=st.booleans())
    def test_planted_full_support_cores(self, seed, short, extra, rank, binary, wide):
        rng = np.random.default_rng(seed)
        rows, cols = (short, short + extra) if wide else (short + extra, short)
        m = planted(rng, rows, cols, np.arange(rows), np.arange(cols), rank, binary)
        assert_same_span(kernel_of(m), ref_nullspace(m))
        assert_same_span(span_of(m), ref_column_space(m))

    @pytest.mark.parametrize("wide", [False, True])
    def test_triangle_with_an_exactly_zero_row(self, wide, factor_calls):
        # the core is real, so the tall one of m and its transpose is the
        # core itself; its triangle reaches the SVD as it is, and the zero
        # singular value of its zero row is a kernel direction like any other
        core = duplicated_column_core()
        triangle = np.linalg.qr(core, mode="r")
        assert not triangle[1].any() and triangle[2].any()
        m = core.conj().T if wide else core
        factor_calls.clear()
        kernel, span = kernel_of(m), span_of(m)
        assert kernel.shape[1] == (2 if wide else 1) and span.shape[1] == 2
        tall, short = ("column_space", "nullspace") if wide else ("nullspace", "column_space")
        assert sorted((c.site, c.routine, c.a.shape) for c in factor_calls) == \
            sorted([(tall, "qr", (4, 3)), (tall, "svd", (3, 3)), (short, "svd", (3, 4))])
        np.testing.assert_array_equal(
            [c.a for c in factor_calls if c.routine == "svd" and c.site == tall], [triangle])
        assert_same_span(kernel, ref_nullspace(m))
        assert_same_span(span, ref_column_space(m))


class TestEverySvdIsStripped:
    """While the CLI runs, no matrix reaching numpy's SVD or the closed form
    has a zero row or column: the pipeline's matrices all go through the
    stripping helpers."""

    def test_no_factorised_matrix_has_a_zero_row_or_column(self, factor_calls):
        zero = (zero_symbol(2, 1), zero_symbol(2, 2))
        replicated = cli.Scenario(
            "replicated-1-2", InvariantSubspaceSpec(TYPE_I, 1, 2, u=cli.replicated_u(1, 2)),
            ("partial_isometry", "intertwining", "nehari"), (8, 16),
            expect={"partial_isometry": True}, nehari_candidates=(zero,))
        scenarios = cli.DEMOS["timotin-nonsplitting"]() + [replicated]
        assert cli.run_batch(scenarios).exit_status == 0
        assert len([c for c in factor_calls if c.routine in ("svd", "norm")]) > 20
        bad = [(c.routine, c.a.shape) for c in factor_calls
               if not ((c.a != 0).any(axis=1).all() and (c.a != 0).any(axis=0).all())]
        assert not bad, f"factorised with a zero row or column: {bad}"


class TestNoOperatorSizedSvd:
    """The operator checks of replicated_u(1, 2) factor nothing larger than
    the symbol's 3 x 3 fiber: the Penrose certificate passes
    partial_isometry, intertwining leaves no residual, and nehari takes its
    lower bound by a Lanczos iteration on the window's entries.  What
    reaches the SVD is only nehari_bounds' samples of the symbol on the
    circle, as one stack of 3 x 3 values."""

    def test_operator_checks_factor_only_circle_samples(self, factor_calls):
        zero = (zero_symbol(2, 1), zero_symbol(2, 2))
        replicated = cli.Scenario(
            "replicated-1-2", InvariantSubspaceSpec(TYPE_I, 1, 2, u=cli.replicated_u(1, 2)),
            ("partial_isometry", "intertwining", "nehari"), (64, 128, 256),
            expect={"partial_isometry": True}, nehari_candidates=(zero,))
        assert cli.run_batch([replicated]).exit_status == 0
        assert factor_calls, "the circle samples are factored"
        shapes = {c.a.shape for c in factor_calls}
        assert all(rows <= 3 and cols <= 3 for rows, cols in shapes), \
            f"operator-sized SVDs: {sorted(shapes)}"


class TestEverySvdIsOneSided:
    """While the CLI runs, nullspace factors m and column_space its
    transpose, each a tall block through its triangle, so no SVD operand is
    tall, no SVD has a long side whose vectors are discarded, and QR is only
    given tall matrices."""

    def test_no_svd_forms_the_long_side(self, factor_calls):
        replicated = cli.Scenario(
            "replicated-1-2", InvariantSubspaceSpec(TYPE_I, 1, 2, u=cli.replicated_u(1, 2)),
            ("invariance", "kernel_rep", "range_rep"), (8, 16))
        scenarios = [sc for build in cli.DEMOS.values() for sc in build()] + [replicated]
        assert cli.run_batch(scenarios).exit_status == 0
        svds = [c for c in factor_calls if c.routine == "svd"]
        kernel = [c.a.shape for c in svds if c.site == "nullspace"]
        span = [c.a.shape for c in svds if c.site == "column_space"]
        assert len(kernel) > 20 and len(span) > 5
        assert not [s for s in kernel + span if s[0] > s[1]], "an SVD operand is tall"
        triangles = [c.a.shape for c in factor_calls
                     if c.routine == "qr" and c.site in ("nullspace", "column_space")]
        assert triangles and not [s for s in triangles if s[0] <= s[1]], \
            "QR given a matrix that is not tall"


BLOCK_SHAPES = [(1, 1), (2, 1), (1, 2), (2, 2), (3, 1), (1, 3), (4, 2), (2, 4), (3, 3)]


@st.composite
def permuted_block_cores(draw):
    """(m, blocks): m is block diagonal after a permutation of its rows and
    of its columns, with zero rows and columns besides, and ``blocks``
    counts its nonzero blocks.  There is a tall, a wide and a repeated
    shape among the blocks, each with a planted rank and nonzero singular
    values in [0.5, 2]; those of one faint block are scaled by 1e-12, so
    they clear its own cutoff by far but fall 25x below the whole core's."""
    shapes = [(4, 2), (2, 4)] + draw(st.lists(st.sampled_from(BLOCK_SHAPES), min_size=1,
                                              max_size=4))
    shapes.append(shapes[-1])
    ranks = [draw(st.integers(0, min(shape))) for shape in shapes]
    faint = draw(st.integers(0, len(shapes) - 1))
    for k in (0, 1, faint):
        ranks[k] = max(ranks[k], 1)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    rows, cols = (sum(shape[i] for shape in shapes) + draw(st.integers(0, 2)) for i in (0, 1))
    m = np.zeros((rows, cols), dtype=complex)
    r = c = 0
    for k, ((p, q), rank) in enumerate(zip(shapes, ranks)):
        block = planted(rng, p, q, np.arange(p), np.arange(q), rank, False)
        m[r:r + p, c:c + q] = block * (1e-12 if k == faint else 1.0)
        r, c = r + p, c + q
    blocks = sum(rank > 0 for rank in ranks)
    return m[rng.permutation(rows)][:, rng.permutation(cols)], blocks


def operand_matrix(m):
    """The dense matrix of an operand, a dense array or the entry list of a
    matrix no larger than its largest row and column index."""
    if isinstance(m, np.ndarray):
        return m
    shape = (int(m.rows.max(initial=-1)) + 1, int(m.cols.max(initial=-1)) + 1)
    return linalg.dense_matrix(m, shape)


def component_shapes(m):
    """(rows, cols) of each connected block of m's nonzero pattern, by
    union-find over its nonzero entries."""
    parent = {}

    def root(node):
        while parent.setdefault(node, node) != node:
            node = parent[node]
        return node

    for i, j in zip(*np.nonzero(operand_matrix(m))):
        parent[root(("row", i))] = root(("col", j))
    shapes = {}
    for node in parent:
        p, q = shapes.get(root(node), (0, 0))
        shapes[root(node)] = (p + 1, q) if node[0] == "row" else (p, q + 1)
    return list(shapes.values())


def rotated_timotin():
    """The timotin column symbol with its two columns mixed by a fixed
    unitary, as the benchmark's rotations mix them: every entry of every
    coefficient is nonzero, so no core of its checks falls into blocks."""
    w = haar_unitary(np.random.default_rng(11), 2)
    u = cli.timotin_u()
    return make_symbol(2, 2, {u.kmin + i: c @ w for i, c in enumerate(u.coeffs)})


class TestConnectedBlocks:
    """A core whose nonzero pattern falls into several connected blocks is
    factored block by block, one stacked call per shape, with one rank
    cutoff for the whole core; a core of one block is a stack of one, whose
    QR triangle the SVDs may take in blocks."""

    @settings(max_examples=150, deadline=None)
    @given(drawn=permuted_block_cores())
    def test_permuted_block_diagonal_cores(self, drawn):
        m, blocks = drawn
        found = linalg._blocks(nonzero_triplets(m))
        assert sum(cols.shape[0] for cols, _ in found) == blocks
        sv, ref_sv = singular_values(nonzero_triplets(m)), ref_singular_values(m)
        assert sv.size <= ref_sv.size and np.all(np.diff(sv) <= 0)
        np.testing.assert_allclose(sv, ref_sv[:sv.size], rtol=0, atol=1e-13)
        assert np.all(ref_sv[sv.size:] <= 1e-13)
        assert_same_span(kernel_of(m), ref_nullspace(m))
        assert_same_span(span_of(m), ref_column_space(m))

    def test_one_cutoff_for_all_blocks(self):
        m = np.zeros((3, 3), dtype=complex)
        m[0, 0], m[1, 1:] = 1.0, [1e-12, -1e-12]
        assert kernel_of(m).shape == (3, 2) and span_of(m).shape == (3, 1)
        np.testing.assert_allclose(singular_values(nonzero_triplets(m)),
                                   [1.0, np.sqrt(2) * 1e-12], rtol=1e-15)

    @pytest.mark.parametrize("wide", [False, True])
    def test_stacked_triangles_go_straight_to_the_svd(self, wide, factor_calls):
        # two blocks whose triangle has an exactly-zero row and one whose has
        # none, of m or of its transpose: one stacked QR, then one stacked
        # SVD of the three triangles as they are
        rng = np.random.default_rng(12)
        dense = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
        core = np.zeros((12, 9), dtype=complex)
        for k, block in enumerate([duplicated_column_core(), dense, 2 * duplicated_column_core()]):
            core[4 * k:4 * k + 4, 3 * k:3 * k + 3] = block
        m = core.conj().T if wide else core
        if wide:
            assert_same_span(span_of(m), ref_column_space(m))
        else:
            assert_same_span(kernel_of(m), ref_nullspace(m))
        calls = [c for c in factor_calls if c.site in ("nullspace", "column_space")]
        qr = [c for c in calls if c.routine == "qr"]
        svd = [c for c in calls if c.routine == "svd"]
        assert [c.a.shape for c in qr] == [(4, 3)] * 3 and all(c.stacked for c in qr)
        assert [c.a.shape for c in svd] == [(3, 3)] * 3 and all(c.depth == 3 for c in svd)
        assert [bool((c.a != 0).any(axis=1).all()) for c in svd] == [False, True, False]

    def test_split_cores_factor_nothing_larger_than_a_block(self, factor_calls):
        # the scalar demo's truncated mixed operators are diagonal
        assert cli.demo("splitting-scalar").exit_status == 0
        sites = ("nullspace", "column_space", "singular_values")
        calls = [c for c in factor_calls if c.site in sites]
        assert any(c.stacked for c in calls)
        largest = {}
        for c in calls:
            key = id(c.operand)
            if key not in largest:
                largest[key] = max(p * q for p, q in component_shapes(c.operand))
            assert c.a.size <= largest[key], (c.site, c.a.shape)

    @settings(max_examples=150, deadline=None)
    @given(m=st.one_of(permuted_block_cores().map(lambda drawn: drawn[0]), planted_matrices()),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_layout_and_column_order_move_no_bit(self, m, seed):
        # the entry list of m in row-major order, shuffled, and with m's
        # zero entries listed as well must find its blocks in the same
        # order, so every basis column comes out in the same place, bit for
        # bit
        t = nonzero_triplets(m)
        order = np.random.default_rng(seed).permutation(t.rows.size)
        layouts = [Triplets(*(x[order] for x in t)), every_entry(m)]
        for helper in (lambda t: nullspace(t, m.shape[1]), column_space):
            expected = dense_of_list(helper(t), m.shape[0] + m.shape[1])
            for other in layouts:
                np.testing.assert_array_equal(
                    dense_of_list(helper(other), m.shape[0] + m.shape[1]), expected)
        for other in layouts:
            np.testing.assert_array_equal(singular_values(other), singular_values(t))

    @pytest.mark.parametrize("name", ["timotin-nonsplitting", "timotin-rotated"])
    def test_one_component_cores_are_a_stack_of_one(self, name, factor_calls):
        # a core of one block is a stack of one, of the core (kernel) or of
        # its transpose (column space): the closed form of one column, the
        # QR of a tall one, whose triangle the SVD then takes as it is and
        # which holds the core's Frobenius norm, else its SVD.  A core whose
        # columns (rows) fall into mutually orthogonal groups is factored
        # group by group instead: the groups' columns (rows) partition the
        # core's, and their squared Frobenius norms sum to the core's
        if name == "timotin-rotated":
            spec = InvariantSubspaceSpec(TYPE_I, 1, 1, u=rotated_timotin())
            checks = ("twocond", "invariance", "kernel_rep", "range_rep", "splitting",
                      "partial_isometry", "intertwining")
            scenarios = [cli.Scenario(name, spec, checks, (8, 16),
                                      expect={"splitting": False, "partial_isometry": True})]
        else:
            scenarios = cli.DEMOS[name]()
        assert cli.run_batch(scenarios).exit_status == 0
        sites = ("nullspace", "column_space", "singular_values")
        calls = [c for c in factor_calls if c.site in sites]
        assert all(c.stacked for c in calls), [(c.site, c.a.shape) for c in calls
                                               if not c.stacked]
        by_operand = {}
        for c in calls:
            by_operand.setdefault(id(c.operand), []).append(c)
        single = split = grouped = 0
        for group in by_operand.values():
            first = group[0]
            if len(component_shapes(first.operand)) > 1:
                continue
            single += len(group)
            operand = operand_matrix(first.operand)
            core = operand[np.ix_(*ref_support(operand))]
            side = 1 if first.site == "nullspace" else 0
            factored = first.operand if side else transposed(first.operand)
            groups = (None if first.site == "singular_values"
                      else linalg._orthogonal_groups(factored))
            if groups is None:
                # the column space factors the transpose, and the closed
                # form of singular_values the side with one column
                flipped = (first.site == "column_space"
                           or first.routine == "norm" and core.shape[1] != 1)
                assert first.stacked and first.depth == 1, (first.site, first.a.shape)
                assert first.a.shape == (core.T if flipped else core).shape, first.site
                if first.routine in ("svd", "norm"):
                    assert len(group) == 1, (first.site, first.a.shape)
                    continue
            else:
                found = linalg._blocks(linalg._regrouped(groups))
                ids = np.concatenate([cols.ravel() for cols, _ in found])
                np.testing.assert_array_equal(np.sort(ids), ref_support(operand)[side])
                norm = sum(np.linalg.norm(stack) ** 2 for _, stack in found)
                assert norm == pytest.approx(np.linalg.norm(core) ** 2, rel=1e-12)
                grouped += 1
            # a closed-form operand stands for one column (row) of the core
            svds = [c for c in group if c.routine in ("svd", "norm")]
            assert all(len(component_shapes(c.a)) == 1 for c in svds)
            assert sum(1 if c.routine == "norm" else c.a.shape[side] for c in svds) \
                <= core.shape[side]
            norm = sum(np.linalg.norm(c.a) ** 2 for c in svds)
            assert norm == pytest.approx(np.linalg.norm(core) ** 2, rel=1e-12)
            split += len(svds) > 1
        # rank_profile factors its circle samples as one stack per chunk,
        # outside these sites
        assert single >= {"timotin-nonsplitting": 6, "timotin-rotated": 23}[name]
        if name == "timotin-rotated":
            assert single == len(calls) and split and grouped


class TestTriangleBlocks:
    """The blocks the package factors cut isometries: their columns (rows)
    fall into mutually orthogonal groups but for a few, so the QRs, the SVDs
    and the closed forms take the groups, whatever n."""

    def test_seed0_timotin_factors_no_operand_above_four_entries(self, factor_calls):
        # at n = 1,024 a whole block is 2,048 x 1,025; no QR, SVD or
        # closed-form operand grows with n
        sc = cli.parse_scenario(str(conftest.CORPUS / "sweep-dense-seed0" / "timotin-rot.json"))
        assert cli.run_batch([dataclasses.replace(sc, n_list=(1024,))]).exit_status == 0
        largest = max((c.a.size, c.routine, c.site, c.a.shape) for c in factor_calls)
        assert largest[0] <= 4, largest


@st.composite
def unit_heavy_bases(draw):
    """d x k orthonormal basis: `units` coordinate vectors at distinct rows,
    the other columns orthonormal on the remaining rows, columns shuffled."""
    d = draw(st.integers(1, 24))
    k = draw(st.integers(1, d))
    kind = draw(st.sampled_from(["none", "only", "mixed"]))
    units = {"none": 0, "only": k, "mixed": draw(st.integers(0, k))}[kind]
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    rows = rng.permutation(d)
    b = np.zeros((d, k), dtype=complex)
    b[rows[:units], np.arange(units)] = 1.0
    b[rows[units:], units:] = orthonormal(rng, d - units, k - units)
    return b[:, rng.permutation(k)], rng


class TestUnitColumnProducts:
    @settings(max_examples=120, deadline=None)
    @given(drawn=unit_heavy_bases(), left=st.integers(0, 8))
    def test_times_and_project_match_dense_products(self, drawn, left):
        # a unit column is one entry of value 1
        b, rng = drawn
        d, k = b.shape
        a = rng.standard_normal((left, d)) + 1j * rng.standard_normal((left, d))
        x = rng.standard_normal((d, k)) + 1j * rng.standard_normal((d, k))
        product = linalg.dense_matrix(times(nonzero_triplets(a), nonzero_triplets(b)), (left, k))
        assert np.max(np.abs(product - a @ b), initial=0.0) <= 1e-13
        projected = linalg.dense_matrix(project(nonzero_triplets(b), nonzero_triplets(x)), (d, k))
        assert np.max(np.abs(projected - b @ (b.conj().T @ x)), initial=0.0) <= 1e-13

    @settings(max_examples=120, deadline=None)
    @given(first=unit_heavy_bases(), second=unit_heavy_bases(), log_eps=st.floats(-16, 0))
    def test_principal_angle_distance_is_symmetric(self, first, second, log_eps):
        b1, rng = first
        b2 = second[0]
        if b2.shape != b1.shape:  # a rotated copy of b1 instead
            noise = rng.standard_normal(b1.shape) + 1j * rng.standard_normal(b1.shape)
            b2 = np.linalg.qr(b1 + 10.0 ** log_eps * noise)[0]
        t1, t2 = nonzero_triplets(b1), nonzero_triplets(b2)
        assert abs(principal_angle_distance(t1, t2) - principal_angle_distance(t2, t1)) <= 1e-14


@st.composite
def entry_lists(draw):
    """(t, m): a matrix m with planted connected blocks, each a dense block
    of planted rank on its own rows and columns, and unit columns, one entry
    1 each; and t, the list of m's entries with explicit zeros, -0.0 and
    complex(-0.0, -0.0) listed at some positions m leaves empty, shuffled."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    rows, cols = draw(st.integers(0, 14)), draw(st.integers(0, 14))
    m = np.zeros((rows, cols), dtype=complex)
    free_rows, free_cols = list(rng.permutation(rows)), list(rng.permutation(cols))
    for p, q in draw(st.lists(st.tuples(st.integers(1, 4), st.integers(1, 4)), max_size=4)):
        if p > len(free_rows) or q > len(free_cols):
            break
        at_rows, at_cols = [free_rows.pop() for _ in range(p)], [free_cols.pop() for _ in range(q)]
        m[np.ix_(at_rows, at_cols)] = planted(rng, p, q, np.arange(p), np.arange(q),
                                              draw(st.integers(1, 4)), draw(st.booleans()))
    for _ in range(min(draw(st.integers(0, 4)), len(free_cols))):
        if rows:  # a unit column, on a row of a block or a free one
            m[rng.integers(rows), free_cols.pop()] = 1.0
    t = nonzero_triplets(m)
    empty = np.flatnonzero(m.ravel() == 0)
    zeros = rng.choice(empty, size=min(empty.size, draw(st.integers(0, 6))), replace=False)
    signed = np.array([0.0, -0.0, complex(-0.0, -0.0)])[rng.integers(0, 3, zeros.size)]
    t = Triplets(*(np.concatenate([x, y]) for x, y in zip(t, (*np.divmod(zeros, max(cols, 1)),
                                                               signed))))
    order = rng.permutation(t.rows.size)
    return Triplets(*(x[order] for x in t)), m


HADAMARD = 0.5 * np.array([[1, 1, 1, 1], [1, -1, 1, -1], [1, 1, -1, -1], [1, -1, -1, 1]])


def dyadic_basis(rng, d):
    """An orthonormal basis on d rows whose entries are exact in binary, as
    is every product and sum the helpers form of them: unit columns, and
    columns of Hadamard blocks / 2 on four rows each, shuffled."""
    rows, columns, at = rng.permutation(d), [np.zeros((d, 0))], 0
    while at < d:
        if d - at >= 4 and rng.random() < 0.5:
            block = np.zeros((d, 4))
            block[rows[at:at + 4]] = HADAMARD
            columns.append(block[:, rng.random(4) < 0.6])
            at += 4
        else:
            if rng.random() < 0.7:
                columns.append(np.eye(d)[:, [rows[at]]])
            at += 1
    b = np.hstack(columns).astype(complex)
    return b[:, rng.permutation(b.shape[1])]


def structural_zeros(a, b):
    """The entries of a @ b that no pair of nonzero entries reaches."""
    return ((a != 0).astype(int) @ (b != 0).astype(int)) == 0


def assert_matches_oracles(t, m):
    """nullspace and column_space of the entry list t of the dense m against
    the dense oracles: equal rank, orthonormal output, span distance at most
    1e-12, and an exact 0 on every row where the oracle's basis is 0."""
    for got, oracle in ((nullspace(t, m.shape[1]), conftest.dense_nullspace(m)),
                        (column_space(t), conftest.dense_column_space(m))):
        assert extent(got, 1) == oracle.shape[1]
        basis = dense_of_list(got, oracle.shape[0])
        assert_orthonormal(basis)
        assert dense_principal_angle_distance(basis, oracle) <= 1e-12
        zero_rows = ~oracle.any(axis=1)
        assert not basis[zero_rows].any()


def unit_column_beside_a_rank_one_block(seed):
    """(t, m): a 4 x 3 block, a unit column on its first row beside a 4 x 2
    block of rank 1.  The unit column adds to the rank, so in exact
    arithmetic every kernel vector is 0 on it, and the oracle gives 0 there;
    a factorisation that leaves rounding of order eps there fails."""
    m = np.zeros((4, 3), dtype=complex)
    m[:, 1:] = planted(np.random.default_rng(seed), 4, 2, np.arange(4), np.arange(2), 1, False)
    m[0, 0] = 1.0
    return nonzero_triplets(m), m


def ginibre(rng, rows, cols):
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


def block_diagonal(blocks):
    """The block-diagonal matrix of the dense blocks, in their order."""
    m = np.zeros(tuple(sum(b.shape[i] for b in blocks) for i in (0, 1)), dtype=complex)
    r = c = 0
    for b in blocks:
        m[r:r + b.shape[0], c:c + b.shape[1]] = b
        r, c = r + b.shape[0], c + b.shape[1]
    return m


def one_column_matrix(seed, count, length, wide, scale, faint):
    """A matrix of ``count`` blocks of one column (one row when ``wide``) of
    ``length`` entries each, on shuffled rows and columns beside a zero row
    and a zero column, its entries of magnitude about ``scale``; when
    ``faint``, the first block is 1e-13 times as large, so its value falls
    far below the cutoff.  Returns the matrix and its blocks."""
    rng = np.random.default_rng(seed)
    blocks = [ginibre(rng, 1, length) if wide else ginibre(rng, length, 1) for _ in range(count)]
    blocks = [b * scale * (1e-13 if faint and k == 0 else 1.0) for k, b in enumerate(blocks)]
    m = block_diagonal(blocks + [np.zeros((1, 1))])
    return m[rng.permutation(m.shape[0])][:, rng.permutation(m.shape[1])], blocks


@st.composite
def one_column_matrices(draw):
    return one_column_matrix(draw(st.integers(0, 2 ** 32 - 1)), draw(st.integers(1, 6)),
                             draw(st.integers(1, 8)), draw(st.booleans()),
                             10.0 ** draw(st.integers(-200, 200)), draw(st.booleans()))


def lone_entries(values, wide):
    """One block per list of values, a column of them (a row when ``wide``),
    block diagonal; returns the matrix and its blocks."""
    blocks = [np.array([v], dtype=complex) for v in values]
    blocks = blocks if wide else [b.T for b in blocks]
    return block_diagonal(blocks), blocks


class TestOneColumnClosedForm:
    """A block of one column, or of one row where the column space or
    ``singular_values`` reads it, is factored in closed form: its value is
    the column's 2-norm and its vector the unit 1, which no QR and no SVD
    computes."""

    @settings(max_examples=150, deadline=None)
    @given(drawn=one_column_matrices())
    @example(drawn=one_column_matrix(3, 4, 5, False, 1e-200, True))
    @example(drawn=one_column_matrix(4, 4, 5, True, 1e200, True))
    @example(drawn=one_column_matrix(5, 3, 3, False, 1e200, False))
    # a subnormal entry beside a normal one, and blocks of subnormals alone
    @example(drawn=lone_entries([[1.0, 5e-324], [5e-324], [3e-320 + 4e-320j, 1e-310]], False))
    @example(drawn=lone_entries([[1.0, 5e-324], [5e-324], [3e-320 + 4e-320j, 1e-310]], True))
    # a column with a single entry != 0
    @example(drawn=lone_entries([[0.0, 0.0, 2 - 3j, 0.0], [1.0, 1.0]], False))
    def test_values_and_spans_match_the_oracles(self, drawn):
        m, blocks = drawn
        ref = np.sort(np.concatenate([np.linalg.svd(b, compute_uv=False) for b in blocks]))[::-1]
        np.testing.assert_allclose(singular_values(nonzero_triplets(m)), ref[ref > 0],
                                   rtol=1e-14, atol=0)
        assert_matches_oracles(nonzero_triplets(m), m)

    def test_no_qr_or_svd_takes_one_column(self, factor_calls):
        # the seed-0 sweep-dense scenarios, n = 32..256, split their cores
        # into thousands of one-column blocks and groups: each goes to the
        # closed form, none to LAPACK
        scenarios = [cli.parse_scenario(str(conftest.CORPUS / "sweep-dense-seed0" / name))
                     for name in ("scalar-splitting-rot.json", "timotin-rot.json")]
        assert all(sc.n_list[-1] == 256 for sc in scenarios)
        assert cli.run_batch(scenarios).exit_status == 0
        one_column = {(c.routine, c.site, c.a.shape) for c in factor_calls
                      if c.routine != "norm" and c.a.shape[1] == 1}
        assert not one_column, one_column
        assert sum(c.routine == "norm" for c in factor_calls) > 1000


class TestTripletHelpersMatchDenseOracles:
    """The entry-list helpers of ``linalg`` against the dense oracles of
    ``tests/conftest.py``, which factor and multiply the whole arrays: equal
    rank, orthonormal output, span distance at most 1e-12, and an exact 0
    wherever the oracle gives one, that is on the rows and entries no
    nonzero term reaches and, on dyadic inputs, where every sum is exact, at
    every exact 0 of the oracle."""

    @settings(max_examples=150, deadline=None)
    @given(drawn=entry_lists())
    @example(drawn=unit_column_beside_a_rank_one_block(19))
    @example(drawn=unit_column_beside_a_rank_one_block(0))
    def test_nullspace_and_column_space(self, drawn):
        t, m = drawn
        assert_matches_oracles(t, m)

    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(seed=st.integers(0, 2 ** 32 - 1), short=st.integers(1, 8), extra=st.integers(1, 8),
           wide=st.booleans())
    def test_ginibre_triangles_are_not_split(self, seed, short, extra, wide, factor_calls):
        # no entry of a Ginibre block's triangle is negligible, so each SVD
        # keeps the block's short side whole
        factor_calls.clear()
        rng = np.random.default_rng(seed)
        p, q = (short, short + extra) if wide else (short + extra, short)
        m = np.zeros((p + 2, q + 2), dtype=complex)
        m[np.ix_(rng.permutation(p + 2)[:p], rng.permutation(q + 2)[:q])] = ginibre(rng, p, q)
        assert_matches_oracles(nonzero_triplets(m), m)
        svds = [c.a.shape for c in factor_calls
                if c.routine in ("svd", "norm") and c.site in ("nullspace", "column_space")]
        assert len(svds) == 2 and all(min(shape) == short for shape in svds), svds

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(2, 16),
           share=st.tuples(st.floats(0.2, 1.0), st.floats(0.2, 1.0)), adjoint=st.booleans())
    def test_cuts_of_rotated_timotin_bases(self, seed, n, share, adjoint):
        # rows and columns cut from an isometry: the triangles of these
        # blocks are diagonal up to rounding but for a few columns
        basis = bilateral_subspace(InvariantSubspaceSpec(TYPE_I, 1, 1, u=rotated_timotin()),
                                   n).basis
        full = dense_of_list(basis, extent(basis, 0))
        rng = np.random.default_rng(seed)
        rows, cols = (np.flatnonzero(rng.random(d) < keep) for d, keep in zip(full.shape, share))
        m = full[np.ix_(rows, cols)]
        m = m.conj().T if adjoint else m
        assert_matches_oracles(nonzero_triplets(m), m)

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), short=st.integers(2, 6), extra=st.integers(1, 6),
           faint=st.integers(0, 5))
    def test_a_vanished_triangle_column_is_a_unit_kernel_vector(self, seed, short, extra, faint):
        # the column of norm 1e-20 keeps a singular value far below the
        # cutoff, whose right singular vector is that unit vector up to a
        # phase and rounding, at the oracles' tolerance
        m = ginibre(np.random.default_rng(seed), short + extra, short)
        m[:, faint % short] *= 1e-20 / np.linalg.norm(m[:, faint % short])
        kernel = nullspace(nonzero_triplets(m), short)
        np.testing.assert_allclose(np.abs(dense_of_list(kernel, short)),
                                   np.eye(short)[:, [faint % short]], rtol=0, atol=1e-12)
        assert_matches_oracles(nonzero_triplets(m), m)

    @settings(max_examples=150, deadline=None)
    @given(drawn=entry_lists(), seed=st.integers(0, 2 ** 32 - 1))
    def test_times_and_project(self, drawn, seed):
        t, m = drawn
        rows, cols = m.shape
        rng = np.random.default_rng(seed)
        # m's planted blocks and unit columns against a signed-zero matrix
        # and, exactly, two signed-zero matrices
        for a, x in ((m, signed_zero_matrix(rng, cols, 5)),
                     (signed_zero_matrix(rng, rows, cols), signed_zero_matrix(rng, cols, 5))):
            product = linalg.dense_matrix(times(nonzero_triplets(a), nonzero_triplets(x)),
                                          (rows, 5))
            oracle = conftest.dense_times(a, x)
            np.testing.assert_allclose(product, oracle, rtol=0, atol=1e-12)
            zeros = structural_zeros(a, x) if a is m else oracle == 0
            assert not product[zeros].any()
        # the projection onto m's kernel, which is 0 on the basis's zero
        # rows, and exactly onto a dyadic basis
        for b, exact in ((conftest.dense_nullspace(m), False), (dyadic_basis(rng, cols), True)):
            x = signed_zero_matrix(rng, cols, 3)
            projected = linalg.dense_matrix(project(nonzero_triplets(b), nonzero_triplets(x)),
                                            (cols, 3))
            oracle = conftest.dense_project(b, x)
            np.testing.assert_allclose(projected, oracle, rtol=0, atol=1e-12)
            zeros = (oracle == 0) if exact else structural_zeros(b, b.conj().T @ x)
            assert not projected[zeros].any()

    @settings(max_examples=150, deadline=None)
    @given(drawn=entry_lists(), seed=st.integers(0, 2 ** 32 - 1))
    def test_principal_angle_distance(self, drawn, seed):
        _, m = drawn
        rng = np.random.default_rng(seed)
        kernel = conftest.dense_nullspace(m)
        exact = [dyadic_basis(rng, kernel.shape[0]) for _ in range(2)]
        pairs = [(kernel, kernel[:, ::-1]), (kernel, conftest.dense_column_space(kernel[:, :-1])),
                 (exact[0], exact[0][:, ::-1]), (exact[0], exact[1])]
        for first, second in pairs:
            got = principal_angle_distance(nonzero_triplets(first), nonzero_triplets(second))
            oracle = conftest.dense_principal_angle_distance(first, second)
            assert abs(got - oracle) <= 1e-12
            if first is exact[0]:
                assert (got == 0.0) == (oracle == 0.0)


def coupled_through_a_faint_direction():
    """The 4 x 4 matrix [a, a + d b, e, e + d b], d = 1e-9, for the first
    three unit vectors a, b and e.  Columns 1 and 2 meet columns 3 and 4
    only through column 2 and column 4, whose Gram cosine d**2 is below
    rounding, yet col2 - col1 - col4 + col3 = 0: each pair alone keeps its
    small singular value d / sqrt(2), above the cutoff, and has no kernel."""
    a, b, e = np.eye(4)[:3]
    d = 1e-9
    return np.column_stack([a, a + d * b, e, e + d * b]).astype(complex)


def dropped_values_that_add_up(groups=144):
    """(groups + 1) x (2 groups) matrix of columns e_a and e_a + d u, u the
    last unit vector: each pair is a group, whose singular values are about
    sqrt(2) and d / sqrt(2), 0.9 times the cutoff, and no two groups have a
    Gram cosine above d**2.  Each group drops its small value, yet they add
    up: m has the singular value 0.9 sqrt(groups) = 10.8 times the cutoff,
    tenfold above it, and rank groups + 1."""
    m = np.zeros((groups + 1, 2 * groups), dtype=complex)
    at = np.arange(groups)
    m[at, at] = m[at, groups + at] = 1.0
    m[groups, groups:] = 0.9 * RANK_RTOL * 2.0  # d, sigma_max being sqrt(2)
    return m


@st.composite
def orthogonal_column_groups(draw):
    """(m, adjoint): groups of columns, each a planted block of rank at
    least 1 on rows of its own, whose rows are then mixed in tiles of 2 or 3
    rows of different groups by Haar unitaries.  Columns of different
    groups share rows, and their Gram entries, exactly 0 before the
    rotation, are rounding.  One group may be faint, 1e-12 times the
    others, below the cutoff.  ``adjoint``: m* is factored instead, whose
    rows fall into the groups."""
    shapes = draw(st.lists(st.tuples(st.integers(1, 4), st.integers(1, 3)), min_size=2,
                           max_size=5))
    faint = draw(st.integers(-1, len(shapes) - 1))  # -1: none
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    block = np.zeros((sum(p for p, _ in shapes), sum(q for _, q in shapes)), dtype=complex)
    rows, r, c = [], 0, 0
    for k, (p, q) in enumerate(shapes):
        rank = draw(st.integers(1, min(p, q)))
        planted_block = planted(rng, p, q, np.arange(p), np.arange(q), rank, False)
        block[r:r + p, c:c + q] = planted_block * (1e-12 if k == faint else 1.0)
        rows.append(list(range(r, r + p)))
        r, c = r + p, c + q
    # the rows group after group in turn, so each tile takes rows of
    # different groups
    order = [row for turn in range(4) for group in rows for row in group[turn:turn + 1]]
    tile = draw(st.integers(2, 3))
    mix = np.zeros((r, r), dtype=complex)
    for start in range(0, r, tile):
        at = order[start:start + tile]
        mix[np.ix_(at, at)] = haar_unitary(rng, len(at))
    m = (mix @ block)[:, rng.permutation(c)]
    return m, draw(st.booleans())


class TestOrthogonalGroups:
    """A core whose columns (rows) fall into mutually orthogonal groups is
    factored group by group, under the certificate that every Gram entry
    between two groups lies within NEGLIGIBLE eps of the product of the
    groups' smallest singular values above the rounding floor; a cosine
    test alone is unsound."""

    @pytest.mark.parametrize("scale", [1.0, 2.0 ** -560, 2.0 ** 520])
    def test_a_coupling_below_every_cosine_is_certified(self, scale):
        # scaled so far that the Gram entries of the unscaled entries would
        # underflow to 0 or overflow, which would pass any certificate
        m = scale * coupled_through_a_faint_direction()
        t = nonzero_triplets(m)
        # the cosines alone split the columns into {1, 2} and {3, 4}, whose
        # kernels are both 0
        groups = linalg._orthogonal_groups(t)
        assert groups is not None
        assert [list(np.flatnonzero(groups.group == g)) for g in np.unique(groups.group)] == \
            [[0, 1], [2, 3]]
        kernel = nullspace(t, 4)
        assert extent(kernel, 1) == 1
        assert_same_span(dense_of_list(kernel, 4), ref_nullspace(m))
        # the column space of m*, whose rows fall into the same groups
        adjoint = m.conj().T
        assert span_of(adjoint).shape == (4, 3)
        assert_same_span(span_of(adjoint), ref_column_space(adjoint))

    def test_dropped_values_of_many_groups_are_certified(self):
        # a group's values between the rounding floor and the cutoff count
        # in the certificate: the smallest kept value of each group would
        # pass the split, and lose the rank that the dropped values add up to
        m = dropped_values_that_add_up()
        sv = ref_singular_values(m)
        assert sv.size == 145 and sv[-1] >= 10 * RANK_RTOL * sv[0]
        t = nonzero_triplets(m)
        groups = linalg._orthogonal_groups(t)
        assert groups is not None and np.unique(groups.group).size == 144
        assert_same_span(kernel_of(m), ref_nullspace(m))
        assert kernel_of(m).shape == (288, 143)
        adjoint = m.conj().T
        assert_same_span(span_of(adjoint), ref_column_space(adjoint))

    def test_an_uncertified_split_falls_back_to_the_connected_blocks(self, factor_calls,
                                                                      monkeypatch):
        # beside the coupled block, whose split fails the certificate, a
        # block of two columns, (1, 1, 0) and (1, -1, 1), whose Gram entry is
        # exactly 0: the fallback drops every group, that block's too, and
        # factors m by its connected blocks, as with no groups at all
        m = np.zeros((7, 6), dtype=complex)
        m[:4, :4] = coupled_through_a_faint_direction()
        m[4:, 4:] = [[1, 1], [1, -1], [0, 1]]
        kernel = kernel_of(m)
        assert kernel.shape == (6, 1)
        assert_same_span(kernel, ref_nullspace(m))
        split = [c for c in factor_calls if c.site == "nullspace"]
        factor_calls.clear()
        monkeypatch.setattr(linalg, "_orthogonal_groups", lambda m: None)
        np.testing.assert_array_equal(kernel_of(m), kernel)
        whole = [c for c in factor_calls if c.site == "nullspace"]
        assert ("svd", (3, 4)) in {(c.routine, c.a.shape) for c in whole}
        assert ("qr", (3, 2)) in {(c.routine, c.a.shape) for c in whole}
        # the fallback pass factors what the connected blocks alone factor
        fallback = split[len(split) - len(whole):]
        assert [(c.routine, c.a.shape) for c in fallback] == \
            [(c.routine, c.a.shape) for c in whole]
        assert all(np.array_equal(a.a, b.a) for a, b in zip(fallback, whole))

    def test_a_gram_product_above_the_cap_keeps_the_whole_block(self, monkeypatch):
        # a connected 16 x 16 circulant band of 5 entries a row and a column,
        # singular: its block stack holds 256 entries and its Gram matrix
        # takes 16 * 5**2 = 400 terms, fewer than the 512 of the times rule;
        # under a cap of 256 the groups decline and the block is factored
        # whole, as the cap admits
        at = np.arange(16)
        m = np.zeros((16, 16), dtype=complex)
        for shift, value in enumerate([1, 2, -3, 1 + 1j, -1 - 1j]):
            m[at, (at + shift) % 16] = value
        monkeypatch.setattr(linalg, "MAX_DENSE_ENTRIES", m.size)
        t = nonzero_triplets(m)
        for operand in (t, transposed(t)):
            assert linalg._orthogonal_groups(operand) is None
        assert extent(nullspace(t, 16), 1) == 1
        assert_matches_oracles(t, m)

    @settings(max_examples=150, deadline=None)
    @given(drawn=orthogonal_column_groups())
    def test_rotated_orthogonal_groups_match_the_oracles(self, drawn):
        m, adjoint = drawn
        m = m.conj().T if adjoint else m
        assert_matches_oracles(nonzero_triplets(m), m)


def _block_diagonal(count: int, size: int) -> np.ndarray:
    m = np.zeros((count * size, count * size), dtype=complex)
    for i in range(count):
        at = slice(i * size, (i + 1) * size)
        m[at, at] = 1 + np.arange(size * size).reshape(size, size) ** 2
    return m


def _dense_triplets(rows: int, cols: int) -> Triplets:
    i, j = np.divmod(np.arange(rows * cols), cols)
    return Triplets(i, j, np.ones(rows * cols, dtype=complex))


class TestSizeCap:
    """Every allocation that grows with the truncation is checked against
    MAX_DENSE_ENTRIES before it is made: with the cap lowered, each one
    refuses an array just above it, naming the array and its shape."""

    @pytest.mark.parametrize("cap, call, named", [
        (50, lambda: linalg.dense_matrix(_dense_triplets(1, 1), (10, 10)),
         "the dense matrix, 10 x 10 entries"),
        (40, lambda: singular_values(nonzero_triplets(_block_diagonal(3, 4))),
         "the block stack, 3 x 4 x 4 entries"),
        (50, lambda: nullspace(_dense_triplets(1, 10), 10),
         "the right singular vectors, 1 x 10 x 10 entries"),
        # no entry: a unit column per column
        (50, lambda: nullspace(linalg._NONE, 100), "the kernel basis's unit columns, 100 entries"),
        (50, lambda: column_space(_dense_triplets(10, 10)), "the block stack, 1 x 10 x 10 entries"),
        # 200 terms, more than the 2 x 20 entries of the two cores
        (50, lambda: times(_dense_triplets(10, 2), _dense_triplets(2, 10)),
         "the product, 10 x 10 entries"),
        # the spans of two dense 10 x 4 bases: [b1, -b2] is one block
        (50, lambda: linalg.intersection(*(nonzero_triplets(orthonormal(np.random.default_rng(k),
                                                                        10, 4)) for k in (0, 1))),
         "the block stack, 1 x 10 x 8 entries"),
        (50, lambda: sparse_product(_dense_triplets(8, 8), _dense_triplets(8, 8), 10 ** 6),
         "the terms of a sparse product, 512 entries"),
        (50, lambda: sparse_norm(_dense_triplets(10, 10)), "the Lanczos basis, 8 x 10 entries"),
        (50, lambda: operators.multiplication_entries(make_symbol(1, 1, {0: [[1.0]]}),
                                                      0, 99, 0, 99),
         "the entry list of a 1x1 symbol on input degrees 0..99, 100 entries"),
        # each block of [[1, 1], [zbar, zbar]] has at most 11 entries at n = 10, together 24
        (20, lambda: operators.build_range_operator(
            make_symbol(2, 2, {0: [[1, 1], [0, 0]], -1: [[0, 0], [1, 1]]}), 1, 10),
         "a block operator's entry list, 24 entries"),
        (50, lambda: operators.TruncatedSpace.lebesgue(2, 99).degree_indices(-200, 24),
         "the indices of degrees -99..24 at fiber 2, 248 entries"),
        (50, lambda: operators.ProductSpace.of(*[operators.TruncatedSpace.hardy(1, 49)] * 2)
         .shift_targets(("forward", "backward")), "the block shift's index map, 100 entries"),
    ], ids=["dense_matrix", "gather", "svd-vectors", "zero-kernel", "column-space", "times",
            "intersection", "sparse-product", "lanczos-basis", "entry-list", "block-operator",
            "degree-indices", "shift-targets"])
    def test_each_growing_allocation_is_checked(self, monkeypatch, cap, call, named):
        monkeypatch.setattr(linalg, "MAX_DENSE_ENTRIES", cap)
        with pytest.raises(linalg.SizeCapError, match=re.escape(f"{named}, is above the cap of")):
            call()

    def test_the_cap_error_is_no_value_or_key_error(self):
        # cli.run records a ValueError or KeyError as a failed check
        assert not issubclass(linalg.SizeCapError, (ValueError, KeyError))
