"""Shared linear-algebra helpers."""

import sys
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import haar_unitary, nonzero_triplets, signed_zero_matrix
from shiftlab import cli, linalg
from shiftlab.linalg import (
    RANK_RTOL,
    Triplets,
    _unit_columns,
    column_space,
    short_gram,
    sparse_difference,
    sparse_norm,
    sparse_product,
    support_core,
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
    build_kernel_operator,
    hankel_op,
)
from shiftlab.subspaces import TYPE_I, InvariantSubspaceSpec
from shiftlab.symbols import make_symbol, zero_symbol


class TestSpectralNorm:
    def test_zero_matrix_is_exactly_zero(self):
        value = spectral_norm(np.zeros((5, 3), dtype=complex))
        assert value == 0.0 and type(value) is float

    def test_empty_matrix_is_exactly_zero(self):
        assert spectral_norm(np.zeros((4, 0), dtype=complex)) == 0.0
        assert spectral_norm(np.zeros((0, 0))) == 0.0


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
        assert abs(principal_angle_distance(b1, b2) - reference) <= 1e-14

    def test_dimension_mismatch_is_one(self):
        rng = np.random.default_rng(0)
        assert principal_angle_distance(orthonormal(rng, 6, 2),
                                        orthonormal(rng, 6, 3)) == 1.0


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


def ref_binary(m, tol):
    if m.size == 0:
        return False
    sv = ref_singular_values(m)
    return bool(np.all((sv <= tol) | (np.abs(sv - 1.0) <= tol)))


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
    assert principal_angle_distance(b, ref) <= 1e-12


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
        sv, ref_sv = singular_values(m), ref_singular_values(m)
        nonzero = ref_sv[ref_sv > 1e-12]
        np.testing.assert_allclose(sv[sv > 1e-12], nonzero, rtol=0, atol=1e-12)
        assert np.all(sv[nonzero.size:] <= 1e-12)
        assert spectral_norm(m) == pytest.approx(ref_sv[0] if ref_sv.size else 0.0,
                                                 abs=1e-12)
        assert_same_span(nullspace(m), ref_nullspace(m))
        assert_same_span(column_space(m), ref_column_space(m))
        for tol in (1e-8, 0.3):
            assert _binary_singular_values(m, tol) == ref_binary(m, tol)

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
        kernel = nullspace(m)
        assert kernel.shape == (4, 3)
        assert np.allclose(kernel[1], 0.0)
        assert np.allclose(m @ kernel, 0.0)

    def test_column_space_lives_on_support_rows(self):
        m = np.zeros((5, 2), dtype=complex)
        m[[0, 3], 0] = [3.0, 4.0]
        basis = column_space(m)
        assert basis.shape == (5, 1)
        np.testing.assert_allclose(np.abs(basis[:, 0]), [0.6, 0, 0, 0.8, 0], atol=1e-15)


PENROSE_TOLS = [1e-12, 1e-8, 1e-4, 0.3, 0.7, 1.5]


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
        assert _binary_singular_values(m, tol) == ref_binary(m, tol)

    @pytest.mark.parametrize("tol", PENROSE_TOLS)
    def test_partial_isometries_are_certified_below_one(self, tol):
        rng = np.random.default_rng(3)
        m = orthonormal(rng, 9, 4)[:, [0, 1, 2]] @ orthonormal(rng, 6, 3).conj().T
        assert _penrose_certified(nonzero_triplets(m), tol) == (tol < 1.0)
        assert _binary_singular_values(m, tol)


def ref_support(m):
    nonzero = m != 0
    return np.flatnonzero(nonzero.any(axis=1)), np.flatnonzero(nonzero.any(axis=0))


def ref_unit_columns(b):
    nonzero = b != 0
    single = np.flatnonzero(np.count_nonzero(nonzero, axis=0) == 1)
    at = nonzero[:, single].argmax(axis=0) if single.size else single
    unit = b[at, single] == 1
    return single[unit], at[unit], np.setdiff1d(np.arange(b.shape[1]), single[unit])


def block_support(m):
    """The rows and the columns of m that ``_blocks`` places in a block,
    ascending."""
    blocks = linalg._blocks(m)
    return tuple(np.sort(np.concatenate([np.zeros(0, int)] + [b[k].ravel() for b in blocks]))
                 for k in (0, 1))


class TestNonzeroMasks:
    """_blocks and _unit_columns read the float view of the complex data;
    they must find exactly the entries m != 0 finds."""

    def check(self, m):
        for got, ref in zip(block_support(m), ref_support(m)):
            np.testing.assert_array_equal(got, ref)
        for got, ref in zip(_unit_columns(m), ref_unit_columns(m)):
            np.testing.assert_array_equal(got, ref)

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
        m = op.dense()
        m[::3, ::2] = complex(-0.0, -0.0)
        self.check(m)
        assert nonzero_triplets(m).rows.size == 0

    def test_operator_with_an_empty_window(self):
        # the builder lists the whole matrix; the window is applied by each check
        op = hankel_op(make_symbol(1, 1, {-5: [1], -6: [-0.0]}), 2)
        assert op.exact_window == -1
        m = op.dense()
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


class TestSparseNorm:
    """sparse_norm, sqrt(lambda_max) of the short-side Gram matrix, against
    the values-only SVD of the dense matrix.  Both are backward stable, so
    they agree to a small multiple of eps: rel=1e-13 is about 450 eps."""

    @settings(max_examples=150, deadline=None)
    @given(m=st.one_of(planted_matrices(), st.builds(
        lambda seed, rows, cols: signed_zero_matrix(np.random.default_rng(seed), rows, cols),
        st.integers(0, 2 ** 32 - 1), st.integers(0, 12), st.integers(0, 12))))
    @example(m=np.zeros((0, 0), dtype=complex))
    @example(m=np.zeros((3, 5), dtype=complex))
    # the Gram matrix squares (v, 2v): to 0 at v = 1e-200, to inf at 1e200
    @example(m=np.diag([1e-200, 2e-200]).astype(complex))
    @example(m=np.diag([1e200, 2e200]).astype(complex))
    def test_matches_the_dense_svd(self, m):
        # tall, wide, rank-deficient, zero rows and columns, signed zeros
        value = sparse_norm(nonzero_triplets(m))
        assert type(value) is float
        assert value == pytest.approx(ref_norm(m), rel=1e-13, abs=0.0)

    def test_empty_list_is_exactly_zero(self):
        empty = np.zeros(0, dtype=np.intp)
        value = sparse_norm(Triplets(empty, empty, np.zeros(0, dtype=complex)))
        assert value == 0.0 and type(value) is float

    @pytest.mark.parametrize("wide", [False, True])
    @pytest.mark.parametrize("route", ["sparse", "dense"])
    def test_the_gram_is_taken_on_the_short_side(self, route, wide):
        rng = np.random.default_rng(8)
        m = (cancelling_blocks(rng, 4, False)[0] if route == "sparse"
             else planted(rng, 12, 8, np.arange(12), np.arange(8), 3, False))
        m = m.conj().T if wide else m
        gram = short_gram(nonzero_triplets(m))[1]
        assert isinstance(gram, Triplets) == (route == "sparse")
        assert (support_core(gram) if route == "sparse" else gram).shape == (8, 8)
        assert sparse_norm(nonzero_triplets(m)) == pytest.approx(ref_norm(m), rel=1e-13)

    @pytest.mark.parametrize("wide", [False, True])
    def test_gram_entries_that_cancel(self, wide):
        m, norm = cancelling_blocks(np.random.default_rng(9), 5, wide)
        t = nonzero_triplets(m)
        _, gram = short_gram(t)
        assert isinstance(gram, Triplets), "banded blocks take the sparse product"
        off_diagonal = gram.vals[gram.rows != gram.cols]
        assert off_diagonal.size and np.all(off_diagonal == 0)
        assert sparse_norm(t) == pytest.approx(norm, rel=1e-13)
        assert sparse_norm(t) == pytest.approx(ref_norm(m), rel=1e-13)

    @pytest.mark.parametrize("case", ["banded", "dense"])
    def test_both_gram_routes_match_the_dense_svd(self, case, monkeypatch):
        # a banded list takes the sparse product; a dense matrix has more
        # product terms than entries, and its Gram matrix is formed densely
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
        assert sparse_norm(nonzero_triplets(m)) == pytest.approx(ref_norm(m), rel=1e-13)
        assert routes == [case == "banded"]


class Factored(NamedTuple):
    """One matrix that reached numpy's SVD or QR; a stacked call is
    recorded block by block, each as its own ``shape[-2:]`` matrix."""

    site: str  # the innermost public function on the call stack
    routine: str  # "svd" or "qr"
    a: np.ndarray
    stacked: bool  # one block of a stacked (3-d) call
    depth: int  # the number of blocks its call factors, 1 for a 2-d call
    operand: np.ndarray | None  # the argument m of ``site``, when it has one


@pytest.fixture
def factor_calls(monkeypatch):
    """Every matrix factored by numpy's SVD or QR in the test, in order."""
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
    return calls


def duplicated_column_core():
    """4 x 3 core [1, 1, ramp] whose Householder triangle has an exactly-zero
    middle row: the second column is the first, so nothing is left of it
    once the first reflector has acted."""
    ones = np.ones(4)
    return np.column_stack([ones, ones, np.arange(1.0, 5.0)]).astype(complex)


class TestTriangleFirst:
    """Tall cores reach nullspace, and wide cores column_space, through the
    triangle of a QR factorisation; both must agree with the dense
    factorization of the core itself."""

    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), short=st.integers(1, 10),
           extra=st.integers(1, 12), rank=st.integers(0, 10), binary=st.booleans(),
           wide=st.booleans())
    def test_planted_full_support_cores(self, seed, short, extra, rank, binary, wide):
        rng = np.random.default_rng(seed)
        rows, cols = (short, short + extra) if wide else (short + extra, short)
        m = planted(rng, rows, cols, np.arange(rows), np.arange(cols), rank, binary)
        assert_same_span(nullspace(m), ref_nullspace(m))
        assert_same_span(column_space(m), ref_column_space(m))

    @pytest.mark.parametrize("wide", [False, True])
    def test_triangle_with_an_exactly_zero_row(self, wide, factor_calls):
        core = duplicated_column_core()
        triangle = np.linalg.qr(core, mode="r")
        assert not triangle[1].any() and triangle[2].any()
        m = core.conj().T if wide else core
        kernel, span = nullspace(m), column_space(m)
        assert kernel.shape[1] == (2 if wide else 1) and span.shape[1] == 2
        # the zero row is stripped again before the SVD
        svds = [c.a for c in factor_calls if c.routine == "svd"]
        assert len(svds) == 2
        for a in svds:
            assert (a != 0).any(axis=1).all() and (a != 0).any(axis=0).all()
        assert_same_span(kernel, ref_nullspace(m))
        assert_same_span(span, ref_column_space(m))


class TestEverySvdIsStripped:
    """While the CLI runs, no matrix reaching numpy's SVD has a zero row or
    column: the pipeline's matrices all go through the stripping helpers."""

    def test_no_factorised_matrix_has_a_zero_row_or_column(self, factor_calls):
        zero = (zero_symbol(2, 1), zero_symbol(2, 2))
        replicated = cli.Scenario(
            "replicated-1-2", InvariantSubspaceSpec(TYPE_I, 1, 2, u=cli.replicated_u(1, 2)),
            ("partial_isometry", "intertwining", "nehari"), (8, 16),
            expect={"partial_isometry": True}, nehari_candidates=(zero,))
        scenarios = cli.DEMOS["timotin-nonsplitting"]() + [replicated]
        assert cli.run_batch(scenarios).exit_status == 0
        assert len([c for c in factor_calls if c.routine == "svd"]) > 20
        bad = [(c.routine, c.a.shape) for c in factor_calls
               if not ((c.a != 0).any(axis=1).all() and (c.a != 0).any(axis=0).all())]
        assert not bad, f"factorised with a zero row or column: {bad}"


class TestNoOperatorSizedSvd:
    """The operator checks of replicated_u(1, 2) factor nothing larger than
    the symbol's 3 x 3 fiber: the Penrose certificate passes
    partial_isometry, intertwining leaves no residual, and nehari reads its
    lower bound off the Gram matrix's eigenvalues.  What reaches the SVD is
    only nehari_bounds' samples of the symbol on the circle."""

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
    """While the CLI runs, nullspace factors a tall core or block through its
    triangle and column_space a wide one through the triangle of its
    conjugate transpose, so neither SVD has a long side whose vectors are
    discarded, and QR is only given tall matrices."""

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
        assert not [s for s in kernel if s[0] > s[1]], "nullspace factored a tall matrix"
        assert not [s for s in span if s[0] < s[1]], "column_space factored a wide matrix"
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


def component_shapes(m):
    """(rows, cols) of each connected block of m's nonzero pattern, by
    union-find over its nonzero entries."""
    parent = {}

    def root(node):
        while parent.setdefault(node, node) != node:
            node = parent[node]
        return node

    for i, j in zip(*np.nonzero(m)):
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
    cutoff for the whole core; a core of one block is a stack of one."""

    @settings(max_examples=150, deadline=None)
    @given(drawn=permuted_block_cores())
    def test_permuted_block_diagonal_cores(self, drawn):
        m, blocks = drawn
        found = linalg._blocks(m)
        assert sum(r.shape[0] for r, _ in found) == blocks
        sv, ref_sv = singular_values(m), ref_singular_values(m)
        assert sv.size <= ref_sv.size and np.all(np.diff(sv) <= 0)
        np.testing.assert_allclose(sv, ref_sv[:sv.size], rtol=0, atol=1e-13)
        assert np.all(ref_sv[sv.size:] <= 1e-13)
        assert_same_span(nullspace(m), ref_nullspace(m))
        assert_same_span(column_space(m), ref_column_space(m))

    def test_one_cutoff_for_all_blocks(self):
        m = np.zeros((3, 3), dtype=complex)
        m[0, 0], m[1, 1:] = 1.0, [1e-12, -1e-12]
        assert nullspace(m).shape == (3, 2) and column_space(m).shape == (3, 1)
        np.testing.assert_allclose(singular_values(m), [1.0, np.sqrt(2) * 1e-12], rtol=1e-15)

    @pytest.mark.parametrize("wide", [False, True])
    def test_stacked_triangles_strip_their_zero_rows(self, wide, factor_calls):
        # two blocks whose triangle has an exactly-zero row and one whose has
        # none: one stacked QR, then one stacked SVD per count of rows
        rng = np.random.default_rng(12)
        dense = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
        core = np.zeros((12, 9), dtype=complex)
        for k, block in enumerate([duplicated_column_core(), dense, 2 * duplicated_column_core()]):
            core[4 * k:4 * k + 4, 3 * k:3 * k + 3] = block
        m = core.conj().T if wide else core
        if wide:
            assert_same_span(column_space(m), ref_column_space(m))
        else:
            assert_same_span(nullspace(m), ref_nullspace(m))
        calls = [c for c in factor_calls if c.site in ("nullspace", "column_space")]
        qr = [c for c in calls if c.routine == "qr"]
        svd = [c for c in calls if c.routine == "svd"]
        assert [c.a.shape for c in qr] == [(4, 3)] * 3 and all(c.stacked for c in qr)
        assert sorted(c.a.shape for c in svd) == ([(2, 3), (2, 3), (3, 3)] if not wide
                                                  else [(3, 2), (3, 2), (3, 3)])
        for c in svd:
            assert (c.a != 0).any(axis=1).all() and (c.a != 0).any(axis=0).all()

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
            assert c.a.size <= largest[key], (c.site, c.a.shape, c.operand.shape)

    @settings(max_examples=150, deadline=None)
    @given(m=st.one_of(permuted_block_cores().map(lambda drawn: drawn[0]), planted_matrices()),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_layout_and_column_order_move_no_bit(self, m, seed):
        # a column-major copy and a column gather (column-major too) of a
        # row-major m must find its blocks in the same order, so every basis
        # column comes out in the same place
        m = np.ascontiguousarray(m)  # a drawn block core is a column gather
        perm = np.random.default_rng(seed).permutation(m.shape[1])
        layouts = [np.asfortranarray(m), m[:, perm][:, np.argsort(perm)]]
        for helper in (nullspace, column_space, singular_values):
            expected = helper(m)
            for other in layouts:
                np.testing.assert_array_equal(helper(other), expected)

    @pytest.mark.parametrize("name", ["timotin-nonsplitting", "timotin-rotated"])
    def test_one_component_cores_are_a_stack_of_one(self, name, factor_calls):
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
        single = 0
        for c in calls:
            assert c.stacked, (c.site, c.a.shape, c.operand.shape)
            if len(component_shapes(c.operand)) == 1:
                single += 1
                assert c.depth == 1, (c.site, c.a.shape, c.operand.shape)
                core = c.operand[np.ix_(*ref_support(c.operand))]
                side = {"nullspace": 1, "column_space": 0}.get(c.site)
                assert side is None or core.shape[side] in c.a.shape
        assert single > 10
        if name == "timotin-rotated":
            assert single == len(calls)


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
        b, rng = drawn
        d, k = b.shape
        a = rng.standard_normal((left, d)) + 1j * rng.standard_normal((left, d))
        x = rng.standard_normal((d, k)) + 1j * rng.standard_normal((d, k))
        assert np.max(np.abs(times(a, b) - a @ b), initial=0.0) <= 1e-13
        assert np.max(np.abs(project(b, x) - b @ (b.conj().T @ x)), initial=0.0) <= 1e-13

    @settings(max_examples=120, deadline=None)
    @given(first=unit_heavy_bases(), second=unit_heavy_bases(), log_eps=st.floats(-16, 0))
    def test_principal_angle_distance_is_symmetric(self, first, second, log_eps):
        b1, rng = first
        b2 = second[0]
        if b2.shape != b1.shape:  # a rotated copy of b1 instead
            noise = rng.standard_normal(b1.shape) + 1j * rng.standard_normal(b1.shape)
            b2 = np.linalg.qr(b1 + 10.0 ** log_eps * noise)[0]
        assert abs(principal_angle_distance(b1, b2)
                   - principal_angle_distance(b2, b1)) <= 1e-14
