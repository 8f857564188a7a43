"""Shared linear-algebra helpers."""

import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shiftlab import cli
from shiftlab.linalg import (
    RANK_RTOL,
    column_space,
    nullspace,
    principal_angle_distance,
    project,
    singular_values,
    spectral_norm,
    times,
)
from shiftlab.operators import _binary_singular_values
from shiftlab.subspaces import TYPE_I, InvariantSubspaceSpec
from shiftlab.symbols import zero_symbol


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


@pytest.fixture
def svd_calls(monkeypatch):
    """(calling function, matrix) of every numpy SVD issued in the test."""
    try:
        from numpy.linalg import _linalg
    except ImportError:  # numpy < 2
        from numpy.linalg import linalg as _linalg
    calls = []
    original = np.linalg.svd

    def recording_svd(a, *args, **kwargs):
        calls.append((sys._getframe(1).f_code.co_name, np.asarray(a)))
        return original(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recording_svd)
    monkeypatch.setattr(_linalg, "svd", recording_svd)
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
    def test_triangle_with_an_exactly_zero_row(self, wide, svd_calls):
        core = duplicated_column_core()
        triangle = np.linalg.qr(core, mode="r")
        assert not triangle[1].any() and triangle[2].any()
        m = core.conj().T if wide else core
        kernel, span = nullspace(m), column_space(m)
        assert kernel.shape[1] == (2 if wide else 1) and span.shape[1] == 2
        # the zero row is stripped again before the SVD
        assert len(svd_calls) == 2
        for _, a in svd_calls:
            assert (a != 0).any(axis=1).all() and (a != 0).any(axis=0).all()
        assert_same_span(kernel, ref_nullspace(m))
        assert_same_span(span, ref_column_space(m))


class TestEverySvdIsStripped:
    """While the CLI runs, no matrix reaching numpy's SVD has a zero row or
    column: the pipeline's matrices all go through the stripping helpers."""

    def test_no_factorised_matrix_has_a_zero_row_or_column(self, monkeypatch):
        try:
            from numpy.linalg import _linalg
        except ImportError:  # numpy < 2
            from numpy.linalg import linalg as _linalg
        seen = []
        original = np.linalg.svd

        def recording_svd(a, *args, **kwargs):
            arr = np.asarray(a)
            nonzero = arr != 0
            seen.append((arr.shape, bool(nonzero.any(axis=-1).all()),
                         bool(nonzero.any(axis=-2).all())))
            return original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", recording_svd)
        monkeypatch.setattr(_linalg, "svd", recording_svd)
        zero = (zero_symbol(2, 1), zero_symbol(2, 2))
        replicated = cli.Scenario(
            "replicated-1-2", InvariantSubspaceSpec(TYPE_I, 1, 2, u=cli.replicated_u(1, 2)),
            ("partial_isometry", "intertwining", "nehari"), (8, 16),
            expect={"partial_isometry": True}, nehari_candidates=(zero,))
        scenarios = cli.DEMOS["timotin-nonsplitting"]() + [replicated]
        assert cli.run_batch(scenarios).exit_status == 0
        assert len(seen) > 20
        bad = [shape for shape, rows_ok, cols_ok in seen if not (rows_ok and cols_ok)]
        assert not bad, f"factorised with a zero row or column: {bad}"


class TestEverySvdIsOneSided:
    """While the CLI runs, nullspace factors a tall core through its triangle
    and column_space a wide one through the triangle of its conjugate
    transpose, so neither SVD has a long side whose vectors are discarded."""

    def test_no_svd_forms_the_long_side(self, svd_calls):
        replicated = cli.Scenario(
            "replicated-1-2", InvariantSubspaceSpec(TYPE_I, 1, 2, u=cli.replicated_u(1, 2)),
            ("invariance", "kernel_rep", "range_rep"), (8, 16))
        scenarios = [sc for build in cli.DEMOS.values() for sc in build()] + [replicated]
        assert cli.run_batch(scenarios).exit_status == 0
        kernel = [m.shape for site, m in svd_calls if site == "nullspace"]
        span = [m.shape for site, m in svd_calls if site == "column_space"]
        assert len(kernel) > 20 and len(span) > 5
        assert not [s for s in kernel if s[0] > s[1]], "nullspace factored a tall matrix"
        assert not [s for s in span if s[0] < s[1]], "column_space factored a wide matrix"


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
