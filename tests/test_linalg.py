"""Shared linear-algebra helpers."""

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
    singular_values,
    spectral_norm,
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
