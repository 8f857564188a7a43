"""Invariant-subspace construction and verification tests."""

import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import (
    bilateral_roundtrip,
    coeff,
    in_fiber_dims,
    named,
    ref_multiplication_matrix,
    ref_splitting_stack,
)
from shiftlab import cli, subspaces
from shiftlab.linalg import column_space, image_within, nullspace, principal_angle_distance
from shiftlab.operators import (
    SubspaceBasis,
    build_kernel_operator,
    build_range_operator,
    hankel_op,
)
from shiftlab.subspaces import (
    InvariantSubspaceSpec,
    SpecValidationError,
    analytic_ambient,
    bilateral_subspace,
    default_window,
    invariance_check,
    kernel_representation_check,
    kernel_subspace,
    kernel_symbol_from_u,
    mixed_invariant_subspace,
    operator_truncation,
    range_representation_check,
    range_symbol_from_u,
    range_window_basis,
    shift_invariance_residual,
    splitting_check_scalar,
    twocond_check,
)
from shiftlab.symbols import (
    block_symbol,
    constant_symbol,
    identity_symbol,
    make_cyclic_symbol,
    make_symbol,
    monomial_symbol,
    submatrix,
    zero_symbol,
)

RS2 = 1 / np.sqrt(2)
RS3 = 1 / np.sqrt(3)


def timotin_u():
    return make_symbol(2, 2, {0: [[0, RS2], [0, -RS2]], 1: [[RS2, 0], [RS2, 0]]})


def timotin_spec():
    return InvariantSubspaceSpec("type_i", 1, 1, u=timotin_u())


def replicated_u_m1n2():
    # derived 3x3 unitary column symbol for the subspace {(f, f(0), f(0))}
    r2, r6, r3 = 1 / np.sqrt(2), 1 / np.sqrt(6), RS3
    return make_symbol(3, 3, {
        0: [[r2, r6, 0], [-r2, r6, 0], [0, -2 * r6, 0]],
        1: [[0, 0, r3], [0, 0, r3], [0, 0, r3]],
    })


def replicated_spec_m1n2():
    return InvariantSubspaceSpec("type_i", 1, 2, u=replicated_u_m1n2())


def replicated_spec_m2n3():
    c1 = np.array([-3, -3, 2, 2, 2]) / np.sqrt(30)
    c2 = np.array([0, 0, 1, -1, 0]) / np.sqrt(2)
    c3 = np.array([0, 0, 1, 1, -2]) / np.sqrt(6)
    zcol = np.ones((5, 1)) / np.sqrt(5)
    u = make_symbol(5, 4, {
        0: np.hstack([np.column_stack([c1, c2, c3]), np.zeros((5, 1))]),
        1: np.hstack([np.zeros((5, 3)), zcol]),
    })
    omega = constant_symbol(np.array([[1], [-1]]) / np.sqrt(2))
    return InvariantSubspaceSpec("type_ii", 2, 3, u=u, omega=omega)


def explicit_replicated_basis(dim_e, dim_f, w):
    """Orthonormal basis of {(f, ..., f, f(0), ..., f(0)) : deg f <= w}."""
    dim = (dim_e + dim_f) * (w + 1)
    cols = []
    for k in range(w + 1):
        v = np.zeros(dim, dtype=complex)
        for i in range(dim_e):
            v[k * dim_e + i] = 1
        if k == 0:
            for j in range(dim_f):
                v[dim_e * (w + 1) + j] = 1
        cols.append(v / np.linalg.norm(v))
    return column_space(np.column_stack(cols))


def hardy_block_basis(w, e_degrees, full_f=True):
    """Basis of span{z^k in the first scalar fiber} (+) the whole second fiber."""
    dim = 2 * (w + 1)
    cols = []
    for k in e_degrees:
        v = np.zeros(dim, dtype=complex)
        v[k] = 1
        cols.append(v)
    if full_f:
        for k in range(w + 1):
            v = np.zeros(dim, dtype=complex)
            v[w + 1 + k] = 1
            cols.append(v)
    return column_space(np.column_stack(cols)) if cols else np.zeros((dim, 0))


class TestSpecValidation:
    def test_missing_u_rejected(self):
        with pytest.raises(SpecValidationError, match="requires the field U"):
            InvariantSubspaceSpec("type_i", 1, 1)

    def test_u_height_mismatch_names_field(self):
        u = make_symbol(3, 2, {0: np.eye(3, 2)})
        with pytest.raises(SpecValidationError, match="field U"):
            InvariantSubspaceSpec("type_i", 1, 1, u=u)

    def test_omega_width_bounded_by_dim_e(self):
        omega = constant_symbol(np.eye(2))
        with pytest.raises(SpecValidationError, match="Omega"):
            InvariantSubspaceSpec("type_ii", 1, 1, omega=omega)

    def test_unknown_variant(self):
        with pytest.raises(SpecValidationError, match="variant"):
            InvariantSubspaceSpec("type_iii", 1, 1)


class TestMixedSymbols:
    """spec.mixed: the square symbol of each mixed operator kind."""

    def test_type_i_derives_range_then_kernel(self):
        mixed = timotin_spec().mixed
        assert list(mixed) == ["range", "kernel"]
        for kind, derive in (("range", range_symbol_from_u), ("kernel", kernel_symbol_from_u)):
            expected = derive(timotin_u(), 1, 1)
            assert mixed[kind].kmin == expected.kmin
            np.testing.assert_array_equal(mixed[kind].coeffs, expected.coeffs)

    def test_given_symbols_are_kept(self):
        phi = range_symbol_from_u(timotin_u(), 1, 1)
        assert InvariantSubspaceSpec("type_i", 1, 1, u=timotin_u(), phi=phi).mixed["range"] is phi
        psi = kernel_symbol_from_u(timotin_u(), 1, 1)
        spec = InvariantSubspaceSpec("type_ii", 1, 1, omega=identity_symbol(1), psi=psi)
        assert spec.mixed == {"kernel": psi}
        assert InvariantSubspaceSpec("range_rep", 1, 1, phi=phi).mixed == {"range": phi}


class TestTwocond:
    def test_timotin_passes_all(self):
        rep = twocond_check(timotin_spec())
        assert rep.overall
        names = {c.name for c in rep.checks}
        assert {"u_isometry", "u_f_analytic", "u_e_causal", "u_f_rank"} <= names

    def test_constant_column_splitting_case(self):
        spec = InvariantSubspaceSpec(
            "type_i", 1, 1, u=make_symbol(2, 1, {0: [[1], [0]]}))
        rep = twocond_check(spec)
        assert rep.overall
        assert named(rep, "u_f_rank").passed  # rank 0 expected and found

    def test_second_fiber_column_fails(self):
        spec = InvariantSubspaceSpec(
            "type_i", 1, 1, u=make_symbol(2, 1, {0: [[0], [1]]}))
        rep = twocond_check(spec)
        assert not rep.overall
        assert not named(rep, "u_f_rank").passed

    def test_anticausal_first_block_fails(self):
        u = make_symbol(2, 1, {2: [[1], [0]]})
        rep = twocond_check(InvariantSubspaceSpec("type_i", 1, 1, u=u))
        assert not named(rep, "u_e_causal").passed

    @pytest.mark.parametrize("coeffs, causal", [
        ({10 ** 12: [[1], [0]]}, 1.0),
        ({0: [[0.6], [0]], 3: [[0.8], [0]]}, 0.8),
        ({-3: [[1], [0]]}, 0.0),
    ], ids=["far-degree", "gap", "anti-analytic"])
    def test_causal_check_reads_the_stored_coefficients(self, coeffs, causal):
        # a degree of 10**12 costs one stored coefficient, not a loop to it
        rep = twocond_check(InvariantSubspaceSpec("type_i", 1, 1, u=make_symbol(2, 1, coeffs)))
        assert named(rep, "u_e_causal").residual == causal

    def test_type_ii_orthogonality_violation_detected(self):
        # omega aligned with the first-fiber content of U
        u = make_symbol(3, 2, {0: [[RS2, 0], [0, RS2], [0, -RS2]],
                               1: [[0, RS2], [RS2, 0], [RS2, 0]]})
        omega = constant_symbol([[1.0], [0.0]])
        rep = twocond_check(InvariantSubspaceSpec("type_ii", 2, 1, u=u, omega=omega))
        assert not named(rep, "omega_orthogonal_u").passed


class TestBilateralSubspace:
    def test_constant_column_gives_monomials(self):
        spec = InvariantSubspaceSpec(
            "type_i", 1, 1, u=make_symbol(2, 1, {0: [[1], [0]]}))
        n = 6
        b3 = bilateral_subspace(spec, n)
        assert b3.dim == n + 1
        amb = b3.ambient
        proj = b3.basis @ b3.basis.conj().T
        for k in range(0, n + 1):
            v = np.zeros(amb.dim, dtype=complex)
            v[amb.parts[0].degree_indices(k, k)] = 1
            np.testing.assert_allclose(proj @ v, v, atol=1e-12)

    def test_full_two_sided_part_for_doubly_invariant_corner(self):
        spec = InvariantSubspaceSpec("type_ii", 1, 1, omega=identity_symbol(1))
        n = 5
        b3 = bilateral_subspace(spec, n)
        assert b3.dim == 2 * n + 1

    def test_unitary_column_matches_direct_construction(self):
        spec = timotin_spec()
        n = 6
        b3 = bilateral_subspace(spec, n)
        u = spec.u
        assert b3.dim == 2 * (n - 1 + 1)
        amb = b3.ambient
        proj = b3.basis @ b3.basis.conj().T
        for k in range(0, n):
            for e in range(2):
                vec = np.zeros(amb.dim, dtype=complex)
                for m in (0, 1):
                    # one fiber per part: the indices of degree k + m in parts 0 and 1
                    vec[amb.degree_indices(k + m, k + m)] += coeff(u, m)[:, e]
                np.testing.assert_allclose(proj @ vec, vec, atol=1e-12)

    @staticmethod
    def scalar_fiber_generators(u, n):
        """Columns U z^k e, k = 0..n - kmax, in the bilateral ambient of 1 + 1 fibers."""
        cols = range(u.cols)
        return np.vstack([
            ref_multiplication_matrix(submatrix(u, range(1), cols), 0, n - u.kmax, -n, n),
            ref_multiplication_matrix(submatrix(u, range(1, 2), cols), 0, n - u.kmax, 0, n)])

    def test_orthonormal_generators_are_the_basis(self):
        n = 6
        b3 = bilateral_subspace(timotin_spec(), n)
        np.testing.assert_array_equal(b3.basis, self.scalar_fiber_generators(timotin_u(), n))

    def test_non_isometric_column_is_orthonormalized(self):
        # the generators of 2 U are orthogonal with norm 2, not a basis as they stand
        n = 6
        u = 2 * timotin_u()
        gens = self.scalar_fiber_generators(u, n)
        np.testing.assert_allclose(gens.conj().T @ gens, 4 * np.eye(gens.shape[1]),
                                   atol=1e-12)
        b3 = bilateral_subspace(InvariantSubspaceSpec("type_i", 1, 1, u=u), n)
        np.testing.assert_allclose(b3.basis.conj().T @ b3.basis, np.eye(b3.dim),
                                   atol=1e-12)
        assert b3.dim == gens.shape[1]
        assert principal_angle_distance(b3.basis, column_space(gens)) <= 1e-12

    def test_dependent_generators_rejected(self):
        u = make_symbol(2, 2, {0: [[0.6, 0.6], [0.8, 0.8]]})
        with pytest.raises(ValueError, match="numerically dependent"):
            bilateral_subspace(InvariantSubspaceSpec("type_i", 1, 1, u=u), 4)

    def test_band_exceeding_truncation_rejected(self):
        spec = InvariantSubspaceSpec(
            "type_i", 1, 1, u=make_symbol(2, 1, {5: [[1], [0]]}))
        with pytest.raises(ValueError, match="band"):
            bilateral_subspace(spec, 3)


class TestMixedFromBilateral:
    def test_constant_column_complement(self):
        spec = InvariantSubspaceSpec(
            "type_i", 1, 1, u=make_symbol(2, 1, {0: [[1], [0]]}))
        n = 8
        mixed = mixed_invariant_subspace(spec, n)
        w = mixed.window
        expected = hardy_block_basis(w, range(1, w + 1))
        assert principal_angle_distance(mixed.basis, expected) <= 1e-12

    def test_doubly_invariant_part_gives_second_fiber(self):
        spec = InvariantSubspaceSpec("type_ii", 1, 1, omega=identity_symbol(1))
        mixed = mixed_invariant_subspace(spec, 8)
        expected = hardy_block_basis(mixed.window, [])
        assert principal_angle_distance(mixed.basis, expected) <= 1e-12

    def test_timotin_matches_kernel_of_mixed_operator(self):
        spec = timotin_spec()
        n = 12
        mixed = mixed_invariant_subspace(spec, n)
        psi = kernel_symbol_from_u(spec.u, 1, 1)
        op = build_kernel_operator(psi, 1, operator_truncation(psi, mixed.window, n))
        ker = kernel_subspace(op, mixed.window)
        assert principal_angle_distance(mixed.basis, ker.basis) <= 1e-8


class TestInvariance:
    def test_shift_block_subspace(self):
        w = 6
        basis = SubspaceBasis(analytic_ambient(1, 1, w),
                              hardy_block_basis(w, range(1, w + 1)), window=w)
        assert invariance_check(basis) <= 1e-14

    def test_constants_in_first_fiber_fail(self):
        w = 4
        vec = np.zeros((2 * (w + 1), 1), dtype=complex)
        vec[0, 0] = 1
        basis = SubspaceBasis(analytic_ambient(1, 1, w), vec, window=w)
        assert abs(invariance_check(basis) - 1.0) <= 1e-12

    def test_range_of_mixed_operator_invariant(self):
        spec = timotin_spec()
        phi = range_symbol_from_u(spec.u, 1, 1)
        n = 12
        op = build_range_operator(phi, 1, operator_truncation(phi, n - 1, n))
        rng_basis = range_window_basis(op, n - 1)
        assert invariance_check(rng_basis) <= 1e-10

    def test_kernel_of_range_operator_forward_invariant(self):
        phi = range_symbol_from_u(timotin_u(), 1, 1)
        v = build_range_operator(phi, 1, 12)
        w = v.exact_window
        ker = nullspace(v.dense(cols=v.domain.window_indices(w)))
        kb = SubspaceBasis(analytic_ambient(1, 1, w), ker, window=w)
        assert shift_invariance_residual(kb, ("forward", "forward")) <= 1e-10


class TestKernelRepresentation:
    def test_timotin_kernel_matches_subspace(self):
        spec = timotin_spec()
        n = 16
        mixed = mixed_invariant_subspace(spec, n)
        psi = kernel_symbol_from_u(spec.u, 1, 1)
        op = build_kernel_operator(psi, 1, operator_truncation(psi, mixed.window, n))
        rep = kernel_representation_check(mixed, psi, None, op)
        assert rep.overall
        assert named(rep, "kernel_distance").residual <= 1e-8

    def test_identity_inner_factor_is_no_constraint(self):
        spec = timotin_spec()
        n = 16
        mixed = mixed_invariant_subspace(spec, n)
        psi = kernel_symbol_from_u(spec.u, 1, 1)
        op = build_kernel_operator(psi, 1, operator_truncation(psi, mixed.window, n))
        rep = kernel_representation_check(mixed, psi, identity_symbol(1), op)
        assert rep.overall
        assert named(rep, "kernel_distance").residual <= 1e-8

    def test_zero_symbols_give_second_fiber(self):
        w = 5
        n = 12
        expected = hardy_block_basis(w, [])
        basis = SubspaceBasis(analytic_ambient(1, 1, w), expected, window=w)
        psi = zero_symbol(2, 2)
        op = build_kernel_operator(psi, 1, operator_truncation(psi, w, n))
        rep = kernel_representation_check(basis, psi, zero_symbol(1, 1), op)
        assert rep.overall

    def test_cyclic_diagonal_splitting_case(self):
        poles = [0.5, 1 / 3, 0.25, 0.2]
        weights = [4.0 ** -j for j in range(1, 5)]
        a = make_cyclic_symbol(poles, weights, 33)
        theta_f = make_symbol(1, 1, {2: [1]})
        psi = block_symbol([[a, zero_symbol(1, 1)], [zero_symbol(1, 1), theta_f]])
        w = len(poles) - 1
        # zero (+) the model space of z^2: span{1, z} in the second fiber
        target = SubspaceBasis(analytic_ambient(1, 1, w),
                               np.eye(2 * (w + 1))[:, [w + 1, w + 2]], window=w)
        op = build_kernel_operator(psi, 1, operator_truncation(psi, w, 16))
        rep = kernel_representation_check(target, psi, None, op)
        assert rep.overall
        assert named(rep, "kernel_distance").residual <= 1e-10


class TestRangeRepresentation:
    def test_replicated_evaluation_subspace(self):
        n = 16
        spec = replicated_spec_m1n2()
        mixed = mixed_invariant_subspace(spec, n)
        explicit = explicit_replicated_basis(1, 2, mixed.window)
        assert principal_angle_distance(mixed.basis, explicit) <= 1e-12
        r = RS3
        phi = block_symbol([
            [constant_symbol([[r]]), zero_symbol(1, 2)],
            [make_symbol(2, 1, {-1: [[r], [r]]}), zero_symbol(2, 2)],
        ])
        op = build_range_operator(phi, 1, operator_truncation(phi, mixed.window, n))
        rep = range_representation_check(mixed, phi, op)
        assert rep.overall
        assert named(rep, "span_distance").residual <= 1e-8

    def test_timotin_range_equals_kernel(self):
        spec = timotin_spec()
        n = 16
        psi = kernel_symbol_from_u(spec.u, 1, 1)
        phi = range_symbol_from_u(spec.u, 1, 1)
        w = default_window(spec, n)
        ker = kernel_subspace(build_kernel_operator(psi, 1, operator_truncation(psi, w, n)), w)
        rng = range_window_basis(build_range_operator(phi, 1, operator_truncation(phi, w, n)), w)
        assert principal_angle_distance(ker.basis, rng.basis) <= 1e-10

    @pytest.mark.parametrize("window", [0, 3, 9])
    def test_image_is_the_operator_window(self, monkeypatch, window):
        # the columns range_window_basis solves over are the operator's
        # exactness window, which is the truncation less the growth of the
        # analytic top row: the Hankel row is exact at the deepened truncation
        from conftest import random_symbol
        images = []

        def recording_image_within(m, keep):
            images.append(m)
            return image_within(m, keep)

        monkeypatch.setattr(subspaces, "image_within", recording_image_within)
        rng = np.random.default_rng(40 + window)
        for _ in range(20):
            de, df = int(rng.integers(1, 3)), int(rng.integers(1, 3))
            top = [random_symbol(rng, de, cols, 0, int(rng.integers(0, 4))) for cols in (de, df)]
            bottom = [random_symbol(rng, df, cols, int(rng.integers(-6, 1)), int(rng.integers(0, 3)))
                      for cols in (de, df)]
            phi = block_symbol([top, bottom])
            n = int(rng.integers(2, 12))
            v_op = build_range_operator(phi, de, operator_truncation(phi, window, n))
            range_window_basis(v_op, window)
            growth = max(0, top[0].kmax, top[1].kmax)
            columns = v_op.domain.window_indices(v_op.domain.parts[0].deg_hi - growth)
            np.testing.assert_array_equal(images[-1], v_op.dense(cols=columns))


def scalar_phi(a, b, c, d):
    """The square symbol [[a(z), b(z)], [c(zbar), d(zbar)]] of analytic scalars."""
    return block_symbol([[a, b], [c.conj_arg(), d.conj_arg()]])


class TestSplitting:
    def test_degree_separated_entries_do_not_split(self):
        a = constant_symbol([[RS2]])
        b = monomial_symbol(1, [[RS2]])
        c = monomial_symbol(1, [[RS2]])
        d = constant_symbol([[-RS2]])
        phi = scalar_phi(a, b, c, d)
        assert not splitting_check_scalar(phi) and ref_splitting_stack(phi)[0] == 2

    def test_zero_second_entry_splits(self):
        phi = scalar_phi(identity_symbol(1), zero_symbol(1, 1),
                         zero_symbol(1, 1), monomial_symbol(1, [[1]]))
        assert splitting_check_scalar(phi)
        np.testing.assert_allclose(np.abs(ref_splitting_stack(phi)[1]), [0, 1], atol=1e-12)

    def test_proportional_entries_split(self):
        a = monomial_symbol(1, [[RS2]])
        b = monomial_symbol(1, [[1j * RS2]])
        c = constant_symbol([[1j * RS2]])
        d = constant_symbol([[RS2]])
        phi = scalar_phi(a, b, c, d)
        assert splitting_check_scalar(phi)
        # witness proportional to (i, -1)
        witness = ref_splitting_stack(phi)[1]
        ratio = witness[0] / witness[1]
        np.testing.assert_allclose(ratio, -1j, atol=1e-10)

    def test_unimodular_rescaling_invariance(self):
        a = constant_symbol([[RS2]])
        b = monomial_symbol(1, [[RS2]])
        c = monomial_symbol(1, [[RS2]])
        d = constant_symbol([[-RS2]])
        base = scalar_phi(a, b, c, d)
        u = np.exp(0.7j)
        # rotating the top row or the bottom row keeps unitarity and the verdict
        rotated = scalar_phi(u * a, u * b, c, d)
        assert splitting_check_scalar(rotated) == splitting_check_scalar(base)
        assert ref_splitting_stack(rotated)[0] == ref_splitting_stack(base)[0]

    @pytest.mark.parametrize("t, rank", [(1e-9, 2), (1e-11, 1)])
    def test_fixed_cutoff_boundary(self, t, rank):
        # the top row's coefficient stack of U_t has singular values cos t and
        # sin t: sin t = 1e-9 is kept at the relative cutoff RANK_RTOL = 1e-10,
        # 1e-11 is dropped, and the verdict follows the rank
        from conftest import rotation_column_symbol
        phi = range_symbol_from_u(rotation_column_symbol(t), 1, 1)
        splitting = splitting_check_scalar(phi)
        ref_rank, witness = ref_splitting_stack(phi)
        assert ref_rank == rank and splitting == (rank <= 1)
        if splitting:
            assert np.linalg.norm(witness) == pytest.approx(1.0, abs=1e-15)
            np.testing.assert_allclose(np.abs(witness), [0, 1], atol=1e-12)
        else:
            assert witness is None

    def test_witness_ignores_degree_gaps(self):
        # a = 1/sqrt 2 and b = z^3/sqrt 2 leave two all-zero coefficient rows
        a = constant_symbol([[RS2]])
        b = monomial_symbol(3, [[RS2]])
        phi = scalar_phi(a, b, monomial_symbol(3, [[RS2]]), constant_symbol([[-RS2]]))
        assert not splitting_check_scalar(phi) and ref_splitting_stack(phi)[0] == 2

    def test_non_unitary_rejected(self):
        with pytest.raises(ValueError, match="unitary"):
            splitting_check_scalar(scalar_phi(identity_symbol(1), identity_symbol(1),
                                              zero_symbol(1, 1), zero_symbol(1, 1)))


class TestReplicatedFamily:
    def test_m2n3_is_type_ii_and_non_splitting(self):
        spec = replicated_spec_m2n3()
        assert twocond_check(spec).overall and not spec.omega.is_zero()
        mixed = mixed_invariant_subspace(spec, 16)
        explicit = explicit_replicated_basis(2, 3, mixed.window)
        assert principal_angle_distance(mixed.basis, explicit) <= 1e-12
        assert invariance_check(mixed) <= 1e-10
        # one dimension short of a fiber-aligned direct sum
        assert in_fiber_dims(mixed) == (mixed.dim - 1, 0)

    def test_fiber_aligned_sum_detected_as_splitting(self):
        w = 5
        basis = SubspaceBasis(analytic_ambient(1, 1, w),
                              hardy_block_basis(w, range(1, w + 1)), window=w)
        assert sum(in_fiber_dims(basis)) == basis.dim


class TestRoundtrip:
    @pytest.mark.parametrize("spec_factory", [
        timotin_spec,
        replicated_spec_m1n2,
        replicated_spec_m2n3,
        lambda: InvariantSubspaceSpec("type_i", 1, 1,
                                      u=make_symbol(2, 1, {0: [[1], [0]]})),
        lambda: InvariantSubspaceSpec("type_i", 1, 1,
                                      u=make_symbol(2, 1, {-1: [[1], [0]]})),
        lambda: InvariantSubspaceSpec("type_ii", 1, 1, omega=identity_symbol(1)),
    ])
    def test_forward_reverse(self, spec_factory):
        inv, rev = bilateral_roundtrip(spec_factory(), 12)
        assert inv <= 1e-10
        assert rev <= 1e-8


class TestRandomizedCorrespondence:
    """Monomial-mixture column isometries drive the full pipeline: the
    bilateral route, the kernel route, and (for square symbols) the
    range route must produce the same window subspace."""

    def test_mixture_specs_agree_across_routes(self):
        from conftest import inner_mixture
        rng = np.random.default_rng(33)
        n = 12
        for trial in range(6):
            dim_e = int(rng.integers(1, 3))
            dim_f = int(rng.integers(1, 3))
            unitary = trial % 2 == 0
            dim_e0 = dim_e + dim_f if unitary \
                else int(rng.integers(dim_e, dim_e + dim_f))
            u, _, _ = inner_mixture(rng, dim_e, dim_f, dim_e0)
            spec = InvariantSubspaceSpec("type_i", dim_e, dim_f, u=u)
            rep = twocond_check(spec)
            assert rep.overall, [c for c in rep.checks if not c.passed]
            mixed = mixed_invariant_subspace(spec, n)
            assert invariance_check(mixed) <= 1e-10
            psi = kernel_symbol_from_u(u, dim_e, dim_f)
            op = build_kernel_operator(psi, dim_e, operator_truncation(psi, mixed.window, n))
            ker = kernel_subspace(op, mixed.window)
            assert principal_angle_distance(mixed.basis, ker.basis) <= 1e-8
            if unitary:
                phi = range_symbol_from_u(u, dim_e, dim_f)
                op = build_range_operator(phi, dim_e, operator_truncation(phi, mixed.window, n))
                rng_basis = range_window_basis(op, mixed.window)
                assert principal_angle_distance(mixed.basis, rng_basis.basis) <= 1e-8
            assert bilateral_roundtrip(spec, n)[1] <= 1e-8


class TestHankelRankLink:
    def test_pole_count_sets_numerical_rank(self):
        for npoles in (2, 3, 4):
            poles = [1 / (j + 2) for j in range(npoles)]
            weights = [2.0 ** -j for j in range(npoles)]
            sym = make_cyclic_symbol(poles, weights, 2 * 12 + 1)
            h = hankel_op(sym, 12)
            sv = np.linalg.svd(h.dense(), compute_uv=False)
            rank = int(np.sum(sv > 1e-10 * sv[0]))
            assert rank == npoles


class TestEveryBasisIsOrthonormal:
    """SubspaceBasis trusts its maker: while the CLI runs, every basis built
    has orthonormal columns, and every construction site is reached."""

    SITES = {"bilateral_subspace", "mixed_from_bilateral", "kernel_subspace",
             "range_window_basis", "kernel_representation_check"}

    @staticmethod
    def scenarios():
        all_checks = ("twocond", "invariance", "kernel_rep", "range_rep", "splitting",
                      "partial_isometry", "intertwining")
        scalar_splitting = cli.demo_subspace_specs()["scalar-splitting"]
        timotin = cli.demo_subspace_specs()["timotin"]
        runs = [sc for make in cli.DEMOS.values() for sc in make()]
        runs.append(cli.parse_scenario(str(
            Path(__file__).resolve().parents[1] / "scenarios" / "sample-inner-column.json")))
        runs += [cli.Scenario(f"sweep-{name}", spec, all_checks, (8, 16),
                              expect={"splitting": splits})
                 for name, spec, splits in (("timotin", timotin, False),
                                            ("scalar-splitting", scalar_splitting, True))]
        runs += [cli.Scenario(variant, InvariantSubspaceSpec(variant, 1, 1, **{key: sym}),
                              checks, (8, 16))
                 for variant, key, sym, checks in (
                     ("range_rep", "phi", range_symbol_from_u(timotin_u(), 1, 1),
                      ("twocond", "invariance", "partial_isometry", "intertwining",
                       "nehari", "splitting")),
                     ("kernel_rep", "psi", kernel_symbol_from_u(timotin_u(), 1, 1),
                      ("twocond", "invariance", "partial_isometry", "intertwining")))]
        # generators of 2 U are not orthonormal: the column_space fallback
        runs.append(cli.Scenario("twice-timotin", InvariantSubspaceSpec(
            "type_i", 1, 1, u=2 * timotin_u()), ("invariance", "kernel_rep"), (8, 16)))
        return runs

    def test_every_basis_built_is_orthonormal(self, monkeypatch):
        built, fallbacks = [], []
        check_rows = SubspaceBasis.__post_init__
        orthonormalize = subspaces.column_space

        def recording_post_init(self):
            check_rows(self)
            # frame 1 is the dataclass __init__, frame 2 the code building the basis
            site = sys._getframe(2).f_code.co_name
            gram = self.basis.conj().T @ self.basis - np.eye(self.dim)
            built.append((site, float(np.max(np.abs(gram), initial=0.0))))

        def recording_column_space(m):
            fallbacks.append(sys._getframe(1).f_code.co_name)
            return orthonormalize(m)

        monkeypatch.setattr(SubspaceBasis, "__post_init__", recording_post_init)
        monkeypatch.setattr(subspaces, "column_space", recording_column_space)
        report = cli.run_batch(self.scenarios())
        bad = [(site, err) for site, err in built if err > 1e-10]
        assert not bad, f"bases with Gram error above 1e-10: {bad}"
        sites = {site for site, _ in built}
        assert self.SITES <= sites, f"construction sites not reached: {self.SITES - sites}"
        bilateral = sum(site == "bilateral_subspace" for site, _ in built)
        orthonormalized = fallbacks.count("bilateral_subspace")
        assert 0 < orthonormalized < bilateral, "both bilateral paths must run"
        assert report.exit_status == 0
