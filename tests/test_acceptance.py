"""Acceptance gate: every criterion prints one pass/fail line.

Run with ``pytest -v tests/test_acceptance.py`` (verbose gives the
per-criterion lines; ``-s`` additionally shows the printed summaries).
"""

import numpy as np

from conftest import (
    basis_from_columns,
    bilateral_roundtrip,
    coeff,
    coeff_distance,
    dense_column_space,
    haar_unitary,
    hankel_op,
    in_fiber_dims,
    inner_mixture,
    library_specs,
    named,
    random_symbol,
    shift_matrix,
    swept_lower_bounds,
)
from shiftlab.cli import (
    demo,
    demo_subspace_specs,
    replicated_range_symbol,
    timotin_u,
)
from shiftlab.linalg import principal_angle_distance, spectral_norm
from shiftlab.operators import (
    build_kernel_operator,
    build_range_operator,
    intertwining_residual,
    nehari_bounds,
    svd_analysis,
    toeplitz_op,
    TruncatedSpace,
)
from shiftlab.subspaces import (
    InvariantSubspaceSpec,
    analytic_ambient,
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
    splitting_check_scalar,
)
from shiftlab.symbols import (
    block_symbol,
    constant_symbol,
    make_cyclic_symbol,
    make_symbol,
    symbol_mul,
    zero_symbol,
)


def report(num: int, passed: bool, message: str) -> None:
    print(f"criterion {num}: {'PASS' if passed else 'FAIL'} - {message}")
    assert passed, f"criterion {num}: {message}"


def random_gamma_blocks(rng):
    dim_e = int(rng.integers(1, 4))
    dim_f = int(rng.integers(1, 4))
    a = random_symbol(rng, dim_e, dim_e, 0, 3)
    b = random_symbol(rng, dim_e, dim_f, 0, 3)
    c = random_symbol(rng, dim_f, dim_e, -3, 3)
    d = random_symbol(rng, dim_f, dim_f, -3, 3)
    return dim_e, dim_f, a, b, c, d


def random_lambda_blocks(rng):
    dim_e = int(rng.integers(1, 4))
    dim_f = int(rng.integers(1, 4))
    c = random_symbol(rng, dim_e, dim_e, -3, 3)
    d = random_symbol(rng, dim_e, dim_f, -3, 3)
    a = random_symbol(rng, dim_f, dim_e, 0, 3)
    b = random_symbol(rng, dim_f, dim_f, 0, 3)
    return dim_e, dim_f, c, d, a, b


def binary_deviation(matrix) -> float:
    if matrix.size == 0:
        return 0.0
    sv = np.linalg.svd(matrix, compute_uv=False)
    return float(max(min(s, abs(s - 1.0)) for s in sv))


def explicit_replicated_basis(dim_e, dim_f, w):
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
    return dense_column_space(np.column_stack(cols))


def test_criterion_1_intertwining_identities():
    rng = np.random.default_rng(2024)
    n = 16
    worst = 0.0
    for _ in range(50):
        dim_e, _, a, b, c, d = random_gamma_blocks(rng)
        v = build_range_operator(block_symbol([[a, b], [c, d]]), dim_e, n)
        worst = max(worst, intertwining_residual(v, "range"))
        dim_e, _, cc, dd, aa, bb = random_lambda_blocks(rng)
        w = build_kernel_operator(block_symbol([[cc, dd], [aa, bb]]), dim_e, n)
        worst = max(worst, intertwining_residual(w, "kernel"))
    report(1, worst <= 1e-10,
           f"50 randomized block symbols, worst intertwining residual {worst:.3e} "
           f"<= 1e-10 at n = {n}")


def test_criterion_2_toeplitz_hankel_structure():
    rng = np.random.default_rng(2025)
    n = 16
    worst_toe = worst_han = worst_adj = 0.0
    for _ in range(50):
        rows = int(rng.integers(1, 4))
        cols = int(rng.integers(1, 4))
        s = random_symbol(rng, rows, cols, -3, 3)
        t = toeplitz_op(s, n)
        fwd = shift_matrix(TruncatedSpace.hardy(cols, n), "forward")
        bwd = shift_matrix(TruncatedSpace.hardy(rows, n), "backward")
        resid = bwd @ t.dense() @ fwd - t.dense()
        idx = t.domain.window_indices(t.exact_window - 1)
        worst_toe = max(worst_toe, spectral_norm(resid[:, idx]))
        h = hankel_op(s, n)
        resid = h.dense() @ fwd - bwd @ h.dense()
        idx = h.domain.window_indices(n - 1)
        worst_han = max(worst_han, spectral_norm(resid[:, idx]))
        adj_gap = np.max(np.abs(h.dense().conj().T
                                - hankel_op(s.conj_arg().adjoint(), n).dense()))
        worst_adj = max(worst_adj, float(adj_gap))
    ok = worst_toe <= 1e-12 and worst_han <= 1e-12 and worst_adj <= 1e-12
    report(2, ok,
           f"shift compressions: toeplitz {worst_toe:.3e}, hankel {worst_han:.3e}, "
           f"adjoint identity {worst_adj:.3e}, all <= 1e-12")


def test_criterion_3_partial_isometry_suite():
    rng = np.random.default_rng(2026)
    tol = 1e-8
    worst_w = worst_v = worst_sum = 0.0
    for draw in range(20):
        dim_e = int(rng.integers(1, 4))
        dim_f = int(rng.integers(1, 4))
        unitary = draw % 2 == 0
        dim_e0 = dim_e + dim_f if unitary else int(rng.integers(dim_e, dim_e + dim_f))
        u, a_prime, c_sym = inner_mixture(rng, dim_e, dim_f, dim_e0)
        psi = kernel_symbol_from_u(u, dim_e, dim_f)
        phi = psi.conj_arg()
        for n in (8, 16, 32):
            w_op = build_kernel_operator(psi, dim_e, n)
            worst_w = max(worst_w, binary_deviation(
                w_op.dense(cols=w_op.domain.window_indices(w_op.exact_window))))
            if dim_e0 == dim_e + dim_f:
                v_op = build_range_operator(phi, dim_e, n)
                rows = v_op.codomain.window_indices(v_op.exact_window)
                worst_v = max(worst_v, binary_deviation(v_op.dense(rows=rows)))
                w = min(w_op.exact_window, v_op.exact_window)
                idx = w_op.domain.window_indices(w)
                total = (w_op.dense().conj().T @ w_op.dense()
                         + v_op.dense() @ v_op.dense().conj().T)
                gap = np.max(np.abs(total[np.ix_(idx, idx)] - np.eye(idx.size)))
                worst_sum = max(worst_sum, float(gap))
    ok = worst_w <= tol and worst_v <= tol and worst_sum <= tol
    report(3, ok,
           f"20 mixtures at n in (8, 16, 32): kernel-op singular deviation "
           f"{worst_w:.3e}, range-op {worst_v:.3e}, completeness gap "
           f"{worst_sum:.3e}, all <= 1e-8")


def test_criterion_4_bilateral_round_trip():
    specs = library_specs()
    assert len(specs) >= 6
    n = 16
    worst_inv = worst_rev = 0.0
    for name, spec in sorted(specs.items()):
        inv, rev = bilateral_roundtrip(spec, n)
        worst_inv = max(worst_inv, inv)
        worst_rev = max(worst_rev, rev)
    ok = worst_inv <= 1e-10 and worst_rev <= 1e-8
    report(4, ok,
           f"{len(specs)} library specs at n = {n}: invariance {worst_inv:.3e} "
           f"<= 1e-10, reverse projection {worst_rev:.3e} <= 1e-8")


def test_criterion_5_scalar_nonsplitting_reproduction():
    n = 16
    u = timotin_u()
    spec = InvariantSubspaceSpec("type_i", 1, 1, u=u)
    w = default_window(spec, n)
    mixed = mixed_invariant_subspace(spec, n)
    psi = kernel_symbol_from_u(u, 1, 1)
    phi = range_symbol_from_u(u, 1, 1)
    ker = kernel_subspace(build_kernel_operator(psi, 1, operator_truncation(psi, w, n)), w)
    rng_basis = range_window_basis(build_range_operator(phi, 1, operator_truncation(phi, w, n)), w)
    d1 = principal_angle_distance(mixed.basis, ker.basis)
    d2 = principal_angle_distance(mixed.basis, rng_basis.basis)
    d3 = principal_angle_distance(ker.basis, rng_basis.basis)
    splitting = splitting_check_scalar(phi)
    v_flag = svd_analysis(build_range_operator(phi, 1, n))
    ok = max(d1, d2, d3) <= 1e-8 and not splitting and v_flag
    report(5, ok,
           f"triple agreement {max(d1, d2, d3):.3e} <= 1e-8, splitting flag "
           f"{splitting} (want False), window partial isometry {v_flag}")


def test_criterion_6_replicated_evaluation_examples():
    n = 16
    # one copy of f, two copies of f(0): range representation vs the
    # explicit subspace
    spec12 = demo_subspace_specs()["replicated-1-2"]
    mixed = mixed_invariant_subspace(spec12, n)
    w = mixed.window
    explicit = basis_from_columns(analytic_ambient(1, 2, w),
                                  explicit_replicated_basis(1, 2, w), w)
    phi = replicated_range_symbol(1, 2)
    op = build_range_operator(phi, 1, operator_truncation(phi, w, n))
    rep = range_representation_check(explicit, phi, op)
    dist = named(rep, "span_distance").residual
    # two copies of f, three of f(0): invariance plus the dimension test
    explicit23 = basis_from_columns(analytic_ambient(2, 3, w),
                                    explicit_replicated_basis(2, 3, w), w)
    inv = invariance_check(explicit23)
    defect = explicit23.dim - sum(in_fiber_dims(explicit23))
    ok = rep.overall and dist <= 1e-8 and inv <= 1e-10 and defect > 0
    report(6, ok,
           f"range distance {dist:.3e} <= 1e-8; second variant invariance "
           f"{inv:.3e} <= 1e-10 with split defect {defect} > 0")


def test_criterion_7_norm_bracket():
    z11 = zero_symbol(1, 1)
    d = make_symbol(1, 1, {-1: [1]})
    phi = block_symbol([[z11, z11], [z11, d]])
    lower_gap = max(abs(lo - 1.0) for lo in swept_lower_bounds(phi, 1, [2, 4, 8]))
    upper_gap = abs(nehari_bounds(phi, 1, [(z11, zero_symbol(1, 1))])[0] - 1.0)
    d2 = make_symbol(1, 1, {-1: [2], 1: [1]})
    cand = (z11, make_symbol(1, 1, {1: [1]}))
    phi2 = block_symbol([[z11, z11], [z11, d2]])
    low2 = abs(swept_lower_bounds(phi2, 1, [4, 8, 16])[-1] - 2.0)
    up2 = abs(nehari_bounds(phi2, 1, [cand])[0] - 2.0)
    ok = (lower_gap <= 1e-10 and upper_gap <= 1e-10
          and low2 <= 1e-8 and up2 <= 1e-8)
    report(7, ok,
           f"rank-one distance bracket gaps {lower_gap:.3e}/{upper_gap:.3e} "
           f"<= 1e-10; mixed-band bracket gaps {low2:.3e}/{up2:.3e} <= 1e-8")


def test_criterion_8_finite_rank_kernel_demo():
    poles = [1 / 2, 1 / 3, 1 / 4, 1 / 5]
    weights = [4.0 ** -j for j in range(1, 5)]
    n = 16
    a = make_cyclic_symbol(poles, weights, 2 * n + 1)
    h = hankel_op(a, n)
    sv = np.linalg.svd(h.dense(), compute_uv=False)
    rank = int(np.sum(sv > 1e-8 * sv[0]))
    theta_f = make_symbol(1, 1, {2: [1]})
    psi = block_symbol([[a, zero_symbol(1, 1)], [zero_symbol(1, 1), theta_f]])
    w = len(poles) - 1
    # zero (+) the model space of z^2 in the window: span{1, z} in the second fiber
    target = basis_from_columns(analytic_ambient(1, 1, w),
                                np.eye(2 * (w + 1))[:, [w + 1, w + 2]], w)
    op = build_kernel_operator(psi, 1, operator_truncation(psi, w, n))
    rep = kernel_representation_check(target, None, op)
    dist = named(rep, "kernel_distance").residual
    ok = rank == 4 and rep.overall and dist <= 1e-8
    report(8, ok,
           f"four-pole flipped-coefficient matrix has numerical rank {rank} "
           f"(want 4) at n = {n}; splitting kernel representation distance "
           f"{dist:.3e} <= 1e-8")


def test_criterion_9_constant_unitary_recovery():
    rng = np.random.default_rng(2027)
    u = timotin_u()
    worst = 0.0
    for _ in range(20):
        g = haar_unitary(rng, 2)
        planted = symbol_mul(u, constant_symbol(g))
        # u is isometry-valued, so the mean of u^H planted over the circle is W
        w = coeff(u.adjoint() @ planted, 0)
        assert np.max(np.abs(w.conj().T @ w - np.eye(2))) <= 1e-10
        assert coeff_distance(planted, symbol_mul(u, constant_symbol(w))) <= 1e-10
        worst = max(worst, float(np.max(np.abs(w - g))))
    report(9, worst <= 1e-10,
           f"20 planted rotations recovered, worst deviation {worst:.3e} <= 1e-10")


def test_all_demos_pass():
    for name in ("timotin-nonsplitting", "splitting-scalar", "f-f0-example",
                 "cyclic-kernel", "type2-corner"):
        rep = demo(name)
        assert rep.exit_status == 0, f"demo {name} failed:\n{rep.text()}"
