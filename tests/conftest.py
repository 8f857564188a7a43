"""Shared builders for randomized test families, and the reference
computations the tests hold the pipeline against.

The references are written here, apart from ``src/``, so that a check
does not judge the pipeline with the pipeline's own code.
"""

import numpy as np

from shiftlab.linalg import image_within, nullspace, principal_angle_distance, spectral_norm
from shiftlab.operators import build_range_operator, nehari_lower_bound, shift_rows
from shiftlab.subspaces import bilateral_subspace, invariance_check, mixed_from_bilateral
from shiftlab.symbols import (
    LaurentSymbol,
    block_symbol,
    make_symbol,
    monomial_symbol,
    zero_symbol,
)


def random_symbol(rng, rows, cols, kmin, kmax) -> LaurentSymbol:
    return make_symbol(rows, cols, {
        k: rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
        for k in range(kmin, kmax + 1)
    })


def haar_unitary(rng, n) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def inner_mixture(rng, dim_e, dim_f, dim_e0, max_exp=2):
    """Isometry-valued column symbol built from diagonal inner monomials
    mixed by constant unitaries.

    Returns (u, a_prime, c_sym): u = [z a_prime(zbar); c_sym] stacked, with
    a_prime analytic and co-isometry-valued (a a* = identity on the first
    fiber) and c_sym analytic.  dim_e0 = dim_e + dim_f makes u
    unitary-valued and c_sym co-isometric onto the second fiber; smaller
    dim_e0 (at least dim_e) gives a strict isometry.
    """
    if not dim_e <= dim_e0 <= dim_e + dim_f:
        raise ValueError("dim_e0 must sit between dim_e and dim_e + dim_f")
    w_e = haar_unitary(rng, dim_e)
    w_f = haar_unitary(rng, dim_f)
    g = haar_unitary(rng, dim_e0)
    a_exp = rng.integers(0, max_exp + 1, dim_e)
    c_exp = rng.integers(0, max_exp + 1, dim_e0 - dim_e)
    a_prime = None
    for i in range(dim_e):
        term = monomial_symbol(int(a_exp[i]), np.outer(w_e[:, i], g[i, :]))
        a_prime = term if a_prime is None else a_prime + term
    c_sym = None
    for j in range(dim_e0 - dim_e):
        term = monomial_symbol(int(c_exp[j]), np.outer(w_f[:, j], g[dim_e + j, :]))
        c_sym = term if c_sym is None else c_sym + term
    if c_sym is None:
        c_sym = zero_symbol(dim_f, dim_e0)
    top = monomial_symbol(1, np.eye(dim_e)) @ a_prime.conj_arg()
    u = block_symbol([[top], [c_sym]])
    return u, a_prime, c_sym


def rotation_column_symbol(t) -> LaurentSymbol:
    """U_t = [z cos t, -sin t; z sin t, cos t]: unitary-valued and admissible
    for every t.  The top row of its range symbol has a coefficient stack
    with singular values cos t and sin t, so the subspace splits only at
    t = 0, and sin t is the margin of the splitting rank decision."""
    c, s = np.cos(t), np.sin(t)
    return make_symbol(2, 2, {0: [[0, -s], [0, c]], 1: [[c, 0], [s, 0]]})


def swept_lower_bounds(phi, dim_e, n_list):
    """nehari's (n, lower bound) pairs over a truncation sweep, each from the
    range operator of phi at n, as ``cli.run`` collects them."""
    return [(n, nehari_lower_bound(build_range_operator(phi, dim_e, n))) for n in n_list]


def coeff_distance(s1, s2) -> float:
    """Largest coefficient-wise difference max_k |S1_k - S2_k|."""
    return (s1 - s2).max_abs_coeff()


def ref_intertwining_residual(op, kind) -> float:
    """The intertwining residual from dense shifted copies of the whole
    operator: || X V - V Y || (range) or || W X - Y* W || (kernel) on the
    window columns, as ``operators.intertwining_residual`` defines it."""
    v, space = op.entries, op.domain
    n = space.parts[0].deg_hi
    # a product V Y with a shift Y on the right is (Y^T V^T)^T, and the
    # transpose of a forward shift is the backward one
    if kind == "range":
        resid = (shift_rows(v, space, ("forward", "backward"))
                 - shift_rows(v.T, space, ("backward", "backward")).T)
        w = min(op.exact_window, n) - 1
    else:
        resid = (shift_rows(v.T, space, ("backward", "forward")).T
                 - shift_rows(v, space, ("backward", "backward")))
        w = min(op.exact_window, n - 1)
    return spectral_norm(resid[:, op.domain.window_indices(w)])


def ref_penrose_norm(m) -> float:
    """||m m* m - m||_F from dense products on the nonzero core of m, taken
    tall (a wide core is conjugate-transposed, which keeps the norm)."""
    nonzero = m != 0
    a = m[np.ix_(nonzero.any(axis=1), nonzero.any(axis=0))]
    if a.shape[0] < a.shape[1]:
        a = a.conj().T
    gram = a.conj().T @ a
    gram[np.diag_indices_from(gram)] -= 1.0
    return float(np.linalg.norm(a @ gram))


def shift_matrix(space, kind) -> np.ndarray:
    """Dense truncated multiplication by z ("forward") on one truncated
    space, or its adjoint ("backward"): the reference for shift_rows."""
    fwd = np.eye(space.dim, k=-space.fiber_dim, dtype=complex)
    return fwd if kind == "forward" else fwd.conj().T


def flip_first_part(m, ambient) -> np.ndarray:
    """Rows of m with the coefficient flip k -> -k applied to the first
    (two-sided) part of the ambient, degree by degree."""
    part, out = ambient.parts[0], m.copy()
    for k in range(part.deg_lo, part.deg_hi + 1):
        out[part.degree_indices(k, k)] = m[part.degree_indices(-k, -k)]
    return out


def bilateral_roundtrip(spec, n) -> tuple[float, float]:
    """Forward and reverse pass through the bilateral correspondence.

    Forward: the carve-out of the bilateral basis and its invariance
    residual.  Reverse: lift the carve-out into the bilateral ambient, flip
    it back, complement it on a window shrunk once more by the symbol band,
    and compare with the bilateral basis restricted to that window.
    Returns (invariance residual, reverse distance).
    """
    b3 = bilateral_subspace(spec, n)
    mixed = mixed_from_bilateral(b3)
    w3 = b3.window - max(s.bandwidth for s in spec.bilateral_symbols())
    assert w3 >= 0, "truncation too small for a reverse window"
    amb = b3.ambient
    lifted = np.zeros((amb.dim, mixed.dim), dtype=complex)
    lifted[amb.degree_indices(0, b3.window)] = mixed.basis
    keep = amb.window_indices(w3)
    reverse = nullspace(flip_first_part(lifted, amb).conj().T[:, keep])
    distance = principal_angle_distance(reverse, image_within(b3.basis, keep))
    return invariance_check(mixed), distance


def in_fiber_dims(basis) -> tuple[int, int]:
    """Dimensions of the parts of the subspace lying inside the first fiber
    block and inside the second.  The subspace is a fiber-aligned direct sum
    exactly when they add up to its dimension; the deficit is its split
    defect."""
    amb = basis.ambient
    first, second = (basis.basis[amb.part_slice(i)] for i in (0, 1))
    return nullspace(second).shape[1], nullspace(first).shape[1]
