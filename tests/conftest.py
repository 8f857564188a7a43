"""Shared builders for randomized test families, and the reference
computations the tests hold the pipeline against.

The references are written here, apart from ``src/``, so that a check
does not judge the pipeline with the pipeline's own code.
"""

import numpy as np

from shiftlab.linalg import (
    RANK_RTOL,
    Triplets,
    image_within,
    nullspace,
    principal_angle_distance,
    spectral_norm,
)
from shiftlab.operators import build_range_operator, nehari_lower_bound, shift_rows
from shiftlab.subspaces import bilateral_subspace, invariance_check, mixed_from_bilateral
from shiftlab.symbols import (
    LaurentSymbol,
    block_symbol,
    make_symbol,
    monomial_symbol,
    split_square_blocks,
    zero_symbol,
)


def random_symbol(rng, rows, cols, kmin, kmax) -> LaurentSymbol:
    return make_symbol(rows, cols, {
        k: rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
        for k in range(kmin, kmax + 1)
    })


def signed_zero_matrix(rng, rows, cols):
    """Entries drawn from 0, -0.0, complex(-0.0, -0.0), real-only,
    imaginary-only, both parts, and exact 1, -1 and 1j."""
    values = np.array([0, -0.0, complex(-0.0, -0.0), complex(0.0, -0.0), 1, -1, 1j,
                       -1j, 2.5, 0.75j, 1 + 1j, complex(-0.0, 3.0), complex(3.0, -0.0)])
    weights = np.where(np.arange(values.size) < 4, 6.0, 1.0)
    return rng.choice(values, size=(rows, cols), p=weights / weights.sum())


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


def coeff(sym, k) -> np.ndarray:
    """The coefficient of z**k of sym, a zero matrix outside its stored band."""
    if sym.kmin <= k <= sym.kmax:
        return sym.coeffs[k - sym.kmin]
    return np.zeros(sym.shape, dtype=complex)


def named(report, name):
    """The check of a VerificationReport that is called ``name``."""
    return {c.name: c for c in report.checks}[name]


def ref_splitting_stack(phi) -> tuple[int, np.ndarray | None]:
    """The numerical rank of the top row's coefficient stack of the square
    scalar symbol phi, from a dense SVD at RANK_RTOL, and, when it is at
    most 1, a unit witness w of the dependence of the two entries: the
    stack maps w to (nearly) zero."""
    _, sv, vh = np.linalg.svd(phi.coeffs[:, 0, :])
    rank = int(np.sum(sv > RANK_RTOL * sv[0]))
    return rank, (vh[-1].conj() if rank <= 1 else None)


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
    v, space = op.dense(), op.domain
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


def part_rows(space, i) -> slice:
    """The flat indices of part i of a product space, as a slice."""
    off = space.offsets()[i]
    return slice(off, off + space.parts[i].dim)


def in_fiber_dims(basis) -> tuple[int, int]:
    """Dimensions of the parts of the subspace lying inside the first fiber
    block and inside the second.  The subspace is a fiber-aligned direct sum
    exactly when they add up to its dimension; the deficit is its split
    defect."""
    amb = basis.ambient
    first, second = (basis.basis[part_rows(amb, i)] for i in (0, 1))
    return nullspace(second).shape[1], nullspace(first).shape[1]


def nonzero_triplets(m) -> Triplets:
    """The entries of m that are != 0, in the row-major order of
    np.nonzero(m): -0.0 and complex(-0.0, -0.0) are left out, as m != 0
    leaves them out.  The reference for the operator builders' entries."""
    rows, cols = np.nonzero(m)
    return Triplets(rows, cols, m[rows, cols])


def ref_multiplication_matrix(sym, in_lo, in_hi, out_lo, out_hi) -> np.ndarray:
    """Dense matrix of h |-> S h from input degrees [in_lo, in_hi] to output
    degrees [out_lo, out_hi], written coefficient block by coefficient
    block: degree block (j, i) is the coefficient of z**(j-i)."""
    r, c = sym.rows, sym.cols
    n_out, n_in = out_hi - out_lo + 1, in_hi - in_lo + 1
    ent = np.zeros((n_out, r, n_in, c), dtype=complex)
    for k in range(sym.kmin, sym.kmax + 1):
        blk = coeff(sym, k)
        if not np.any(blk):
            continue
        i = np.arange(max(in_lo, out_lo - k), min(in_hi, out_hi - k) + 1)
        ent[i + k - out_lo, :, i - in_lo, :] = blk
    return ent.reshape(n_out * r, n_in * c)


def ref_toeplitz(sym, n) -> np.ndarray:
    """Dense Toeplitz truncation on degree-n Hardy windows."""
    return ref_multiplication_matrix(sym, 0, n, 0, n)


def ref_hankel(sym, n) -> np.ndarray:
    """Dense Hankel truncation: output degrees -n-1 .. -1 of S h, with the
    degree blocks reversed by J (z**k to z**(-k-1))."""
    m = ref_multiplication_matrix(sym, 0, n, -n - 1, -1)
    return m.reshape(n + 1, sym.rows, -1)[::-1].reshape(m.shape)


def ref_range_operator(phi, dim_e, n) -> np.ndarray:
    """Dense [T_A, T_B; H_C, H_D] of phi = [A, B; C, D], stacked block by block."""
    a, b, c, d = split_square_blocks(phi, dim_e)
    return np.block([[ref_toeplitz(a, n), ref_toeplitz(b, n)],
                     [ref_hankel(c, n), ref_hankel(d, n)]])


def ref_kernel_operator(psi, dim_e, n) -> np.ndarray:
    """Dense [H_C*, T_A*; H_D*, T_B*] of psi = [C, D; A, B], stacked block by
    block."""
    c, d, a, b = split_square_blocks(psi, dim_e)
    return np.block([[ref_hankel(c.entry_conj(), n), ref_toeplitz(a.adjoint(), n)],
                     [ref_hankel(d.entry_conj(), n), ref_toeplitz(b.adjoint(), n)]])
