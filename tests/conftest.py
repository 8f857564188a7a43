"""Shared builders for randomized test families."""

import numpy as np

from shiftlab.operators import build_range_operator, nehari_lower_bound
from shiftlab.symbols import LaurentSymbol, block_symbol, make_symbol, monomial_symbol


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
        from shiftlab.symbols import zero_symbol
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
