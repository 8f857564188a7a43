"""Dense complex linear-algebra helpers shared across the package.

Everything here routes through numpy's SVD so that rank decisions,
nullspaces, column spaces and principal-angle distances are computed
the same way in every module.
"""

import numpy as np

DEFAULT_NULL_RTOL = 1e-10


def spectral_norm(m: np.ndarray) -> float:
    """Largest singular value; exactly 0.0, with no SVD, for an empty or
    all-zero matrix (residuals built from index shifts are often exact)."""
    if not m.any():
        return 0.0
    return float(np.linalg.norm(m, 2))


def nullspace(m: np.ndarray, rtol: float = DEFAULT_NULL_RTOL) -> np.ndarray:
    """Orthonormal basis (columns) of the kernel of m."""
    if m.shape[0] == 0 or m.size == 0:
        return np.eye(m.shape[1], dtype=complex)
    u, sv, vh = np.linalg.svd(m, full_matrices=True)
    cutoff = rtol * sv[0] if sv.size and sv[0] > 0 else rtol
    rank = int(np.sum(sv > cutoff))
    return vh[rank:].conj().T


def column_space(m: np.ndarray, rtol: float = DEFAULT_NULL_RTOL) -> np.ndarray:
    """Orthonormal basis (columns) of the column space of m."""
    if m.size == 0 or m.shape[1] == 0:
        return np.zeros((m.shape[0], 0), dtype=complex)
    u, sv, _ = np.linalg.svd(m, full_matrices=False)
    if sv.size == 0 or sv[0] == 0.0:
        return np.zeros((m.shape[0], 0), dtype=complex)
    rank = int(np.sum(sv > rtol * sv[0]))
    return u[:, :rank]


def image_within(m: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the images m x that vanish outside the rows keep,
    restricted to those rows.

    Solving for the inputs, rather than cutting them, keeps images whose
    content outside the rows cancels.
    """
    outside = np.delete(np.arange(m.shape[0]), keep)
    return column_space(m[keep] @ nullspace(m[outside]))


def intersection(b1: np.ndarray, b2: np.ndarray,
                 rtol: float = DEFAULT_NULL_RTOL) -> np.ndarray:
    """Orthonormal basis of the intersection of two column spans.

    Works on the stacked complement projectors, so no alternating
    iteration is involved: v lies in both spans iff (I - P_i) v = 0.
    """
    d = b1.shape[0]
    if b2.shape[0] != d:
        raise ValueError("ambient dimensions differ")
    eye = np.eye(d, dtype=complex)
    stacked = np.vstack([
        eye - b1 @ b1.conj().T,
        eye - b2 @ b2.conj().T,
    ])
    return nullspace(stacked, rtol)


def principal_angle_distance(b1: np.ndarray, b2: np.ndarray) -> float:
    """Sine of the largest principal angle; 1.0 when dimensions differ.

    Both arguments must have orthonormal columns over the same ambient.
    Computed through the projector residual (I - P1) B2 rather than the
    cosine Gram matrix: cosines lose small angles below sqrt(eps), the
    sine form measures coinciding subspaces at machine precision.  For
    equal dimensions ||(I - P1) B2|| = ||(I - P2) B1|| in exact arithmetic
    (Stewart & Sun, Matrix Perturbation Theory, 1990), so one side is enough.
    """
    if b1.shape[0] != b2.shape[0]:
        raise ValueError("ambient dimensions differ")
    if b1.shape[1] != b2.shape[1]:
        return 1.0
    if b1.shape[1] == 0:
        return 0.0
    r12 = b2 - b1 @ (b1.conj().T @ b2)
    return min(1.0, spectral_norm(r12))
