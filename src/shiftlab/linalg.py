"""Dense complex linear-algebra helpers shared across the package.

Every SVD of the package happens here, and its one ``eigvalsh``, in
``sparse_norm``.  The truncated operators pair banded Toeplitz blocks with
finite-rank Hankel blocks, so most of their rows or columns are entirely
zero.  Each helper factors only the core of m on the rows and columns that
hold a nonzero entry and embeds the result back.  That is exact: m and its
core have the same nonzero singular values, hence the same sigma_max and the
same rank at every relative cutoff, and every zero column of m is a kernel
direction.

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

The truncated operators are held as their lists of nonzero entries, the
``Triplets`` their builders emit, in ``row_major`` order.  Under 1 % of
their entries are nonzero on the benchmark inputs, so products and
differences of these lists (``sparse_product``, ``sparse_difference``)
cost O(nnz) where the dense arrays cost O(d^2) memory and up to O(d^3)
time.  A list goes back to a dense array only through ``dense_matrix``, or
``support_core``, the core the stripping helpers above factor.
"""

from typing import NamedTuple

import numpy as np

RANK_RTOL = 1e-10


def _nonzero_parts(m: np.ndarray) -> np.ndarray:
    """(m.real != 0, m.imag != 0) side by side: a rows x 2 cols mask whose
    columns 2j and 2j + 1 belong to column j of m.  It is taken on the float
    view of the complex data, which numpy compares several times faster than
    the complex array; an entry is != 0 exactly when one of its parts is
    (-0.0 is not).  A C-contiguous complex m is not copied."""
    return np.ascontiguousarray(m, dtype=complex).view(np.float64) != 0


def _support(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Indices of the rows and of the columns of m with an entry != 0."""
    if m.flags.f_contiguous and not m.flags.c_contiguous:
        # a column gather m[:, cols] is laid out column-major: read m.T uncopied
        cols, rows = _support(m.T)
        return rows, cols
    nonzero = _nonzero_parts(m)
    cols = nonzero.any(axis=0).reshape(m.shape[1], 2).any(axis=1)
    return np.flatnonzero(nonzero.any(axis=1)), np.flatnonzero(cols)


def singular_values(m: np.ndarray) -> np.ndarray:
    """Singular values of the nonzero core of m, descending.

    These are the nonzero singular values of m, possibly followed by
    zeros; the zeros that m's zero rows and columns add are left out, so
    an empty or all-zero matrix gives an empty array.
    """
    rows, cols = _support(m)
    if rows.size == 0:
        return np.zeros(0)
    if rows.size < m.shape[0] or cols.size < m.shape[1]:
        m = m[np.ix_(rows, cols)]
    return np.linalg.svd(m, compute_uv=False)


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
    nonzero = _nonzero_parts(b)
    # nonzero real and imaginary parts per column; int32 holds any row count
    # below MAX_DENSE_ENTRIES, and sums faster than count_nonzero's intp
    count = nonzero.sum(axis=0, dtype=np.int32).reshape(b.shape[1], 2)
    single = np.flatnonzero((count[:, 0] == 1) & (count[:, 1] == 0))
    at = nonzero[:, 2 * single].argmax(axis=0) if single.size else single
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


class Triplets(NamedTuple):
    """Entries of a matrix as parallel arrays: entry i is vals[i] at row
    rows[i], column cols[i]; positions not listed are zero."""

    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray


def _keys(t: Triplets, width: int) -> np.ndarray:
    """Row-major position of each entry in a matrix of ``width`` columns."""
    return t.rows.astype(np.int64) * width + t.cols


def _width(*lists: Triplets) -> int:
    return 1 + max((int(t.cols.max()) for t in lists if t.cols.size), default=0)


def row_major(t: Triplets) -> Triplets:
    """The entries of t, each position listed at most once, in the row-major
    order of np.nonzero.  The sort is stable, so a list made of sorted runs
    is merged in linear time."""
    order = np.argsort(_keys(t, _width(t)), kind="stable")
    return Triplets(*(x[order] for x in t))


def dense_matrix(t: Triplets, shape: tuple[int, int]) -> np.ndarray:
    """The matrix of the given shape that holds the entries t lists, each
    position at most once, and zeros elsewhere."""
    m = np.zeros(shape, dtype=t.vals.dtype)
    m[t.rows, t.cols] = t.vals
    return m


def _distinct(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """np.unique(keys, return_inverse=True) for keys >= 0, by the stable sort
    every triplet helper uses: the distinct keys, ascending, and the
    position of each key among them."""
    order = np.argsort(keys, kind="stable")
    new = np.diff(keys[order], prepend=-1) != 0
    at = np.empty(keys.size, dtype=np.intp)
    at[order] = np.cumsum(new) - 1
    return keys[order[new]], at


def sparse_product(a: Triplets, b: Triplets, limit: int) -> Triplets | None:
    """The product of the matrices a and b list, one entry per position with
    its terms summed; None when it takes more than ``limit`` scalar products.

    Gustavson's row-wise product (ACM TOMS 4(3), 1978), vectorised as
    expand, sort and compress: every entry (i, k) of a meets every entry
    (k, j) of b, found through b's row pointers, and the terms of one
    position (i, j) are summed.  The memory is a few arrays of one element
    per term, which ``limit`` bounds.
    """
    order = np.argsort(b.rows, kind="stable")
    height = 1 + max(int(a.cols.max(initial=-1)), int(b.rows.max(initial=-1)))
    pointer = np.concatenate([[0], np.cumsum(np.bincount(b.rows, minlength=height))])
    start, count = pointer[a.cols], pointer[a.cols + 1] - pointer[a.cols]
    terms = int(count.sum())
    if terms > limit:
        return None
    left = np.repeat(np.arange(a.rows.size), count)
    # term t of entry e of a takes entry start[e] + (t - first term of e) of b
    right = order[np.repeat(start + count - np.cumsum(count), count) + np.arange(terms)]
    width = _width(b)
    keys, at = _distinct(a.rows[left] * width + b.cols[right])
    vals = np.zeros(keys.size, dtype=np.result_type(a.vals, b.vals))
    np.add.at(vals, at, a.vals[left] * b.vals[right])
    rows, cols = np.divmod(keys, width)
    return Triplets(rows, cols, vals)


def sparse_difference(a: Triplets, b: Triplets) -> Triplets:
    """The nonzero entries of a - b, each position at most once in a and in
    b, in row-major order.  A position is computed as the dense arrays
    would compute it, (value in a or 0) - (value in b or 0), so equal
    entries cancel to an exact zero and are left out."""
    width = _width(a, b)
    keys, at = _distinct(np.concatenate([_keys(a, width), _keys(b, width)]))
    diff = np.zeros(keys.size, dtype=np.result_type(a.vals, b.vals))
    minus = np.zeros_like(diff)
    diff[at[:a.rows.size]] = a.vals
    minus[at[a.rows.size:]] = b.vals
    diff -= minus
    keep = np.flatnonzero(diff != 0)
    rows, cols = np.divmod(keys[keep], width)
    return Triplets(rows, cols, diff[keep])


def support_core(t: Triplets) -> np.ndarray:
    """The dense matrix of the entries t lists, on the rows and the columns
    that hold one: for nonzero entries, the core the stripping helpers
    factor."""
    (rows, at_row), (cols, at_col) = _distinct(t.rows), _distinct(t.cols)
    return dense_matrix(Triplets(at_row, at_col, t.vals), (rows.size, cols.size))


def short_gram(t: Triplets) -> tuple[Triplets, Triplets] | tuple[np.ndarray, np.ndarray]:
    """(W, W* W) for W the one of V, the matrix t lists, and V* with no more
    nonzero columns than rows, so W* W is the smaller Gram matrix.  Sparse
    while the product forms no more terms than V's nonzero core has entries,
    which keeps its memory to the core's; past that, W is the dense core."""
    rows, cols = (np.count_nonzero(np.bincount(x)) for x in (t.rows, t.cols))
    w = t if rows >= cols else Triplets(t.cols, t.rows, t.vals.conj())
    gram = sparse_product(Triplets(w.cols, w.rows, w.vals.conj()), w, rows * cols)
    if gram is not None:
        return w, gram
    a = support_core(w)
    return a, a.conj().T @ a


def sparse_norm(t: Triplets) -> float:
    """Spectral norm of the matrix t lists, 0.0 when empty: sqrt(lambda_max)
    of its ``short_gram``, accurate to order eps, as the SVD's norm is.

    The Gram matrix squares the entries, which would underflow to 0 near
    1e-200 and overflow near 1e200, so they are first scaled, exactly, by
    the power of two that brings the largest magnitude into [0.5, 1), and
    the root is scaled back.  A subnormal largest magnitude is scaled by
    2**1021 at most, which stays finite."""
    exp = max(int(np.frexp(np.max(np.abs(t.vals), initial=0.0))[1]), -1021)
    gram = short_gram(t._replace(vals=t.vals * np.ldexp(1.0, -exp)))[1]
    gram = support_core(gram) if isinstance(gram, Triplets) else gram
    return float(np.ldexp(np.sqrt(np.max(np.linalg.eigvalsh(gram), initial=0.0)), exp))
