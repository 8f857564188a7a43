"""Dense complex linear-algebra helpers shared across the package.

Every SVD of the package happens here, and its one ``eigvalsh``, in
``sparse_norm``.  The truncated operators pair banded Toeplitz blocks with
finite-rank Hankel blocks, so most of their rows or columns are entirely
zero, and what is left often falls apart further.  Take the rows and the
columns of m that hold a nonzero entry as the nodes of a graph and its
nonzero entries as the edges: after a permutation of its rows and of its
columns, m is block diagonal up to zero rows and columns, one block per
connected component (Pothen & Fan, ACM TOMS 16, 1990).  Its nonzero
singular values are then those of its blocks together, and its kernel and
column space the direct sums of theirs, every zero column of m a kernel
direction besides, so factoring each block on its own is exact.  On the
scalar-fiber benchmark inputs a 512 x 256 core falls into 256 blocks of
2 x 1.

Every helper takes one path.  ``_blocks`` labels the components by hooking
and pointer jumping (a core with no zero entry is one block without
labelling); the blocks of one shape are gathered from m into one stack and
go through one stacked SVD, and the vectors of every block are put back in
one scatter.  A core of one component is a stack of one block.  The blocks
share one cutoff: ``numerical_rank`` counts their merged singular values at
RANK_RTOL times sigma_max of the whole of m, so a block whose values clear
only its own cutoff gives them to the kernel.

A tall block reaches ``nullspace``, and a wide one ``column_space``, as the
triangle R of its QR factorisation (of its conjugate transpose when wide),
with R's exactly-zero rows stripped again (Chan's R-SVD, ACM TOMS 8(1),
1982); the blocks of one shape take one stacked QR.  R keeps the singular
values and the short side's singular vectors, so no SVD forms the long
side's vectors only to discard them.  Unlike the split, this step is not
exact but backward stable, as the direct SVD is: R's singular values agree
with the block's up to rounding, so no rank decision on the demos, the
sample scenario or the seed-0 benchmark inputs moves (the closest keeps a
singular value 69x above its cutoff).

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
``support_core``, the core on the rows and columns that hold an entry.
"""

from typing import NamedTuple

import numpy as np

RANK_RTOL = 1e-10


class Triplets(NamedTuple):
    """Entries of a matrix as parallel arrays: entry i is vals[i] at row
    rows[i], column cols[i]; positions not listed are zero."""

    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray


def _nonzero_parts(m: np.ndarray) -> np.ndarray:
    """(m.real != 0, m.imag != 0) side by side: a rows x 2 cols mask whose
    columns 2j and 2j + 1 belong to column j of m.  It is taken on the float
    view of the complex data, which numpy compares several times faster than
    the complex array; an entry is != 0 exactly when one of its parts is
    (-0.0 is not).  A C-contiguous complex m is not copied."""
    return np.ascontiguousarray(m, dtype=complex).view(np.float64) != 0


def _components(a: np.ndarray, b: np.ndarray, n: int) -> np.ndarray:
    """The smallest node of the connected component of each of n nodes,
    joined by the edges (a[k], b[k]).  Each round hooks the larger root of
    every edge between two trees onto the smallest root it meets, then
    jumps every pointer to its root (Shiloach & Vishkin, J. Algorithms 3,
    1982): O(len(a)) a round, and an edge inside one tree is dropped."""
    label = np.arange(n)
    while True:
        la, lb = label[a], label[b]
        apart = la != lb
        if not apart.any():
            return label
        a, b, la, lb = a[apart], b[apart], la[apart], lb[apart]
        np.minimum.at(label, np.maximum(la, lb), np.minimum(la, lb))
        while True:
            up = label[label]
            if np.array_equal(up, label):
                break
            label = up


def _blocks(m: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """The connected blocks of m, as the (g, p) row and (g, q) column
    indices of the g blocks of each shape (p, q), ascending within a block.
    The rows and the columns of m that hold an entry != 0 are the nodes, the
    entries the edges; a zero m has no block, and a core with no zero entry
    is one block without labelling."""
    r, c = m.shape
    # the two part flags of an entry, read as one 16-bit word, are 0 exactly
    # when the entry is; a column gather m[:, cols] is laid out column-major,
    # so its mask is taken on m.T uncopied and transposed back
    if m.flags.f_contiguous and not m.flags.c_contiguous:
        nonzero = (_nonzero_parts(m.T).view(np.uint16) != 0).T
    else:
        nonzero = _nonzero_parts(m).view(np.uint16) != 0
    rows, cols = np.flatnonzero(nonzero.any(axis=1)), np.flatnonzero(nonzero.any(axis=0))
    if np.count_nonzero(nonzero) == rows.size * cols.size:
        return [(rows[None], cols[None])] if rows.size else []
    i, j = np.divmod(np.flatnonzero(nonzero), c)
    label = _components(i, r + j, r + c)
    node = np.concatenate([rows, r + cols])
    roots = node[label[node] == node]
    block = np.searchsorted(roots, label[node])  # the block of each row, then column
    row_block, col_block = block[:rows.size], block[rows.size:]
    p, q = (np.bincount(x, minlength=roots.size) for x in (row_block, col_block))
    # the rows (columns) of every block, ascending, block after block
    row_order, col_order = (np.argsort(x, kind="stable") for x in (row_block, col_block))
    row_start, col_start = np.cumsum(p) - p, np.cumsum(q) - q
    shapes, shape_of = _distinct(p * (c + 1) + q)
    groups = []
    for at in range(shapes.size):
        sel = np.flatnonzero(shape_of == at)
        groups.append((rows[row_order[row_start[sel, None] + np.arange(p[sel[0]])]],
                       cols[col_order[col_start[sel, None] + np.arange(q[sel[0]])]]))
    return groups


def _gather(m: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """The stack of blocks m[rows[i]][:, cols[i]]; m itself, uncopied, when
    its one block is the whole of m, so that a dense m's SVD copies nothing."""
    if rows.shape == (1, m.shape[0]) and cols.shape == (1, m.shape[1]):
        return m[None]
    return m[rows[:, :, None], cols[:, None, :]]


def _short_stacks(a: np.ndarray, kernel: bool) -> list[tuple[np.ndarray, np.ndarray]]:
    """(sel, s) pairs that cover the stack a, each s what the SVD factors for
    a[sel]: a[sel] itself, or, for tall kernel blocks (wide column-space
    blocks), the triangle R (R*) of the QR factorisation of each a[sel]
    (a[sel]*), stripped of its exactly-zero rows and stacked by their
    count: R keeps the singular values and the short side's singular
    vectors up to rounding, and no zero row reaches the SVD."""
    t = a if kernel else a.conj().swapaxes(1, 2)
    if t.shape[1] <= t.shape[2]:
        return [(np.arange(a.shape[0]), a)]
    r = np.linalg.qr(t, mode="r")
    nonzero = (r != 0).any(axis=2)
    count = nonzero.sum(axis=1)
    r = np.take_along_axis(r, np.argsort(~nonzero, axis=1, kind="stable")[:, :, None], axis=1)
    stacks = []
    counts, count_of = _distinct(count)
    for at, k in enumerate(counts):
        sel = np.flatnonzero(count_of == at)
        s = r[sel, :k]
        stacks.append((sel, s if kernel else s.conj().swapaxes(1, 2)))
    return stacks


def _block_basis(m: np.ndarray, blocks: list[tuple[np.ndarray, np.ndarray]],
                 kernel: bool) -> tuple[Triplets, int]:
    """An orthonormal basis of the kernel (column space) of m on the columns
    (rows) of its ``blocks``, as the (column (row) of m, basis column,
    value) triplets of its columns, and the rank of m.  Each block's
    singular vectors come from one stacked SVD per shape; one
    ``numerical_rank`` over the merged singular values of all blocks sets
    the rank, so a block keeps those of its values above the cutoff of the
    whole of m.  A block's kernel takes its dropped right singular vectors
    and, when wide, its surplus ones; its column space its kept left
    singular vectors."""
    stacks = []  # (rows or columns of m, singular values, vectors [block, j, :])
    for rows, cols in blocks:
        for sel, s in _short_stacks(_gather(m, rows, cols), kernel):
            u, sv, vh = np.linalg.svd(s, full_matrices=kernel)
            stacks.append((cols[sel], sv, vh) if kernel
                          else (rows[sel], sv, u.swapaxes(1, 2)))
    sv = np.concatenate([s.ravel() for _, s, _ in stacks])
    first = np.cumsum([0] + [at.shape[0] for at, _, _ in stacks])
    owner = np.concatenate([np.repeat(np.arange(f, f + s.shape[0]), s.shape[1])
                            for f, (_, s, _) in zip(first, stacks)])
    order = np.argsort(-sv, kind="stable")
    rank = numerical_rank(sv[order])
    kept = np.bincount(owner[order[:rank]], minlength=first[-1])
    at_rows, at_cols, vals, width = [], [], [], 0
    for f, (at, _, vecs) in zip(first, stacks):
        j = np.arange(vecs.shape[1])
        k = kept[f:f + at.shape[0], None]
        b, j = np.nonzero(j >= k if kernel else j < k)
        at_rows.append(at[b].ravel())
        at_cols.append(np.repeat(width + np.arange(b.size), at.shape[1]))
        # the kernel takes the conjugates of the rows of vh it keeps
        vals.append((vecs[b, j].conj() if kernel else vecs[b, j]).ravel())
        width += b.size
    return Triplets(*map(np.concatenate, (at_rows, at_cols, vals))), rank


def singular_values(m: np.ndarray) -> np.ndarray:
    """Singular values of the connected blocks of m, merged, descending.

    These are the nonzero singular values of m, possibly followed by
    zeros; the zeros that m's zero rows and columns and its block structure
    add are left out, so an empty or all-zero matrix gives an empty array.
    """
    blocks = _blocks(m)
    if not blocks:
        return np.zeros(0)
    sv = np.concatenate([np.linalg.svd(_gather(m, r, c), compute_uv=False).ravel()
                         for r, c in blocks])
    return sv[np.argsort(-sv, kind="stable")]


def spectral_norm(m: np.ndarray) -> float:
    """Largest singular value; exactly 0.0 for an empty or all-zero matrix
    (residuals built from index shifts are often exact)."""
    sv = singular_values(m)
    return float(sv[0]) if sv.size else 0.0


def numerical_rank(sv: np.ndarray) -> int:
    """Number of the descending singular values sv above RANK_RTOL * sv[0];
    0 for an empty array."""
    return int(np.sum(sv > RANK_RTOL * sv[0])) if sv.size else 0


def nullspace(m: np.ndarray) -> np.ndarray:
    """Orthonormal basis (columns) of the kernel of m: the kernels of its
    connected blocks on their columns, then one unit vector per zero
    column."""
    d = m.shape[1]
    blocks = _blocks(m)
    if not blocks:
        return np.eye(d, dtype=complex)
    basis, rank = _block_basis(m, blocks, kernel=True)
    cols = np.concatenate([c.ravel() for _, c in blocks])
    out = np.zeros((d, d - rank), dtype=complex)
    out[basis.rows, basis.cols] = basis.vals
    zero_cols = np.delete(np.arange(d), cols)
    out[zero_cols, cols.size - rank:] = np.eye(zero_cols.size)
    return out


def column_space(m: np.ndarray) -> np.ndarray:
    """Orthonormal basis (columns) of the column space of m, supported on
    the rows of m with a nonzero entry."""
    blocks = _blocks(m)
    if not blocks:
        return np.zeros((m.shape[0], 0), dtype=complex)
    basis, rank = _block_basis(m, blocks, kernel=False)
    out = np.zeros((m.shape[0], rank), dtype=complex)
    out[basis.rows, basis.cols] = basis.vals
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
    that hold one: for nonzero entries, the core ``_blocks`` splits."""
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
