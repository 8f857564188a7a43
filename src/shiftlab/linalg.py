"""Complex linear algebra on entry lists, shared across the package.

Every matrix the package builds is held as a ``Triplets`` list of its
entries: the truncated operators, the window slices cut from them, the
generator matrices, the subspace bases and the residuals of the checks.
Under 1 % of their entries are nonzero on the benchmark inputs, so
products and differences of these lists (``times``, ``sparse_product``,
``sparse_difference``) cost O(nnz) where dense arrays cost O(d^2) memory
and up to O(d^3) time.  A list becomes a dense array only inside a
connected block, in ``dense_matrix`` (``OperatorMatrix.dense``, the
fallback of ``svd_analysis``), in ``support_core`` and in the dense cores
``times`` multiplies when that is cheaper than the terms.
``sparse_norm`` takes a list's spectral norm by a Lanczos iteration on the
list itself, with no Gram matrix and no dense copy.

Every SVD of the package happens here, but for the stacked values-only
SVDs of the circle samples of ``symbols.circle_values``, which
``rank_profile`` and ``nehari_bounds`` take.  The truncated operators pair
banded Toeplitz blocks with finite-rank Hankel blocks, so most of their
rows or columns are entirely zero, and what is left often falls apart
further.  Take the rows and the columns of m that hold a nonzero entry as
the nodes of a graph and its nonzero entries as the edges: after a
permutation of its rows and of its columns, m is block diagonal up to
zero rows and columns, one block per connected component (Pothen & Fan,
ACM TOMS 16, 1990).  Its nonzero singular values are then those of its
blocks together, and its kernel and column space the direct sums of
theirs, every zero column of m a kernel direction besides, so factoring
each block on its own is exact.  On the scalar-fiber benchmark inputs a
512 x 256 core falls into 256 blocks of 2 x 1.

Every helper takes one path.  ``_blocks`` labels the components from the
entries' rows and columns by hooking and pointer jumping (a core with no
zero entry is one block without labelling) and fills one dense stack per
block shape by scatter; the stack goes through one stacked SVD (or QR, or
the closed form, below), and the vectors of every block come back as one
entry list.  A core of one component is a stack of one block, and
``MAX_DENSE_ENTRIES`` bounds a stack, not the ambient.  The blocks share
one cutoff: ``numerical_rank`` counts their merged singular values at
RANK_RTOL times sigma_max of the whole of m, so a block whose values clear
only its own cutoff gives them to the kernel.

A block whose operand has one column, the block itself for ``nullspace``
and its conjugate transpose for ``column_space`` (so a block of one row
there), is factored in closed form by ``_column_norms``, as are the
one-column and one-row stacks of ``singular_values``: a p x 1 matrix x is
(x / |x|) |x| 1, an SVD as it stands, so its one singular value is the
2-norm |x| and its right singular vector the unit 1, exactly, by shape
alone.  The kernel thus takes the unit vector of a dropped column, and the
column space the unit vector of a kept row, with no QR and no SVD; the
norm is taken after an exact power-of-two scaling, so it neither
overflows nor underflows.  On the scalar-fiber and ``timotin-rot``
benchmark inputs nearly every block and every group is of this shape, and
LAPACK's overhead per matrix, not its arithmetic, was their cost.

Past one column, a tall block reaches ``nullspace``, and a wide one
``column_space``, as the triangle R of its QR factorisation (of its
conjugate transpose when wide; Chan's R-SVD, ACM TOMS 8(1), 1982); the
blocks of one shape take one stacked QR.  R keeps the singular values and
the short side's singular vectors, so no SVD forms the long side's vectors
only to discard them.  Unlike the split of m, this step is not exact, but
it is backward stable, as the direct SVD is: R's singular values are the
block's up to rounding.  R goes through ``_blocks`` again, on its entries
!= 0, so no exactly-zero row of R reaches the SVD, and a block of R with
one column takes the closed form.  A basis vector drops its entries at or
below NEGLIGIBLE eps, the rounding of an exact 0.

Those cuts of isometries fall apart further before ``_blocks`` scatters
anything: their columns (for ``nullspace``; rows for ``column_space``) are
mutually orthogonal up to rounding but for a few pairs.  The sparse Gram
matrix m* m (m m*) is formed from the entries while it takes no more terms
than the ``times`` rule and the cap admit, which a dense block exceeds;
two columns join when the cosine of their Gram entry exceeds NEGLIGIBLE
eps, ``_components`` labels the groups, and each row is listed once per
group it meets, on fresh indices, so each group is factored as a block of
its own, through the closed form, the QR or the SVD above.  The
2n x (n + 1) cores of seed-0 ``timotin-rot``, one block each, fall into
groups of one column but for one or two, so no operand of the closed
form, the QR or the SVD holds more than 4 entries, where the whole block
took a dense QR of O(n^3) time.  The cosine test alone is
unsound: [a, a + d b, e, e + d b] has a kernel vector, yet its columns 1,
2 meet 3, 4 only at the cosine d**2.  So the split is certified from the
singular values the groups already have: every dropped Gram entry X[j, k]
between two groups must be at most NEGLIGIBLE eps s_j s_k, s being the
smallest singular value of each side's group above the rounding floor
NEGLIGIBLE eps sigma_max, and a connected block that holds a larger one is
factored whole, as before.  S_1^-1 V_1* X V_2 S_2^-1, the cosines between
the groups' left singular vectors above the floor, is what the whole
block's QR would hold between them and the split drops, and it is at most
NEGLIGIBLE eps q in norm, q being the block's columns.  Each singular
value above the floor is then that of m to a relative NEGLIGIBLE eps q, at
most 1.5e-8 for any q the cap admits, and those below it move m by at most
NEGLIGIBLE eps q sigma_max, below RANK_RTOL / 10 times sigma_max while q
<= 11,258, so no rank decision whose singular values lie tenfold from its
cutoff can move; on the demos, the sample scenario and the seed-0 and
seed-7 benchmark inputs none moves.  Taking s among the kept values alone
is not enough: 144 groups, each dropping a value 0.9 times the cutoff, add
up to a singular value of m 10.8 times the cutoff that the split would
lose.

A zero column of m is a kernel direction, one entry of value 1, and every
product treats it as any other entry: 1 times x is exact, so no unit
column needs a case of its own.

Every numerical rank of the package is counted by ``numerical_rank``, at
the one relative cutoff ``RANK_RTOL``.  No residual tolerance moves it.

Every array whose size grows with the truncation is sized, where it is
made, by ``check_size``, which raises ``SizeCapError`` above
``MAX_DENSE_ENTRIES`` entries.
"""

import math
from typing import NamedTuple

import numpy as np

RANK_RTOL = 1e-10
# Largest array, in entries, that a step may allocate: 2**24 complex128
# entries are 256 MiB.
MAX_DENSE_ENTRIES = 2 ** 24
# sparse_norm's Lanczos iteration stops once the residual of its top Ritz
# pair is at most this many eps times the Ritz value.
LANCZOS_STOP = 4.0
# Entries of a basis vector, of norm 1, at or below this many eps are
# dropped; so are Gram cosines between the groups of a block's columns
# (rows), under the certificate of _block_basis, and the Penrose
# certificate (operators._penrose_defect) multiplies no column by a Gram
# entry of cosine at or below it, and bounds those entries instead.
NEGLIGIBLE = 4.0


class Triplets(NamedTuple):
    """Entries of a matrix as parallel arrays: entry i is vals[i] at row
    rows[i], column cols[i]; positions not listed are zero."""

    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray


# the empty entry list, of a matrix or basis with no entry
_NONE = Triplets(np.zeros(0, dtype=np.intp), np.zeros(0, dtype=np.intp), np.zeros(0, dtype=complex))


class SizeCapError(Exception):
    """An array above the cap was asked for; not a ValueError: it stops a run."""


def check_size(what: str, *shape: int) -> None:
    """Raise SizeCapError if the array ``what`` of this shape, in Python ints
    (whose product does not wrap), has more than MAX_DENSE_ENTRIES entries."""
    if math.prod(shape) > MAX_DENSE_ENTRIES:
        raise SizeCapError(f"{what}, {' x '.join(map(str, shape))} entries, is above the cap of "
                           f"{MAX_DENSE_ENTRIES} ({MAX_DENSE_ENTRIES / 2 ** 26:g} GiB)")


def _entries(m: np.ndarray) -> Triplets:
    """The entries != 0 of the dense array m, in row-major order; -0.0 is
    left out, as m != 0 leaves it out."""
    rows, cols = np.nonzero(m)
    return Triplets(rows, cols, m[rows, cols])


def _compressed(index: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``_distinct(index)`` by counting, in O(len(index) + max(index)): the
    distinct values of the indices >= 0, ascending, and the position of
    each index among them."""
    present = np.bincount(index) != 0
    return np.flatnonzero(present), (np.cumsum(present) - 1)[index]


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


def _starts(counts: np.ndarray) -> np.ndarray:
    """For items grouped into runs of the given lengths, each item's place
    in its run."""
    return np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)


def _blocks(m: Triplets) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """The connected blocks of the matrix m lists, each position at most
    once: for the g blocks of each shape (p, q), their (g, p) row and (g, q)
    column indices, ascending within a block, and the (g, p, q) stack of the
    blocks, filled by scatter.  The rows and the columns that hold an entry
    != 0 are the nodes, those entries the edges; an m with none has no
    block, and a core with no zero entry is one block without labelling."""
    nonzero = np.flatnonzero(m.vals != 0)
    vals = m.vals[nonzero]
    (rows, at_row), (cols, at_col) = (_compressed(x[nonzero]) for x in m[:2])
    r, c = rows.size, cols.size
    if not r:
        return []
    if vals.size == r * c:
        label = np.zeros(r + c, dtype=np.intp)
    else:
        label = _components(at_row, r + at_col, r + c)
    roots = np.flatnonzero(label == np.arange(r + c))
    block = np.searchsorted(roots, label)  # the block of each row, then column
    row_block, col_block = block[:r], block[r:]
    p, q = (np.bincount(x, minlength=roots.size) for x in (row_block, col_block))
    # the rows (columns) of every block, ascending, block after block, and
    # the place of each row (column) in its block
    row_order, col_order = (np.argsort(x, kind="stable") for x in (row_block, col_block))
    row_start, col_start = np.cumsum(p) - p, np.cumsum(q) - q
    row_at, col_at = np.empty(r, dtype=np.intp), np.empty(c, dtype=np.intp)
    row_at[row_order], col_at[col_order] = _starts(p), _starts(q)
    shapes, shape_of = _distinct(p * (c + 1) + q)
    entry_block = row_block[at_row]
    place = np.empty(roots.size, dtype=np.intp)  # of each block in its shape's stack
    groups = []
    for at in range(shapes.size):
        sel = np.flatnonzero(shape_of == at)
        place[sel] = np.arange(sel.size)
        e = np.flatnonzero(shape_of[entry_block] == at)
        height, width = p[sel[0]], q[sel[0]]
        check_size("the block stack", sel.size, height, width)
        stack = np.zeros((sel.size, height, width), dtype=vals.dtype)
        stack[place[entry_block[e]], row_at[at_row[e]], col_at[at_col[e]]] = vals[e]
        groups.append((rows[row_order[row_start[sel, None] + np.arange(height)]],
                       cols[col_order[col_start[sel, None] + np.arange(width)]], stack))
    return groups


def _factored(blocks: list[tuple[np.ndarray, np.ndarray, np.ndarray]],
              kernel: bool) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """(ids, sv, vecs) for each stack factored for ``blocks``: ids the
    columns (kernel) or rows (column space) of the matrix on each block's
    vectors, sv its singular values and vecs[block, j, :] its right (left)
    singular vectors.  The operand t is each block (kernel) or its
    conjugate transpose (column space).  A t of one column takes the closed
    form, ``_column_norms`` and the unit vector 1, with no QR and no SVD.
    A taller t is factored through the triangle R of its QR factorisation,
    one stacked QR per shape: R keeps the singular values and the short
    side's singular vectors up to rounding.  The entries != 0 of each R go
    through ``_blocks`` again, its rows (columns) on fresh indices and the
    other side on the block's own, so no exactly-zero row of R reaches the
    SVD; a column of R that is exactly 0 is a kernel direction, one entry
    1.  Any other t is factored by one stacked SVD."""
    stacks = []
    for rows, cols, a in blocks:
        ids = cols if kernel else rows
        t = a if kernel else a.conj().swapaxes(1, 2)
        if t.shape[2] == 1:  # the norm, and the unit vector 1
            stacks.append((ids, _column_norms(t), np.ones((t.shape[0], 1, 1), dtype=t.dtype)))
        elif t.shape[1] > t.shape[2]:
            r = np.linalg.qr(t, mode="r")
            kept = r != 0
            b, i, j = np.nonzero(kept)
            fresh = b * r.shape[1] + i
            stacks += _factored(_blocks(Triplets(fresh, ids[b, j], r[b, i, j]) if kernel else
                                        Triplets(ids[b, j], fresh, r[b, i, j].conj())), kernel)
            if kernel:  # a column of R that is 0: a unit kernel vector
                gone = ids[~kept.any(axis=1)][:, None]
                stacks.append((gone, np.zeros((gone.size, 0)), np.ones((gone.size, 1, 1))))
        else:
            if kernel:  # full_matrices: a 1 x d block has d x d of them
                check_size("the right singular vectors", a.shape[0], a.shape[2], a.shape[2])
            u, sv, vh = np.linalg.svd(a, full_matrices=kernel)
            stacks.append((ids, sv, vh if kernel else u.swapaxes(1, 2)))
    return stacks


def _column_norms(t: np.ndarray) -> np.ndarray:
    """The singular value of each block of the stack t (g, p, 1), its
    column's 2-norm, as (g, 1).  The magnitudes of each column are first
    scaled, exactly, by the power of two that brings the largest into
    [0.5, 1), by 2**1021 at most, so no square underflows or overflows, and
    the root is scaled back."""
    mag = np.abs(t[:, :, 0])
    exp = np.maximum(np.frexp(mag.max(axis=1, keepdims=True))[1], -1021)
    return np.ldexp(np.sqrt(np.sum(np.ldexp(mag, -exp) ** 2, axis=1, keepdims=True)), exp)


class _Groups(NamedTuple):
    """The mutually orthogonal groups of the ids of a matrix, its columns
    (kernel) or rows (column space): ``core``, its entries != 0 on
    compressed indices in row-major order, ``ids`` the id of each
    compressed index, ``group`` the group of each, named by its smallest,
    and (j, k, size) the entries of the Gram matrix between two groups,
    size being |gram[j, k]| for the core times ``scale``."""

    core: Triplets
    ids: np.ndarray
    group: np.ndarray
    j: np.ndarray
    k: np.ndarray
    size: np.ndarray
    scale: float


def _orthogonal_groups(m: Triplets, kernel: bool) -> _Groups | None:
    """The groups of the columns (kernel) or rows (column space) of the
    matrix m lists that its Gram matrix (m* m, or m m*) joins by an entry
    above NEGLIGIBLE eps times the norms of its two ids; None where no two
    ids share a row (column), where the core has no zero entry, where the
    sparse Gram matrix forms more terms than the ``times`` rule or the cap
    admits, or where one group fills each connected block.  Before the
    product, the entries are scaled by the power of two that brings the
    largest into [0.5, 1), exactly, so no square the SVD would see
    underflows, and put in row-major order, so each sum of the Gram matrix
    takes its terms in one order, whatever the order of the list."""
    # explicit zeros only add to the counts, so no entry needs filtering yet
    if np.bincount(m.rows if kernel else m.cols).max(initial=0) < 2:
        return None
    nonzero = np.flatnonzero(m.vals != 0)
    (rows, at_row), (cols, at_col) = (_compressed(x[nonzero]) for x in m[:2])
    if nonzero.size == rows.size * cols.size:
        return None
    order = np.argsort(at_row.astype(np.int64) * cols.size + at_col, kind="stable")
    core = Triplets(at_row[order], at_col[order], m.vals[nonzero[order]])
    del nonzero, at_row, at_col, order  # only the core is read from here on
    scale = np.ldexp(1.0, -max(int(np.frexp(np.max(np.abs(core.vals)))[1]), -1021))
    w = Triplets(core.cols, core.rows, core.vals.conj() * scale) if kernel else \
        core._replace(vals=core.vals * scale)  # the ids on the rows of w
    gram = sparse_product(w, _adjoint(w), min(2 * rows.size * cols.size, MAX_DENSE_ENTRIES))
    if gram is None:
        return None
    ids = cols if kernel else rows
    norm = np.zeros(ids.size)
    diagonal = gram.rows == gram.cols
    norm[gram.rows[diagonal]] = np.sqrt(gram.vals[diagonal].real)
    upper = np.flatnonzero(gram.rows < gram.cols)
    j, k, size = gram.rows[upper], gram.cols[upper], np.abs(gram.vals[upper])
    joined = size > NEGLIGIBLE * np.finfo(float).eps * norm[j] * norm[k]
    group = _components(j[joined], k[joined], ids.size)
    apart = np.flatnonzero(group[j] != group[k])
    if not apart.size:
        return None
    return _Groups(core, ids, group, j[apart], k[apart], size[apart], scale)


def _regrouped(groups: _Groups, kernel: bool) -> Triplets:
    """The core with its rows (columns) listed once per group of the
    columns (rows) they meet, on fresh indices in the order of (row
    (column), group), so each group is a connected block of its own, and
    its columns (rows) on their ids."""
    at, other = (groups.core.cols, groups.core.rows) if kernel else groups.core[:2]
    fresh = _distinct(other.astype(np.int64) * groups.ids.size + groups.group[at])[1]
    ids, vals = groups.ids[at], groups.core.vals
    return Triplets(fresh, ids, vals) if kernel else Triplets(ids, fresh, vals)


def _block_basis(m: Triplets, kernel: bool) -> tuple[Triplets, int]:
    """An orthonormal basis of the kernel (column space) of the matrix m
    lists, on its columns (rows) that hold an entry != 0, as the (column
    (row) of m, basis column, value) triplets of its entries above
    NEGLIGIBLE eps, and the rank of m.

    Each connected block (``_blocks``), or each group of its columns (rows)
    that ``_orthogonal_groups`` finds, the other side listed once per
    group, is factored by ``_factored``; one ``numerical_rank`` over the
    merged singular values sets the rank, so a block keeps those of its
    values above the cutoff of the whole matrix.  The split into groups is
    certified: each Gram entry X[j, k] between two groups must be at most
    NEGLIGIBLE eps s_j s_k, s being the smallest singular value of each
    side's group above NEGLIGIBLE eps sigma_max, 0 for a group with none;
    the connected blocks that hold an entry above that are factored whole,
    and the rest is certified again.  A block's kernel takes its dropped
    right singular vectors and, when wide, its surplus ones; its column
    space its kept left singular vectors."""
    groups, blocks = _orthogonal_groups(m, kernel), None
    while True:
        found = _blocks(m if groups is None else _regrouped(groups, kernel))
        if not found:
            return _NONE, 0
        stacks = _factored(found, kernel)
        sv = np.concatenate([s.ravel() for _, s, _ in stacks])
        first = np.cumsum([0] + [at.shape[0] for at, _, _ in stacks])
        owner = np.concatenate([np.repeat(np.arange(f, f + s.shape[0]), s.shape[1])
                                for f, (_, s, _) in zip(first, stacks)])
        order = np.argsort(-sv, kind="stable")
        rank = numerical_rank(sv[order])
        if groups is None:
            break
        # the smallest singular value of each group above the rounding
        # floor, NEGLIGIBLE eps sigma_max, 0 where none is
        lead = np.searchsorted(groups.ids, np.concatenate([at[:, 0] for at, _, _ in stacks]))
        top = order[:np.count_nonzero(sv > NEGLIGIBLE * np.finfo(float).eps * sv[order[0]])]
        least = np.full(groups.ids.size, np.inf)
        np.minimum.at(least, groups.group[lead[owner[top]]], sv[top])
        least[least == np.inf] = 0.0
        least *= groups.scale
        group, j, k = groups.group, groups.j, groups.k
        bad = groups.size > NEGLIGIBLE * np.finfo(float).eps * least[group[j]] * least[group[k]]
        if not bad.any():
            break
        if blocks is None:  # the connected block of each id, named by its smallest
            blocks = _components(group[j], group[k], group.size)[group]
        group = np.where(np.isin(blocks, blocks[j[bad]]), blocks, group)
        apart = group[j] != group[k]
        groups = groups._replace(group=group, j=j[apart], k=k[apart],
                                 size=groups.size[apart]) if apart.any() else None
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
    basis = Triplets(*map(np.concatenate, (at_rows, at_cols, vals)))
    kept = np.flatnonzero(np.abs(basis.vals) > NEGLIGIBLE * np.finfo(float).eps)
    return Triplets(*(x[kept] for x in basis)), rank


def singular_values(m: Triplets | np.ndarray) -> np.ndarray:
    """Singular values of the connected blocks of m, merged, descending: m
    is an entry list, each position at most once, or a dense array, read
    through its entries != 0 (the window slice of ``svd_analysis``'s
    fallback).  A stack of one column or one row takes the closed form of
    ``_factored``, its norms by ``_column_norms``; any other stack one
    stacked values-only SVD.

    These are the nonzero singular values of m, possibly followed by
    zeros; the zeros that m's zero rows and columns and its block structure
    add are left out, so an empty or all-zero matrix gives an empty array.
    """
    blocks = _blocks(_entries(m) if isinstance(m, np.ndarray) else m)
    if not blocks:
        return np.zeros(0)
    sv = np.concatenate([
        (_column_norms(stack.reshape(stack.shape[0], -1, 1)) if 1 in stack.shape[1:]
         else np.linalg.svd(stack, compute_uv=False)).ravel() for _, _, stack in blocks])
    return sv[np.argsort(-sv, kind="stable")]


def spectral_norm(m: Triplets | np.ndarray) -> float:
    """Largest singular value of m, an entry list or a dense array; exactly
    0.0 for an empty or all-zero matrix (residuals built from index shifts
    are often exact)."""
    sv = singular_values(m)
    return float(sv[0]) if sv.size else 0.0


def numerical_rank(sv: np.ndarray) -> int:
    """Number of the descending singular values sv above RANK_RTOL * sv[0];
    0 for an empty array."""
    return int(np.sum(sv > RANK_RTOL * sv[0])) if sv.size else 0


def extent(t: Triplets, axis: int) -> int:
    """One past the largest row (axis 0) or column (axis 1) index that t
    lists, 0 when t is empty: the number of columns of an orthonormal
    basis, each of which holds an entry != 0."""
    return int(t[axis].max(initial=-1)) + 1


def nullspace(m: Triplets, width: int) -> Triplets:
    """Orthonormal basis of the kernel of the matrix of ``width`` columns
    that m lists: the kernels of its connected blocks on their columns,
    then one entry 1 per zero column, a unit vector."""
    basis, rank = _block_basis(m, kernel=True)
    check_size("the kernel basis's unit columns", width)
    zero_cols = np.flatnonzero(np.bincount(m.cols[m.vals != 0], minlength=width) == 0)
    units = Triplets(zero_cols, width - zero_cols.size - rank + np.arange(zero_cols.size),
                     np.ones(zero_cols.size, dtype=complex))
    return Triplets(*map(np.concatenate, zip(basis, units)))


def column_space(m: Triplets) -> Triplets:
    """Orthonormal basis of the column space of the matrix m lists,
    supported on the rows that hold an entry != 0."""
    return _block_basis(m, kernel=False)[0]


def _adjoint(t: Triplets) -> Triplets:
    return Triplets(t.cols, t.rows, t.vals.conj())


def _core_entries(t: Triplets) -> int:
    """Entries of the dense core of t: its rows times its columns with an entry."""
    return np.count_nonzero(np.bincount(t.rows)) * np.count_nonzero(np.bincount(t.cols))


def times(a: Triplets, b: Triplets) -> Triplets:
    """The product of the matrices a and b list, one entry per position:
    ``sparse_product`` while it forms no more terms than the dense cores of
    a and b have entries together, the rule of ``short_gram``; past that,
    the product of those cores, with its entries != 0."""
    product = sparse_product(a, b, _core_entries(a) + _core_entries(b))
    if product is not None:
        return product
    (rows, at_row), (cols, at_col) = _compressed(a.rows), _compressed(b.cols)
    inner, at_inner = _compressed(np.concatenate([a.cols, b.rows]))
    left = dense_matrix(Triplets(at_row, at_inner[:a.cols.size], a.vals), (rows.size, inner.size))
    right = dense_matrix(Triplets(at_inner[a.cols.size:], at_col, b.vals),
                         (inner.size, cols.size))
    check_size("the product", rows.size, cols.size)
    i, j, vals = _entries(left @ right)
    return Triplets(rows[i], cols[j], vals)


def project(b: Triplets, x: Triplets) -> Triplets:
    """b (b* x), for the basis b and the matrix x the lists describe."""
    return times(b, times(_adjoint(b), x))


def image_within(m: Triplets, shape: tuple[int, int], keep: np.ndarray) -> Triplets:
    """Orthonormal basis of the images m x that vanish outside the rows keep,
    restricted to those rows, for the matrix of the given shape m lists.

    Solving for the inputs, rather than cutting them, keeps images whose
    content outside the rows cancels.
    """
    outside = np.delete(np.arange(shape[0]), keep)
    kernel = nullspace(_within(m, 0, outside, shape[0]), shape[1])
    return column_space(times(_within(m, 0, keep, shape[0]), kernel))


def intersection(b1: Triplets, b2: Triplets) -> Triplets:
    """Orthonormal basis of the intersection of the spans of b1 and b2, both
    with orthonormal columns over one ambient.

    v = b1 x = b2 y exactly when (x, y) is in the kernel of [b1, -b2], whose
    sigma_max is at least 1, so the rank cutoff stays clear of rounding noise
    even when both spans are everything.  Orthonormal kernel vectors have
    |x| = |y| = 1/sqrt(2) and orthogonal x parts, so sqrt(2) b1 x is
    orthonormal.
    """
    k1 = extent(b1, 1)
    width = k1 + extent(b2, 1)
    stack = Triplets(np.concatenate([b1.rows, b2.rows]), np.concatenate([b1.cols, k1 + b2.cols]),
                     np.concatenate([b1.vals, -b2.vals]))
    image = times(b1, _within(nullspace(stack, width), 0, np.arange(k1), width))
    return image._replace(vals=np.sqrt(2) * image.vals)


def principal_angle_distance(b1: Triplets, b2: Triplets) -> float:
    """Sine of the largest principal angle; 1.0 when dimensions differ.

    Both arguments must list orthonormal columns over the same ambient.
    Computed through the projector residual (I - P2) B1 rather than the
    cosine Gram matrix: cosines lose small angles below sqrt(eps), the
    sine form measures coinciding subspaces at machine precision.  For
    equal dimensions ||(I - P2) B1|| = ||(I - P1) B2|| in exact arithmetic
    (Stewart & Sun, Matrix Perturbation Theory, 1990), so one side is enough:
    the checks pass their target basis second, whose unit columns, kernel
    directions of zero columns, project exactly.
    """
    k = extent(b1, 1)
    if k != extent(b2, 1):
        return 1.0
    if k == 0:
        return 0.0
    return min(1.0, spectral_norm(sparse_difference(b1, project(b2, b1))))


def _within(t: Triplets, axis: int, keep: np.ndarray, dim: int) -> Triplets:
    """The entries of the submatrix on the rows (axis 0) or the columns
    (axis 1) keep, distinct indices out of dim, ascending when they are all
    of them: the entries whose index is kept, renumbered by its position in
    keep, which keeps their order."""
    if keep.size == dim:
        return t
    at = np.full(dim, -1)
    at[keep] = np.arange(keep.size)
    return _renumbered(t, axis, at)


def _renumbered(t: Triplets, axis: int, at: np.ndarray) -> Triplets:
    """The entries of t whose row (axis 0) or column (axis 1) index i has
    at[i] >= 0, with that index replaced by at[i], in their order."""
    moved = at[t[axis]]
    inside = moved >= 0
    out = [x[inside] for x in t]
    out[axis] = moved[inside]
    return Triplets(*out)


def _keys(t: Triplets, width: int) -> np.ndarray:
    """Row-major position of each entry in a matrix of ``width`` columns."""
    return t.rows.astype(np.int64) * width + t.cols


def row_major(t: Triplets) -> Triplets:
    """The entries of t, each position listed at most once, in the row-major
    order of np.nonzero.  The sort is stable, so a list made of sorted runs
    is merged in linear time."""
    order = np.argsort(_keys(t, extent(t, 1)), kind="stable")
    return Triplets(*(x[order] for x in t))


def dense_matrix(t: Triplets, shape: tuple[int, int]) -> np.ndarray:
    """The matrix of the given shape that holds the entries t lists, each
    position at most once, and zeros elsewhere."""
    check_size("the dense matrix", *shape)
    m = np.zeros(shape, dtype=t.vals.dtype)
    m[t.rows, t.cols] = t.vals
    return m


def _distinct(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """np.unique(keys, return_inverse=True) for keys >= 0, by the stable
    sort: the distinct keys, ascending, and the position of each key among
    them."""
    order = np.argsort(keys, kind="stable")
    ordered = keys[order]
    new = np.empty(keys.size, dtype=bool)
    new[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=new[1:])
    at = np.empty(keys.size, dtype=np.intp)
    at[order] = np.cumsum(new) - 1
    return ordered[new], at


def sparse_product(a: Triplets, b: Triplets, limit: int) -> Triplets | None:
    """The product of the matrices a and b list, one entry per position with
    its terms summed; None when it takes more than ``limit`` scalar products.

    Gustavson's row-wise product (ACM TOMS 4(3), 1978), vectorised as
    expand, sort and compress: every entry (i, k) of a meets every entry
    (k, j) of b, found through b's row pointers, and the terms of one
    position (i, j) are summed.  The memory is a few arrays of one element
    per term, which ``limit`` bounds.
    """
    height = max(extent(a, 1), extent(b, 0))
    per_row = np.bincount(b.rows, minlength=height)
    count = per_row[a.cols]
    terms = int(count.sum())
    if terms > limit:
        return None
    check_size("the terms of a sparse product", terms)
    order = np.argsort(b.rows, kind="stable")
    start = (np.cumsum(per_row) - per_row)[a.cols]
    left = np.repeat(np.arange(a.rows.size), count)
    # term t of entry e of a takes entry start[e] + (t - first term of e) of b
    right = order[np.repeat(start + count - np.cumsum(count), count) + np.arange(terms)]
    width = extent(b, 1)
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
    width = max(extent(a, 1), extent(b, 1))
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
    (rows, at_row), (cols, at_col) = _compressed(t.rows), _compressed(t.cols)
    return dense_matrix(Triplets(at_row, at_col, t.vals), (rows.size, cols.size))


def short_gram(t: Triplets) -> tuple[Triplets, Triplets] | tuple[np.ndarray, np.ndarray]:
    """(W, W* W) for W the one of V, the matrix t lists, and V* with no more
    nonzero columns than rows, so W* W is the smaller Gram matrix, for the
    Penrose certificate, which multiplies W further only on the columns
    that W* W couples.  Sparse while the product forms no more terms than
    V's nonzero core has entries, which keeps its memory to the core's; past
    that, W is the dense core."""
    rows, cols = (np.count_nonzero(np.bincount(x)) for x in (t.rows, t.cols))
    w = t if rows >= cols else Triplets(t.cols, t.rows, t.vals.conj())
    gram = sparse_product(Triplets(w.cols, w.rows, w.vals.conj()), w, rows * cols)
    if gram is not None:
        return w, gram
    a = support_core(w)
    return a, a.conj().T @ a


def sparse_norm(t: Triplets) -> float:
    """Spectral norm of the matrix t lists, exactly 0.0 for an empty or
    all-zero list: sqrt of the top Ritz value theta of a Lanczos iteration
    on W* W (Lanczos, J. Res. Nat. Bur. Standards 45, 1950; Paige, 1971),
    for W the one of V, the matrix t lists, and V* with no more nonzero
    columns than rows, on those columns.

    Each step multiplies by W and then by W* straight from the entries, by
    ``np.bincount`` row sums of their products (real and imaginary parts
    apart), so no Gram matrix is formed, and reorthogonalises fully, twice.
    It stops once the top Ritz pair's residual beta_k |s_k| (s_k the last
    entry of T_k's top eigenvector) is at most LANCZOS_STOP * eps * theta,
    or once the Krylov space is exhausted: invariant (beta_k = 0), or the
    whole space after as many steps as W has columns, where theta is
    lambda_max.  The test needs T_k's eigenvectors, so it runs at every
    step up to 8 and then every k / 8 steps.  A Ritz value never exceeds
    lambda_max, so every return is a lower bound up to rounding.  The start
    vector is fixed, its phases and magnitudes following the golden-ratio
    sequence j * phi mod 1, which no symmetric or alternating pattern of
    the entries makes orthogonal to the top eigenvector, as it can the
    all-ones vector.

    W* W squares the entries, which would underflow to 0 near 1e-200 and
    overflow near 1e200, so they are first scaled, exactly, by the power of
    two that brings the largest magnitude into [0.5, 1), and the root is
    scaled back.  A subnormal largest magnitude is scaled by 2**1021 at
    most, which stays finite."""
    if not np.any(t.vals):
        return 0.0
    exp = max(int(np.frexp(np.max(np.abs(t.vals)))[1]), -1021)
    vals = t.vals * np.ldexp(1.0, -exp)
    (rows, at_row), (cols, at_col) = _compressed(t.rows), _compressed(t.cols)
    if rows.size < cols.size:
        rows, at_row, cols, at_col, vals = cols, at_col, rows, at_row, vals.conj()
    height, d, adjoint = rows.size, cols.size, vals.conj()

    def gram_times(q):
        p = vals * q[at_col]
        y = np.bincount(at_row, p.real, height) + 1j * np.bincount(at_row, p.imag, height)
        p = adjoint * y[at_row]
        return np.bincount(at_col, p.real, d) + 1j * np.bincount(at_col, p.imag, d)

    golden = np.arange(d) * ((np.sqrt(5.0) - 1.0) / 2.0) % 1.0
    start = (2.0 - golden) * np.exp(2j * np.pi * golden)
    check_size("the Lanczos basis", min(d, 8), d)
    basis = np.empty((min(d, 8), d), dtype=complex)
    basis[0] = start / np.linalg.norm(start)
    alphas, betas, check = [], [], 1
    for k in range(1, d + 1):
        w = gram_times(basis[k - 1])
        alphas.append(np.vdot(basis[k - 1], w).real)
        for _ in range(2):
            w -= (basis[:k] @ w.conj()).conj() @ basis[:k]
        beta = np.linalg.norm(w)
        exhausted = k == d or beta == 0
        if k == check or exhausted:
            check = k + 1 + k // 8
            theta, s = np.linalg.eigh(np.diag(alphas) + np.diag(betas, 1) + np.diag(betas, -1))
            if exhausted or beta * abs(s[-1, -1]) <= LANCZOS_STOP * np.finfo(float).eps * theta[-1]:
                break
        if k == basis.shape[0]:
            check_size("the Lanczos basis", k + min(k, d - k), d)
            basis = np.vstack([basis, np.empty((min(k, d - k), d), dtype=complex)])
        betas.append(beta)
        basis[k] = w / beta
    return float(np.ldexp(np.sqrt(max(theta[-1], 0.0)), exp))
