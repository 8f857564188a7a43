"""Finite truncations of Toeplitz, Hankel, shift and mixed block operators.

Truncating an infinite banded operator corrupts only the top degrees, so
every matrix built here records an *exactness window*: the largest input
degree for which the truncated action coincides with the untruncated
operator.  Identity checks compress inputs to that window, which turns
operator identities into exactly testable finite assertions.

Basis ordering is degree-major, fiber-minor throughout: the coordinate
of degree k, fiber i sits at flat index (k - deg_lo) * fiber_dim + i.
"""

from collections.abc import Sequence
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .linalg import (
    Triplets,
    _adjoint,
    _gram,
    _renumbered,
    _within,
    check_size,
    extent,
    singular_values,
    sparse_difference,
    sparse_norm,
    sparse_product,
    spectral_norm,
)
from .symbols import (
    LaurentSymbol,
    block_symbol,
    circle_values,
    split_square_blocks,
    zero_symbol,
)

# The residual tolerance: every residual gate of a check is residual <= tol,
# and svd_analysis's binary band is tol wide.  It decides no rank.
DEFAULT_TOL = 1e-8
# The share of the Penrose bound tol (1 - tol^2) that _penrose_defect's
# upper bound on ||V V* V - V||_F may reach and still certify the binary
# band without an SVD; the rest covers the rounding of the products, which
# leave the bound below 4e-14 on the partial isometries of the demos and
# the benchmark.
PENROSE_MARGIN = 0.5


@dataclass(frozen=True)
class TruncatedSpace:
    """Degree window of a vector-valued Hardy or two-sided function space."""

    fiber_dim: int
    deg_lo: int
    deg_hi: int

    def __post_init__(self):
        if self.deg_lo > self.deg_hi:
            raise ValueError("empty degree window")
        if self.fiber_dim <= 0:
            raise ValueError("fiber dimension must be positive")

    @staticmethod
    def hardy(fiber_dim: int, n: int) -> "TruncatedSpace":
        return TruncatedSpace(fiber_dim, 0, n)

    @staticmethod
    def lebesgue(fiber_dim: int, n: int) -> "TruncatedSpace":
        return TruncatedSpace(fiber_dim, -n, n)

    @property
    def num_degrees(self) -> int:
        return self.deg_hi - self.deg_lo + 1

    @property
    def dim(self) -> int:
        return self.fiber_dim * self.num_degrees

    def degree_indices(self, lo: int, hi: int) -> np.ndarray:
        """Flat indices of degrees [lo, hi], clipped to the stored range."""
        lo, hi = max(lo, self.deg_lo), min(hi, self.deg_hi)
        start = (lo - self.deg_lo) * self.fiber_dim
        stop = max(start, (hi - self.deg_lo + 1) * self.fiber_dim)
        check_size(f"the indices of degrees {lo}..{hi} at fiber {self.fiber_dim}", stop - start)
        return np.arange(start, stop)


@dataclass(frozen=True)
class ProductSpace:
    """Ordered direct sum of truncated spaces."""

    parts: tuple[TruncatedSpace, ...]

    @staticmethod
    def of(*parts: TruncatedSpace) -> "ProductSpace":
        return ProductSpace(tuple(parts))

    @property
    def dim(self) -> int:
        return sum(p.dim for p in self.parts)

    def offsets(self) -> list[int]:
        out, acc = [], 0
        for p in self.parts:
            out.append(acc)
            acc += p.dim
        return out

    def degree_indices(self, lo: int, hi: int) -> np.ndarray:
        """Flat indices of degrees [lo, hi] in every part."""
        return np.concatenate([off + p.degree_indices(lo, hi)
                               for off, p in zip(self.offsets(), self.parts)])

    def window_indices(self, w: int) -> np.ndarray:
        """Flat indices of degrees [-w, w] in every part, clipped to the stored
        range (so [0, w] in a Hardy part); w < 0 is empty."""
        return self.degree_indices(-w, w)

    def shift_targets(self, kinds: tuple[str, ...]) -> np.ndarray:
        """The block shift X that moves each part one degree "forward" or
        "backward" (one entry of ``kinds`` per part), as an index map:
        entry i is the flat index X moves index i to, one fiber along
        inside i's part, or -1 where that leaves the part."""
        check_size("the block shift's index map", self.dim)
        targets = []
        for off, part, kind in zip(self.offsets(), self.parts, kinds):
            step = part.fiber_dim if kind == "forward" else -part.fiber_dim
            moved = np.arange(part.dim) + step
            targets.append(np.where((moved >= 0) & (moved < part.dim), moved + off, -1))
        return np.concatenate(targets)


@dataclass(frozen=True)
class SubspaceBasis:
    """Orthonormal basis of a subspace of a (product of) truncated space(s),
    held as the entries of its columns.

    The maker guarantees orthonormality, so it is not checked here: the
    columns come from an SVD helper in ``linalg`` or are multiples of an
    isometry-valued symbol (see ``bilateral_subspace``).  The test
    ``TestEveryBasisIsOrthonormal`` measures every basis the CLI builds.

    ``window`` is bookkeeping only: the degree window the columns were
    computed on, carried along so downstream comparisons default to it.
    """

    ambient: ProductSpace
    basis: Triplets
    window: int | None = None

    def __post_init__(self):
        if self.basis.rows.size and self.basis.rows.max() >= self.ambient.dim:
            raise ValueError(f"basis row {self.basis.rows.max()} is outside the ambient "
                             f"of dim {self.ambient.dim}")

    @property
    def dim(self) -> int:
        return extent(self.basis, 1)


class _Block(NamedTuple):
    """One block of a block operator: the symbol and whether the block is
    its Hankel (True) or its Toeplitz (False) truncation."""

    hankel: bool
    sym: LaurentSymbol


@dataclass(frozen=True)
class OperatorMatrix:
    """Matrix between truncated spaces with an exactness window, held only as
    its entries != 0, each position once, in the order its builder emits
    them.

    ``exact_window = w`` means: for inputs supported on the domain's
    window-w degrees, applying the matrix agrees with the untruncated
    operator (whose output then also fits inside the codomain).  A value
    of -1 means no input degree is exact at this truncation.  ``blocks``
    lists the blocks of a block operator in the order they were assembled,
    so ``leading_section`` can give each shallower truncation its window.
    """

    domain: ProductSpace
    codomain: ProductSpace
    entries: Triplets
    exact_window: int
    blocks: tuple[_Block, ...] = ()

    def __post_init__(self):
        for index, dim in ((self.entries.rows, self.codomain.dim),
                           (self.entries.cols, self.domain.dim)):
            if index.size and not 0 <= index.min() <= index.max() < dim:
                raise ValueError(f"an entry lies outside the {self.codomain.dim} x "
                                 f"{self.domain.dim} matrix")


def multiplication_entries(sym: LaurentSymbol, in_lo: int, in_hi: int,
                           out_lo: int, out_hi: int) -> Triplets:
    """Entries != 0 of the matrix of h |-> S h from input degrees
    [in_lo, in_hi] to output degrees [out_lo, out_hi]; output degrees
    outside that range are dropped.

    Degree block (j, i) is the coefficient of z**(j-i).  Toeplitz and
    Hankel truncations and the bilateral generators all come from these
    entries.  An entry == 0 (-0.0 too) is left out, as m != 0 leaves it
    out; the list runs over the nonzero coefficients, each a row-major
    run, and is checked against the size cap before any index is made (a
    zero symbol, whose one run is empty, makes none).
    """
    r, c = sym.rows, sym.cols
    blocks = [(sym.kmin + i, sym.coeffs[i]) for i in sym.terms or [0]]  # [0]: one empty run
    spans = [(k, blk, *np.nonzero(blk), max(in_lo, out_lo - k), min(in_hi, out_hi - k))
             for k, blk in blocks]
    check_size(f"the entry list of a {r}x{c} symbol on input degrees {in_lo}..{in_hi}",
               sum(a.size * max(0, hi - lo + 1) for _, _, a, _, lo, hi in spans))
    rows, cols, vals = [], [], []
    for k, blk, a, b, lo, hi in spans:
        i = np.arange(lo, hi + 1 if a.size else lo)[:, None]  # a zero block makes no index
        rows.append(((i + k - out_lo) * r + a).ravel())
        cols.append(((i - in_lo) * c + b).ravel())
        vals.append(np.tile(blk[a, b], i.size))
    return Triplets(*map(np.concatenate, (rows, cols, vals)))


def toeplitz_op(sym: LaurentSymbol, n: int) -> OperatorMatrix:
    """Truncation of h |-> P[S h] on degree-n Hardy windows.

    Degree block (j, i) of the matrix is the coefficient of z**(j-i).
    Exact window: n - max(kmax, 0), since the symbol raises degrees by
    at most kmax.
    """
    return _block_operator(n, (sym.rows,), (sym.cols,), [[_Block(False, sym)]])


def _toeplitz(sym: LaurentSymbol, n: int) -> Triplets:
    """The entries of ``toeplitz_op``."""
    return multiplication_entries(sym, 0, n, 0, n)


def _hankel(sym: LaurentSymbol, n: int) -> Triplets:
    """The entries of the truncation of h |-> PJ[S h] on degree-n
    Hardy windows, J sending z**k to z**(-k-1).

    Degree block (j, i) is the coefficient of z**(-(j+i+1)), so only the
    anti-analytic part of the symbol enters.  The convention is pinned by
    the scalar example S = zbar, whose matrix is E00 (h |-> h(0)).  When
    the anti-analytic band is deeper than n+1 the entries are still formed
    (top-left corner of the infinite matrix) but the window is -1: no
    input is exact (``_window``).
    """
    # output degrees -n-1 .. -1 of S h sit on row blocks 0 .. n, and J
    # sends row block p (degree p - n - 1) to degree n - p
    t = multiplication_entries(sym, 0, n, -n - 1, -1)
    block, fiber = np.divmod(t.rows, sym.rows)
    return Triplets((n - block) * sym.rows + fiber, t.cols, t.vals)


def _window(block: _Block, n: int) -> int:
    """The exactness window of one block at truncation n: n less the top
    degree of a Toeplitz block's symbol, and n for a Hankel block unless its
    anti-analytic band is deeper than n + 1, then -1.  A Toeplitz block
    whose band is wider than n raises ValueError."""
    s = block.sym
    if block.hankel:
        return n if max(0, -s.kmin) <= n + 1 else -1
    if n < max(abs(s.kmin), s.kmax):
        raise ValueError(f"truncation n = {n} is smaller than the symbol band "
                         f"[{s.kmin}, {s.kmax}]")
    return n - max(s.kmax, 0)


def _require_analytic(sym: LaurentSymbol, name: str) -> None:
    if not sym.is_analytic():
        raise ValueError(
            f"block {name} must be analytic; found coefficients down to "
            f"index {sym.kmin}"
        )


def _block_operator(n: int, rows: tuple[int, ...], cols: tuple[int, ...],
                    blocks: list[list[_Block]]) -> OperatorMatrix:
    """The block operator of the blocks from the degree-n Hardy windows of
    the fibers cols to those of the fibers rows: block by block, its window
    (which checks its band) and its entries, offset to its place and
    concatenated as they come, with one window, the minimum over the
    blocks."""
    dom, cod = (ProductSpace.of(*(TruncatedSpace.hardy(d, n) for d in f)) for f in (cols, rows))
    built = [[(_window(b, n), (_hankel if b.hankel else _toeplitz)(b.sym, n)) for b in row]
             for row in blocks]
    check_size("a block operator's entry list", sum(t.rows.size for r in built for _, t in r))
    parts = [Triplets(t.rows + cod.offsets()[i], t.cols + dom.offsets()[j], t.vals)
             for i, row in enumerate(built) for j, (_, t) in enumerate(row)]
    return OperatorMatrix(dom, cod, Triplets(*map(np.concatenate, zip(*parts))),
                          min(w for row in built for w, _ in row),
                          tuple(b for row in blocks for b in row))


def _leading(index: np.ndarray, space: ProductSpace, m: int) -> np.ndarray:
    """Each flat index of the Hardy product space renumbered into its
    degree-m section (degrees 0..m of each part), or -1 where its degree is
    above m, in time linear in the indices, not in space.dim."""
    starts = np.array(space.offsets())
    part = np.searchsorted(starts, index, side="right") - 1
    local = index - starts[part]
    width = np.array([p.fiber_dim for p in space.parts]) * (m + 1)
    return np.where(local < width[part], (np.cumsum(width) - width)[part] + local, -1)


def leading_section(op: OperatorMatrix, m: int) -> OperatorMatrix:
    """The truncation at m of the block operator op, built here at a
    truncation n >= m: its leading section, degrees 0..m of each part on
    rows and on columns.

    Finite sections of Toeplitz and Hankel operators nest, the m-section
    being the top-left corner of the n-section (Boettcher & Silbermann,
    Analysis of Toeplitz Operators, 2nd ed., 2006), and the builder emits
    each block's coefficients over ascending input degrees, so the kept
    entries, renumbered, in their order, are the runs the builder emits at
    m: the section is the builder's operator at m, entry for entry, in
    order.  Its window is the builder's at m, each Toeplitz block's band
    checked as the builder checks it.
    """
    n = op.domain.parts[0].deg_hi
    if not 0 <= m <= n:
        raise ValueError(f"truncation {m} is not a leading section of truncation {n}")
    if m == n:
        return op
    window = min(_window(b, m) for b in op.blocks)
    rows = _leading(op.entries.rows, op.codomain, m)
    cols = _leading(op.entries.cols, op.domain, m)
    keep = (rows >= 0) & (cols >= 0)
    dom, cod = (ProductSpace.of(*(TruncatedSpace.hardy(p.fiber_dim, m) for p in space.parts))
                for space in (op.domain, op.codomain))
    return OperatorMatrix(dom, cod, Triplets(rows[keep], cols[keep], op.entries.vals[keep]),
                          window, op.blocks)


def build_range_operator(phi: LaurentSymbol, dim_e: int, n: int) -> OperatorMatrix:
    """Mixed block operator [T_A, T_B; H_C, H_D] of phi = [A, B; C, D] on
    paired Hardy windows, dim E = dim_e.

    The top row maps into the first fiber and must be analytic; the bottom
    row feeds the Hankel row and may have any band.  Ranges of these
    operators realize invariant subspaces of the forward-plus-backward shift.
    """
    a, b, c, d = split_square_blocks(phi, dim_e)
    _require_analytic(a, "A")
    _require_analytic(b, "B")
    dims = (dim_e, phi.rows - dim_e)
    return _block_operator(n, dims, dims, [[_Block(False, a), _Block(False, b)],
                                           [_Block(True, c), _Block(True, d)]])


def build_kernel_operator(psi: LaurentSymbol, dim_e: int, n: int) -> OperatorMatrix:
    """Mixed block operator [H_C*, T_A*; H_D*, T_B*] of psi = [C, D; A, B] on
    paired Hardy windows, dim E = dim_e: the adjoint of [H_C, H_D; T_A, T_B].

    The bottom row must be analytic.  Kernels of these operators realize
    invariant subspaces of the forward-plus-backward shift.
    """
    c, d, a, b = split_square_blocks(psi, dim_e)
    _require_analytic(a, "A")
    _require_analytic(b, "B")
    # H_S^* equals the Hankel matrix of the symbol with each coefficient
    # conjugate-transposed in place; T_S^* is the Toeplitz matrix of S^*.
    dims = (dim_e, psi.rows - dim_e)
    return _block_operator(n, dims, dims,
                           [[_Block(True, c.entry_conj()), _Block(False, a.adjoint())],
                            [_Block(True, d.entry_conj()), _Block(False, b.adjoint())]])


def block_shifted(t: Triplets, axis: int, space: ProductSpace,
                  kinds: tuple[str, ...]) -> Triplets:
    """The entries of X m (axis 0) or of m X^T (axis 1), for the matrix m
    that t lists and the block shift X of ``space.shift_targets(kinds)``:
    the row or column index of each entry moves to its target, and an entry
    with none drops out."""
    return _renumbered(t, axis, space.shift_targets(kinds))


def _penrose_defect(v: Triplets) -> float:
    """An upper bound, up to rounding, on ||V V* V - V||_F for the matrix V
    that v lists, which is the same for V* and for V's nonzero core:
    ||W G - W||_F for W the one of V and V* with no more nonzero columns
    than rows, the short side, and G = W* W, the smaller Gram matrix, by
    ``_gram`` on W, unscaled: G_jj (G_jj - 1)^2 is not scale-invariant.

    G's entries off the diagonal that ``_gram`` joins, of cosine above
    NEGLIGIBLE eps, are kept, the others form X, and a column is
    coupled when a kept entry lies in its row or its column (both ends: the
    computed G need not be bit-Hermitian).  W G - W is (W G' - W) + W X, G'
    being G without X: an uncoupled column j of W G' - W is (G_jj - 1) w_j,
    the coupled ones are W_c G_cc - W_c on the coupled columns alone, and
    ||W X||_F <= ||W||_2 ||X||_F, ||W||_2^2 = ||G||_2 being at most G's
    largest absolute row sum.  So the bound is

        sqrt(sum over uncoupled j of G_jj (G_jj - 1)^2 + ||W_c G_cc - W_c||_F^2)
            + sqrt(max_j sum_k |G_jk|) ||X||_F,

    the product sparse under the term budget of V's nonzero core, with no
    product at all when no column is coupled.  Past that budget, for G or
    for the product, the bound is inf, which certifies nothing: a dense
    core costs the SVD's order either way, and the SVD decides."""
    rows, cols = (np.count_nonzero(np.bincount(x)) for x in v[:2])
    w = v if rows >= cols else _adjoint(v)
    found = _gram(w, rows * cols)
    if found is None:
        return np.inf
    gram, norm2, kept = found
    j, k, g = gram
    dropped = float(np.linalg.norm(g[(j != k) & ~kept]))
    coupled = np.zeros(norm2.size, dtype=bool)
    coupled[j[kept]] = coupled[k[kept]] = True
    lone = norm2[~coupled]
    wc = Triplets(*(x[coupled[w.cols]] for x in w))
    # with no coupled column there is nothing to multiply
    image = sparse_product(wc, Triplets(*(x[coupled[j] & coupled[k]] for x in gram)),
                           rows * cols) if wc.rows.size else wc
    if image is None:
        return np.inf
    squares = np.sum(lone * (lone - 1.0) ** 2) \
        + np.linalg.norm(sparse_difference(image, wc).vals) ** 2
    spread = np.sqrt(np.bincount(j, np.abs(g)).max()) * dropped if dropped else 0.0
    return float(np.sqrt(squares) + spread)


def _penrose_certified(v: Triplets, tol: float) -> bool:
    """True only when every singular value of the matrix V that v lists is
    within tol of 0 or 1.

    E = V (V* V) - V has singular values s |s^2 - 1| over V's s.  Each s
    outside the band gives at least tol (1 - tol^2), the value at s = tol
    (conservative for tol >= 1/2, never passing for tol >= 1), so a smaller
    ||E||_F leaves no s outside it, and ``_penrose_defect`` bounds ||E||_F
    from above.  PENROSE_MARGIN covers the rounding of the products.
    """
    return _penrose_defect(v) < PENROSE_MARGIN * tol * (1.0 - tol * tol)


def _binary_singular_values(m: Triplets, tol: float) -> bool:
    """Every singular value of the matrix the entry list m describes within
    tol of 0 or 1, by the values-only SVD of its connected blocks."""
    sv = singular_values(m)
    return bool(np.all((sv <= tol) | (np.abs(sv - 1.0) <= tol)))


def svd_analysis(op: OperatorMatrix, tol: float = DEFAULT_TOL) -> bool:
    """Partial-isometry flag of the truncated matrix on its exactness window.

    True when every singular value of a window compression is within tol
    of 0 or 1.  An operator is a partial isometry iff its adjoint is, and
    depending on which of the kernel or co-kernel is graded by degree only
    one of the two compressions stays binary, so the flag is (codomain
    rows binary) or (domain columns binary).  The codomain side is tried
    first and decides every mixed operator of the demos; the domain side
    is computed only when it does not, and only when it is a different
    matrix: a window that keeps every row and every column (the kernel
    operator's) compresses both sides to the whole matrix.  An empty
    window certifies nothing.

    Each side is first tried with the Penrose identity V V* V = V, which
    holds exactly for partial isometries (Halmos & McLaughlin, Pacific J.
    Math. 13, 1963), on the operator's nonzero entries inside the window:
    every singular value outside the band keeps ||V V* V - V||_F away from
    0, and ``_penrose_defect`` bounds that norm from the sparse Gram matrix
    and a product on the few columns it couples, so a small enough bound
    passes the side without an SVD.  The certificate is sufficient, never
    necessary: a side it does not pass goes, as the same entry list, to the
    values-only SVD of its connected blocks, which alone can reject, so
    every verdict is the SVD's.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    rows = op.codomain.window_indices(op.exact_window)
    cols = op.domain.window_indices(op.exact_window)
    sides = [(rows, 0, op.codomain.dim)]
    if rows.size < op.codomain.dim or cols.size < op.domain.dim:
        sides.append((cols, 1, op.domain.dim))
    for keep, axis, dim in sides:
        side = _within(op.entries, axis, keep, dim)
        if keep.size and (_penrose_certified(side, tol) or _binary_singular_values(side, tol)):
            return True
    return False


def intertwining_residual(op: OperatorMatrix, kind: str) -> float:
    """Residual of the shift intertwining identity on the exact window.

    kind "range":  || X V - V Y ||  with X = fwd (+) bwd, Y = fwd (+) fwd;
    kind "kernel": || W X - Y* W ||.
    Both identities hold exactly for the untruncated operators, so the
    window-compressed residual of a correct truncation is at float level.

    A shift moves entries, so both products are the operator's nonzero
    entries with their row or column indices moved; entries of the two
    that meet at one position are subtracted, and only the window columns
    are kept.  Equal entries cancel exactly, which leaves nothing on the
    mixed operators of the demos and the benchmark, and the residual is
    then exactly 0.0.  Otherwise its spectral norm is taken from the
    connected blocks of the residual's entries.
    """
    if kind not in ("range", "kernel"):
        raise ValueError(f"unknown intertwining kind {kind!r}")
    v, space = op.entries, op.domain
    n = space.parts[0].deg_hi
    # a product V Y with a shift Y on the right moves column indices by Y^T,
    # and the transpose of a forward shift is the backward one
    if kind == "range":
        pair = (block_shifted(v, 0, op.codomain, ("forward", "backward")),
                block_shifted(v, 1, space, ("backward", "backward")))
        w = min(op.exact_window, n) - 1
    else:
        pair = (block_shifted(v, 1, space, ("backward", "forward")),
                block_shifted(v, 0, op.codomain, ("backward", "backward")))
        w = min(op.exact_window, n - 1)
    if w < 0:
        raise ValueError("empty exactness window: truncation too small")
    cols = space.window_indices(w)
    resid = sparse_difference(*(_within(t, 1, cols, space.dim) for t in pair))
    return spectral_norm(resid)


def nehari_lower_bound(op: OperatorMatrix) -> float:
    """Window-compressed spectral norm of a truncated mixed range operator:
    a lower bound for the norm of the untruncated operator, taken by
    ``sparse_norm``'s Lanczos iteration on the operator's nonzero entries in
    the window columns, with no Gram matrix and no SVD."""
    cols = op.domain.window_indices(op.exact_window)
    return sparse_norm(_within(op.entries, 1, cols, op.domain.dim))


def nehari_bounds(phi: LaurentSymbol, dim_e: int,
                  candidates: Sequence[tuple[LaurentSymbol, LaurentSymbol]]) -> list[float]:
    """Upper bounds for the norm of the mixed range operator of phi, the
    norm that ``nehari_lower_bound`` bounds from below at each truncation.

    For each analytic candidate pair (L1, L2), the sampled sup-norm of
    phi - [0, 0; L1, L2] over the circle, since subtracting analytic
    symbols from the Hankel row does not change the operator: the largest
    singular value over the chunks of ``circle_values``.  The sample count
    follows the widest block band, not the band of the whole symbol.
    """
    upper = []
    dim_f = phi.rows - dim_e
    for l1, l2 in candidates:
        _require_analytic(l1, "L1")
        _require_analytic(l2, "L2")
        if l1.shape != (dim_f, dim_e) or l2.shape != (dim_f, dim_f):
            raise ValueError("candidate completion shapes must match C and D")
        completed = phi - block_symbol([[zero_symbol(dim_e, dim_e), zero_symbol(dim_e, dim_f)],
                                        [l1, l2]])
        band = max(s.bandwidth for s in split_square_blocks(completed, dim_e))
        upper.append(max(float(np.linalg.svd(values, compute_uv=False)[:, 0].max())
                         for values in circle_values(completed, 4 * band + 1)))
    return upper

