"""Matrix-valued Laurent polynomial symbols with exact coefficient algebra.

A symbol is a finite sum ``S(z) = sum_k S_k z**k`` with complex matrix
coefficients, understood as a function on the unit circle.  Products,
adjoints and isometry classification all work at the coefficient level,
so algebraic identities are exact (no circle sampling involved); only
``circle_values``, which rank profiles and the Nehari upper bounds read,
samples the circle.
"""

from collections.abc import Iterator
from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np

from .linalg import numerical_rank

CLASSIFY_TOL = 1e-10


class IsometryKind(Enum):
    ZERO = "zero"
    NONE = "none"
    ISOMETRY = "isometry_valued"
    COISOMETRY = "coisometry_valued"
    UNITARY = "unitary_valued"
    PARTIAL_ISOMETRY = "partial_isometry_valued"


@dataclass(frozen=True, eq=False)
class LaurentSymbol:
    """Finite matrix Laurent polynomial.

    ``coeffs`` has shape ``(nk, rows, cols)``; ``coeffs[i]`` is the
    coefficient of ``z**(kmin + i)``.  Canonical form: the extreme
    coefficients are nonzero unless the symbol is identically zero,
    which is stored with ``kmin == 0`` and a single zero coefficient.
    """

    rows: int
    cols: int
    kmin: int
    coeffs: np.ndarray

    def __post_init__(self):
        if self.coeffs.shape != (self.coeffs.shape[0], self.rows, self.cols):
            raise ValueError(
                f"coefficient stack shape {self.coeffs.shape} does not match "
                f"{self.rows}x{self.cols}"
            )

    @cached_property
    def terms(self) -> list[int]:
        """Stack positions of the nonzero coefficients, found once per symbol
        for ``circle_values`` and the loops of ``symbol_mul`` and ``_left_gram``."""
        return _nonzero_terms(self.coeffs)

    @cached_property
    def _isometry_class(self) -> "IsometryClass":
        """``classify_isometry``'s class of the symbol, found once: the
        symbol is frozen."""
        return _classified(self)

    @property
    def kmax(self) -> int:
        return self.kmin + self.coeffs.shape[0] - 1

    @property
    def bandwidth(self) -> int:
        return self.kmax - self.kmin

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    def is_zero(self) -> bool:
        return self.max_abs_coeff() == 0.0

    def is_analytic(self, tol: float = 0.0) -> bool:
        """True when every coefficient with negative index vanishes."""
        return self.anti_analytic_weight() <= tol

    def anti_analytic_weight(self) -> float:
        """Largest coefficient magnitude carried by negative indices."""
        cut = min(-self.kmin, self.coeffs.shape[0])
        if cut <= 0:
            return 0.0
        return float(np.max(np.abs(self.coeffs[:cut])))

    def adjoint(self) -> "LaurentSymbol":
        """Pointwise adjoint on the circle: coefficient k becomes coeff(-k)^H."""
        flipped = self.coeffs[::-1].conj().transpose(0, 2, 1)
        return _canonical(self.cols, self.rows, -self.kmax, flipped)

    def conj_arg(self) -> "LaurentSymbol":
        """Substitute conjugate argument: S(z) -> S(zbar), index negation only."""
        return _canonical(self.rows, self.cols, -self.kmax, self.coeffs[::-1].copy())

    def entry_conj(self) -> "LaurentSymbol":
        """Entrywise conjugate-transpose of every coefficient (no index flip)."""
        return _canonical(self.cols, self.rows, self.kmin,
                          self.coeffs.conj().transpose(0, 2, 1))

    def max_abs_coeff(self) -> float:
        return float(np.max(np.abs(self.coeffs)))

    def __matmul__(self, other: "LaurentSymbol") -> "LaurentSymbol":
        return symbol_mul(self, other)

    def __add__(self, other: "LaurentSymbol") -> "LaurentSymbol":
        if other.shape != self.shape:
            raise ValueError(f"shape mismatch {self.shape} vs {other.shape}")
        kmin = min(self.kmin, other.kmin)
        kmax = max(self.kmax, other.kmax)
        out = np.zeros((kmax - kmin + 1, self.rows, self.cols), dtype=complex)
        out[self.kmin - kmin:self.kmax - kmin + 1] += self.coeffs
        out[other.kmin - kmin:other.kmax - kmin + 1] += other.coeffs
        return _canonical(self.rows, self.cols, kmin, out)

    def __neg__(self) -> "LaurentSymbol":
        return _canonical(self.rows, self.cols, self.kmin, -self.coeffs)

    def __sub__(self, other: "LaurentSymbol") -> "LaurentSymbol":
        return self + (-other)

    def __repr__(self) -> str:
        return (f"LaurentSymbol({self.rows}x{self.cols}, "
                f"degrees [{self.kmin}, {self.kmax}])")


def _nonzero_terms(coeffs: np.ndarray) -> list[int]:
    """Stack positions of the coefficients with an entry != 0.

    Loops over terms visit only these: a zero coefficient adds exact
    zeros, so skipping it leaves every sum bit-identical.
    """
    return np.flatnonzero(coeffs.any(axis=(1, 2))).tolist()


def _canonical(rows: int, cols: int, kmin: int, coeffs: np.ndarray) -> LaurentSymbol:
    """Trim zero extreme coefficients; collapse the zero symbol to k = 0."""
    coeffs = np.ascontiguousarray(np.asarray(coeffs, dtype=complex))
    nz = _nonzero_terms(coeffs)
    if not nz:
        return LaurentSymbol(rows, cols, 0, np.zeros((1, rows, cols), dtype=complex))
    lo, hi = nz[0], nz[-1]
    return LaurentSymbol(rows, cols, kmin + lo, coeffs[lo:hi + 1])


def make_symbol(rows: int, cols: int, coeffs: dict) -> LaurentSymbol:
    """Build a symbol from ``{k: matrix}``; gaps inside the band are filled
    with zero matrices.  An empty dict is rejected: use zero_symbol."""
    if not coeffs:
        raise ValueError("no coefficients; use zero_symbol for the zero symbol")
    kmin = int(min(coeffs))
    out = np.zeros((int(max(coeffs)) - kmin + 1, rows, cols), dtype=complex)
    for k, m in coeffs.items():
        m = np.asarray(m, dtype=complex)
        if m.size != rows * cols:
            raise ValueError(f"coefficient at index {k} has {m.size} entries, "
                             f"expected {rows}x{cols}")
        out[k - kmin] = m.reshape(rows, cols)
    return _canonical(rows, cols, kmin, out)


def zero_symbol(rows: int, cols: int) -> LaurentSymbol:
    return LaurentSymbol(rows, cols, 0, np.zeros((1, rows, cols), dtype=complex))


def constant_symbol(matrix) -> LaurentSymbol:
    m = np.atleast_2d(np.asarray(matrix, dtype=complex))
    return _canonical(m.shape[0], m.shape[1], 0, m[None, :, :])


def identity_symbol(dim: int) -> LaurentSymbol:
    return constant_symbol(np.eye(dim))


def monomial_symbol(k: int, matrix) -> LaurentSymbol:
    m = np.atleast_2d(np.asarray(matrix, dtype=complex))
    return _canonical(m.shape[0], m.shape[1], k, m[None, :, :])


def symbol_mul(s1: LaurentSymbol, s2: LaurentSymbol) -> LaurentSymbol:
    """Pointwise product on the circle via coefficient convolution."""
    if s1.cols != s2.rows:
        raise ValueError(
            f"inner dimensions differ: {s1.rows}x{s1.cols} times {s2.rows}x{s2.cols}"
        )
    kmin = s1.kmin + s2.kmin
    n1, n2 = s1.coeffs.shape[0], s2.coeffs.shape[0]
    out = np.zeros((n1 + n2 - 1, s1.rows, s2.cols), dtype=complex)
    for i in s1.terms:
        for j in s2.terms:
            out[i + j] += s1.coeffs[i] @ s2.coeffs[j]
    return _canonical(s1.rows, s2.cols, kmin, out)


def submatrix(s: LaurentSymbol, row_idx, col_idx) -> LaurentSymbol:
    """Extract a block by row/column index lists (or slices)."""
    sub = s.coeffs[:, row_idx, :][:, :, col_idx]
    return _canonical(sub.shape[1], sub.shape[2], s.kmin, sub)


def split_fiber_rows(s: LaurentSymbol, dim_e: int) -> tuple[LaurentSymbol, LaurentSymbol]:
    """Rows (first fiber, second fiber) of a symbol into E (+) F, dim E = dim_e."""
    if not 0 < dim_e < s.rows:
        raise ValueError(f"first fiber dimension {dim_e} does not split {s.rows} rows")
    cols = range(s.cols)
    return submatrix(s, range(dim_e), cols), submatrix(s, range(dim_e, s.rows), cols)


def split_square_blocks(s: LaurentSymbol, dim_e: int) -> tuple[LaurentSymbol, ...]:
    """Blocks (top-left, top-right, bottom-left, bottom-right) of a square
    symbol on E (+) F, dim E = dim_e."""
    if s.rows != s.cols:
        raise ValueError(f"symbol of shape {s.shape} is not square")
    return tuple(submatrix(half, range(half.rows), cols)
                 for half in split_fiber_rows(s, dim_e)
                 for cols in (range(dim_e), range(dim_e, s.cols)))


def block_symbol(grid) -> LaurentSymbol:
    """Assemble a symbol from a 2D grid of block symbols."""
    row_heights = [row[0].rows for row in grid]
    col_widths = [blk.cols for blk in grid[0]]
    for row in grid:
        if len(row) != len(col_widths):
            raise ValueError("ragged block grid")
        for blk, w in zip(row, col_widths):
            if blk.cols != w:
                raise ValueError("inconsistent block widths")
        if any(blk.rows != row[0].rows for blk in row):
            raise ValueError("inconsistent block heights")
    kmin = min(blk.kmin for row in grid for blk in row)
    kmax = max(blk.kmax for row in grid for blk in row)
    rows, cols = sum(row_heights), sum(col_widths)
    out = np.zeros((kmax - kmin + 1, rows, cols), dtype=complex)
    r0 = 0
    for row in grid:
        c0 = 0
        for blk in row:
            lo = blk.kmin - kmin
            out[lo:lo + blk.coeffs.shape[0], r0:r0 + blk.rows, c0:c0 + blk.cols] = blk.coeffs
            c0 += blk.cols
        r0 += row[0].rows
    return _canonical(rows, cols, kmin, out)


def unit_circle_points(num_samples: int) -> np.ndarray:
    """Fixed deterministic sampling grid: num_samples-th roots of unity."""
    return np.exp(2j * np.pi * np.arange(num_samples) / num_samples)


def circle_values(sym: LaurentSymbol, count: int) -> Iterator[np.ndarray]:
    """The values of sym at the count-th roots of unity z_j, in order of j,
    as (chunk, rows, cols) stacks, each evaluated at once over sym's nonzero
    terms.  z_j**k is taken as the root of index k j mod count, so a large k
    loses no accuracy.  A chunk's index and value arrays hold at most a
    quarter of the entries of sym's coefficient stack, which the parse-time
    cap bounds."""
    roots = unit_circle_points(count)
    terms = np.array(sym.terms, dtype=int)
    powers = sym.kmin + terms
    coeffs = sym.coeffs[terms].reshape(terms.size, sym.rows * sym.cols)
    step = max(1, sym.coeffs.size // (4 * max(terms.size, coeffs.shape[1])))
    for lo in range(0, count, step):
        at = np.arange(lo, min(lo + step, count))
        yield (roots[np.outer(at, powers) % count] @ coeffs).reshape(-1, sym.rows, sym.cols)


@dataclass(frozen=True)
class IsometryClass:
    kind: IsometryKind
    residual: float


def _left_gram(s: LaurentSymbol) -> dict[int, np.ndarray]:
    """G(m) = sum_j S_j^H S_(j+m) at every lag m = i - j of two nonzero
    terms; G is zero at every other lag, so S is isometry-valued iff
    G(0) = I and every listed G(m), m != 0, is 0."""
    gram = {}
    for j in s.terms:
        for i in s.terms:
            lag = gram.setdefault(i - j, np.zeros((s.cols, s.cols), dtype=complex))
            lag += s.coeffs[j].conj().T @ s.coeffs[i]
    return gram


def classify_isometry(s: LaurentSymbol) -> IsometryClass:
    """Classify S by the exact coefficient convolutions of S^H S and S S^H.

    Partial-isometry-valued means S(z)^H S(z) is one fixed orthogonal
    projection for every unit-modulus z; isometry-valued additionally has
    the projection equal to the identity.  Coisometry/unitary use the dual
    product S(z) S(z)^H.  The residual reports the maximal violation of
    the identities backing the returned kind.  The class is found once per
    symbol object and kept on it, as its ``terms`` are.
    """
    return s._isometry_class


def _classified(s: LaurentSymbol) -> IsometryClass:
    """The class ``classify_isometry`` returns, computed."""
    if s.is_zero():
        return IsometryClass(IsometryKind.ZERO, 0.0)
    left = _left_gram(s)
    right = _left_gram(s.adjoint())
    off_left = max((np.max(np.abs(g)) for m, g in left.items() if m != 0), default=0.0)
    off_right = max((np.max(np.abs(g)) for m, g in right.items() if m != 0), default=0.0)
    g0, h0 = left[0], right[0]
    eye_l = np.eye(s.cols)
    eye_r = np.eye(s.rows)
    v_iso = max(off_left, float(np.max(np.abs(g0 - eye_l))))
    v_coiso = max(off_right, float(np.max(np.abs(h0 - eye_r))))
    v_unitary = max(v_iso, v_coiso)
    v_partial = max(
        off_left,
        float(np.max(np.abs(g0 @ g0 - g0))),
        float(np.max(np.abs(g0 - g0.conj().T))),
    )
    if v_unitary <= CLASSIFY_TOL:
        return IsometryClass(IsometryKind.UNITARY, v_unitary)
    if v_iso <= CLASSIFY_TOL:
        return IsometryClass(IsometryKind.ISOMETRY, v_iso)
    if v_coiso <= CLASSIFY_TOL:
        return IsometryClass(IsometryKind.COISOMETRY, v_coiso)
    if v_partial <= CLASSIFY_TOL:
        return IsometryClass(IsometryKind.PARTIAL_ISOMETRY, v_partial)
    return IsometryClass(IsometryKind.NONE, min(v_partial, v_coiso))


def accepts_partial_isometry(cls: IsometryClass) -> bool:
    """Kinds for which S(z)^H S(z) is a fixed orthogonal projection."""
    return cls.kind in (
        IsometryKind.ZERO,
        IsometryKind.ISOMETRY,
        IsometryKind.UNITARY,
        IsometryKind.PARTIAL_ISOMETRY,
    )


def rank_profile(s: LaurentSymbol, num_samples: int) -> list[int]:
    """Numerical rank of S at the num_samples-th roots of unity: one
    values-only SVD and one ``numerical_rank`` per chunk of
    ``circle_values``."""
    if num_samples < 2 * s.bandwidth + 1:
        raise ValueError(
            f"num_samples = {num_samples} undersamples a bandwidth-{s.bandwidth} symbol"
        )
    return [rank for values in circle_values(s, num_samples)
            for rank in numerical_rank(np.linalg.svd(values, compute_uv=False)).tolist()]


def make_cyclic_symbol(poles, weights, degree: int) -> LaurentSymbol:
    """Scalar anti-analytic symbol whose flipped-coefficient matrix has rank
    equal to the number of poles once the truncation is at least that deep.

    The coefficient of z**(-k) is sum_j c_j * lambda_j**(k-1) for
    1 <= k <= degree; the analytic part is zero.
    """
    poles = [complex(p) for p in poles]
    weights = [complex(w) for w in weights]
    if len(poles) != len(weights):
        raise ValueError("poles and weights must have equal length")
    if len(set(poles)) != len(poles):
        raise ValueError("poles must be distinct")
    for p in poles:
        if abs(p) >= 1.0:
            raise ValueError(f"pole {p} is not inside the open unit disk")
    if not poles or degree <= 0:
        return zero_symbol(1, 1)
    coeffs = {}
    for k in range(1, degree + 1):
        coeffs[-k] = [[sum(c * p ** (k - 1) for c, p in zip(weights, poles))]]
    return make_symbol(1, 1, coeffs)
