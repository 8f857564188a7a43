"""Invariant subspaces of the forward-plus-backward shift at finite truncation.

The central construction: a subspace of the paired Hardy window that is
invariant under (forward shift) (+) (backward shift) corresponds to a
bilateral-shift invariant subspace of the two-sided window, pinned down
by a column-isometry symbol U (simply invariant part) and optionally a
column symbol Omega feeding a doubly invariant part.  This module builds
both sides of the correspondence, verifies the admissibility conditions,
and checks kernel/range representations through the mixed operators.

All subspace work happens in a degree window shrunk from the truncation
by the symbol bands, so truncation artifacts never enter comparisons;
windows are reported in every verification result.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .linalg import (
    Triplets,
    _within,
    column_space,
    extent,
    image_within,
    intersection,
    nullspace,
    principal_angle_distance,
    project,
    sparse_difference,
    spectral_norm,
    times,
)
from .operators import (
    DEFAULT_TOL,
    OperatorMatrix,
    ProductSpace,
    SubspaceBasis,
    TruncatedSpace,
    multiplication_entries,
    shift_rows,
    toeplitz_op,
)
from .symbols import (
    IsometryKind,
    LaurentSymbol,
    accepts_partial_isometry,
    block_symbol,
    classify_isometry,
    monomial_symbol,
    rank_profile,
    split_fiber_rows,
    split_square_blocks,
    symbol_mul,
    zero_symbol,
)

TYPE_I = "type_i"
TYPE_II = "type_ii"
KERNEL_REP = "kernel_rep"
RANGE_REP = "range_rep"
VARIANTS = (TYPE_I, TYPE_II, KERNEL_REP, RANGE_REP)


class SpecValidationError(ValueError):
    """Raised when an invariant-subspace description is malformed."""


@dataclass(frozen=True)
class InvariantSubspaceSpec:
    """Declarative description of an invariant subspace.

    ``u`` and ``omega`` carry the bilateral data (full height dim_e +
    dim_f; omega may also be given with dim_e rows, meaning it maps into
    the first fiber only).  ``psi``/``phi`` are optional square mixed
    symbols for kernel/range representation checks, ``theta`` an optional
    analytic column-isometry factor.
    """

    variant: str
    dim_e: int
    dim_f: int
    u: LaurentSymbol | None = None
    omega: LaurentSymbol | None = None
    psi: LaurentSymbol | None = None
    phi: LaurentSymbol | None = None
    theta: LaurentSymbol | None = None

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise SpecValidationError(f"unknown variant {self.variant!r}")
        if self.dim_e < 1 or self.dim_f < 1:
            raise SpecValidationError("fiber dimensions must be positive")
        dpf = self.dim_e + self.dim_f
        if self.variant == TYPE_I and self.u is None:
            raise SpecValidationError("type_i requires the field U")
        if self.variant == TYPE_I and self.omega is not None:
            raise SpecValidationError(
                "type_i takes no field Omega; a doubly invariant part makes it type_ii")
        if self.variant == TYPE_II and self.omega is None:
            raise SpecValidationError("type_ii requires the field Omega")
        if self.variant == KERNEL_REP and self.psi is None:
            raise SpecValidationError("kernel_rep requires the field Psi")
        if self.variant == RANGE_REP and self.phi is None:
            raise SpecValidationError("range_rep requires the field Phi")
        if self.u is not None and self.u.rows != dpf:
            raise SpecValidationError(
                f"field U has {self.u.rows} rows, expected dimE + dimF = {dpf}")
        if self.u is not None and self.u.cols > dpf:
            raise SpecValidationError(
                f"field U has {self.u.cols} columns, more than dimE + dimF = {dpf}")
        if self.omega is not None and self.omega.rows not in (self.dim_e, dpf):
            raise SpecValidationError(
                f"field Omega has {self.omega.rows} rows, expected dimE = "
                f"{self.dim_e} or dimE + dimF = {dpf}")
        if self.omega is not None and self.omega.cols > self.dim_e:
            raise SpecValidationError(
                "field Omega has more columns than dimE; the doubly invariant "
                "part lives inside the first fiber")
        if self.u is not None and self.omega is not None \
                and self.u.cols + self.omega.cols > dpf:
            raise SpecValidationError(
                f"fields U and Omega carry {self.u.cols} + {self.omega.cols} "
                f"columns, more than dimE + dimF = {dpf} admits")
        for name, sym in (("Psi", self.psi), ("Phi", self.phi)):
            if sym is not None and sym.shape != (dpf, dpf):
                raise SpecValidationError(
                    f"field {name} has shape {sym.shape}, expected square "
                    f"{(dpf, dpf)}")
        if self.theta is not None:
            expected = self.dim_f if self.variant == RANGE_REP else self.dim_e
            if self.theta.rows != expected:
                raise SpecValidationError(
                    f"field Theta has {self.theta.rows} rows, expected {expected}")

    @cached_property
    def mixed(self) -> dict[str, LaurentSymbol]:
        """The square mixed symbols by operator kind, "range" (Phi) then
        "kernel" (Psi): each as given, else derived from a type_i U; a kind
        with neither is absent.  Derived on first use, not at construction,
        since a U at a far degree is valid data whose derived stack need not
        fit in memory."""
        mixed = {"range": self.phi, "kernel": self.psi}
        if self.variant == TYPE_I:
            for kind, derive in (("range", range_symbol_from_u),
                                 ("kernel", kernel_symbol_from_u)):
                if mixed[kind] is None:
                    mixed[kind] = derive(self.u, self.dim_e, self.dim_f)
        return {kind: sym for kind, sym in mixed.items() if sym is not None}

    @cached_property
    def column_symbol(self) -> LaurentSymbol:
        """[U, Omega], Omega at full height: the column symbol of the
        generators of ``bilateral_subspace``, once per spec, so its class is
        found once per spec."""
        return block_symbol([[sym for sym in (self.u, self.omega_full()) if sym is not None]])

    @property
    def dim_e0(self) -> int:
        return self.u.cols if self.u is not None else 0

    @property
    def dim_e2(self) -> int:
        return self.omega.cols if self.omega is not None else 0

    def omega_full(self) -> LaurentSymbol | None:
        """Omega padded to full height (zero rows on the second fiber)."""
        if self.omega is None:
            return None
        if self.omega.rows == self.dim_e + self.dim_f:
            return self.omega
        return block_symbol([[self.omega], [zero_symbol(self.dim_f, self.omega.cols)]])

    def bilateral_symbols(self) -> list[LaurentSymbol]:
        out = []
        if self.u is not None:
            out.append(self.u)
        if self.omega is not None:
            out.append(self.omega)
        return out


@dataclass(frozen=True)
class CheckResult:
    name: str
    residual: float
    passed: bool
    window: int | None = None


@dataclass(frozen=True)
class VerificationReport:
    checks: tuple[CheckResult, ...]

    @property
    def overall(self) -> bool:
        return all(c.passed for c in self.checks)


def analytic_ambient(dim_e: int, dim_f: int, w: int) -> ProductSpace:
    return ProductSpace.of(TruncatedSpace.hardy(dim_e, w),
                           TruncatedSpace.hardy(dim_f, w))


def bilateral_ambient(dim_e: int, dim_f: int, n: int) -> ProductSpace:
    return ProductSpace.of(TruncatedSpace.lebesgue(dim_e, n),
                           TruncatedSpace.hardy(dim_f, n))


def default_window(spec: InvariantSubspaceSpec, n: int) -> int:
    band = max((s.bandwidth for s in spec.bilateral_symbols()), default=0)
    return n - band


def twocond_check(spec: InvariantSubspaceSpec,
                  tol: float = DEFAULT_TOL) -> VerificationReport:
    """Admissibility of the bilateral data (or of the representation symbols).

    For the bilateral variants this verifies, sample-free where possible:
    the column symbol is isometry-valued, its second-fiber block is
    analytic, its first-fiber block has no coefficients above index 1,
    the sampled rank of the second-fiber block matches the fiber
    dimension count, and the doubly invariant column maps into the first
    fiber orthogonally to the simply invariant columns.  Failures are
    reported, not raised.
    """
    checks: list[CheckResult] = []
    if spec.variant in (TYPE_I, TYPE_II):
        expected_rank = spec.dim_e0 + spec.dim_e2 - spec.dim_e
        if spec.u is not None:
            cls = classify_isometry(spec.u)
            checks.append(CheckResult(
                "u_isometry", cls.residual,
                cls.kind in (IsometryKind.ISOMETRY, IsometryKind.UNITARY)))
            u_e, u_f = split_fiber_rows(spec.u, spec.dim_e)
            r_f = u_f.anti_analytic_weight()
            checks.append(CheckResult("u_f_analytic", r_f, r_f <= tol))
            # stored coefficients of index >= 2, however sparse the degrees
            causal = float(np.max(np.abs(u_e.coeffs[max(0, 2 - u_e.kmin):]), initial=0.0))
            checks.append(CheckResult("u_e_causal", causal, causal <= tol))
            band = max(s.bandwidth for s in spec.bilateral_symbols())
            ranks = rank_profile(u_f, 4 * band + 1)
            worst = max(abs(r - expected_rank) for r in ranks)
            checks.append(CheckResult("u_f_rank", float(worst), worst == 0))
        else:
            checks.append(CheckResult(
                "u_f_rank", float(abs(expected_rank)), expected_rank == 0))
        if spec.omega is not None:
            omega_full = spec.omega_full()
            omega_e, omega_f = split_fiber_rows(omega_full, spec.dim_e)
            into_e = omega_f.max_abs_coeff()
            checks.append(CheckResult("omega_into_e", into_e, into_e <= tol))
            ocls = classify_isometry(omega_e)
            checks.append(CheckResult(
                "omega_isometry", ocls.residual,
                ocls.kind in (IsometryKind.ISOMETRY, IsometryKind.UNITARY)))
            if spec.u is not None:
                cross = (spec.u.adjoint() @ omega_full).max_abs_coeff()
                checks.append(CheckResult("omega_orthogonal_u", cross, cross <= tol))
    elif spec.variant == KERNEL_REP:
        checks.extend(_representation_symbol_checks(spec.psi, spec, kernel=True, tol=tol))
    else:
        checks.extend(_representation_symbol_checks(spec.phi, spec, kernel=False, tol=tol))
    if spec.theta is not None and spec.variant in (KERNEL_REP, RANGE_REP):
        checks.append(_theta_check(spec.theta, tol))
    return VerificationReport(tuple(checks))


def _representation_symbol_checks(sym, spec, kernel, tol):
    checks = []
    label = "psi" if kernel else "phi"
    blocks = split_square_blocks(sym, spec.dim_e)
    a, b = blocks[2:] if kernel else blocks[:2]
    weight = max(a.anti_analytic_weight(), b.anti_analytic_weight())
    checks.append(CheckResult(f"{label}_analytic_blocks", weight, weight <= tol))
    cls = classify_isometry(sym)
    checks.append(CheckResult(f"{label}_class", cls.residual, accepts_partial_isometry(cls)))
    return checks


def _theta_check(theta: LaurentSymbol, tol: float) -> CheckResult:
    if theta.is_zero():
        return CheckResult("theta_inner", 0.0, True)
    cls = classify_isometry(theta)
    resid = max(cls.residual, theta.anti_analytic_weight())
    ok = theta.is_analytic(tol) and cls.kind in (IsometryKind.ISOMETRY,
                                                 IsometryKind.UNITARY)
    # right-extremality of the factor is not decided here: the check
    # verifies the factorization, it does not classify it.
    return CheckResult("theta_inner", resid, ok)


def bilateral_subspace(spec: InvariantSubspaceSpec, n: int) -> SubspaceBasis:
    """Orthonormal basis of the truncated bilateral-shift invariant subspace.

    Columns are the exactly representable generators U z^k e (degrees
    fitting the two-sided window) and Omega z^k e, embedded in the
    ambient (two-sided window of the first fiber) (+) (one-sided window
    of the second fiber).  The returned basis carries the shrunk window
    used by downstream comparisons.  The Gram matrix of the generators is
    a section of the block Toeplitz matrix of the coefficient Grams of
    [U, Omega], so when that symbol is isometry-valued they are
    orthonormal as they stand and are the basis; otherwise they are
    orthonormalized.
    """
    amb = bilateral_ambient(spec.dim_e, spec.dim_f, n)
    omega = spec.omega_full()
    gens = ([(spec.u, 0)] if spec.u is not None else []) \
        + ([(omega, -n - omega.kmin)] if omega is not None else [])
    parts, width = [], 0  # the entries of sym z^k e for k in [k_lo, n - sym.kmax]
    for sym, k_lo in gens:
        if n < max(abs(sym.kmin), abs(sym.kmax)):
            raise ValueError(f"symbol band [{sym.kmin}, {sym.kmax}] exceeds truncation {n}")
        s_e, s_f = split_fiber_rows(sym, spec.dim_e)
        if not s_f.is_zero() and k_lo + s_f.kmin < 0:
            raise ValueError(
                "second-fiber generator content at negative degree "
                f"{k_lo + s_f.kmin}: the symbol violates analyticity")
        # first-fiber rows at degrees [-n, n] over second-fiber rows at [0, n]
        for s, lo, first_row in ((s_e, -n, 0), (s_f, 0, (2 * n + 1) * spec.dim_e)):
            t = multiplication_entries(s, k_lo, n - sym.kmax, lo, n)
            parts.append(Triplets(t.rows + first_row, t.cols + width, t.vals))
        width += (n - sym.kmax - k_lo + 1) * sym.cols
    basis = Triplets(*map(np.concatenate, zip(*parts)))
    if classify_isometry(spec.column_symbol).kind not in (IsometryKind.ISOMETRY,
                                                          IsometryKind.UNITARY):
        basis = column_space(basis)
        if extent(basis, 1) != width:
            raise ValueError(
                f"generators are numerically dependent: {width} columns "
                f"span only {extent(basis, 1)} directions")
    return SubspaceBasis(amb, basis, window=default_window(spec, n))


def mixed_from_bilateral(n3: SubspaceBasis, window: int | None = None) -> SubspaceBasis:
    """Analytic-pair subspace carved out of the bilateral complement.

    Applies the coefficient flip on the first (two-sided) part, takes the
    orthogonal complement inside the truncated ambient, and keeps the
    vectors supported on the analytic degree window.  With the window
    shrunk below the symbol bands this reproduces exactly the elements of
    the untruncated invariant subspace with degree at most the window.
    """
    e_part, f_part = n3.ambient.parts
    w = n3.window if window is None else window
    if w is None:
        raise ValueError("no comparison window available; pass window explicitly")
    if w < 0:
        raise ValueError("window is empty; increase the truncation")
    if w > e_part.deg_hi:
        raise ValueError(f"window {w} exceeds the ambient truncation {e_part.deg_hi}")
    target = analytic_ambient(e_part.fiber_dim, f_part.fiber_dim, w)
    # the rows of the window degrees after the flip k -> -k of the first part
    flipped = e_part.degree_indices(-w, 0).reshape(-1, e_part.fiber_dim)[::-1].ravel()
    rows = np.concatenate([flipped, e_part.dim + f_part.degree_indices(0, w)])
    cut = _within(n3.basis, 0, rows, n3.ambient.dim)
    kernel = nullspace(Triplets(cut.cols, cut.rows, cut.vals.conj()), rows.size)
    return SubspaceBasis(target, kernel, window=w)


def mixed_invariant_subspace(spec: InvariantSubspaceSpec, n: int,
                             window: int | None = None) -> SubspaceBasis:
    """One-shot bilateral construction followed by the analytic carve-out."""
    return mixed_from_bilateral(bilateral_subspace(spec, n), window)


def shift_invariance_residual(basis: SubspaceBasis, kinds: tuple[str, str]) -> float:
    """Residual of (I - P) S P for the block shift with the given directions.

    ``kinds`` picks forward or backward per part.  Inputs are compressed
    to the sub-basis whose forward-shifted parts stay inside the window,
    so the residual of a truncation of a genuinely invariant subspace is
    at float level.
    """
    amb = basis.ambient
    # the forward shift pushes the top degree of a part out of the window
    top = [off + part.degree_indices(part.deg_hi, part.deg_hi)
           for off, part, kind in zip(amb.offsets(), amb.parts, kinds)
           if kind == "forward"]
    kill_rows = np.concatenate(top) if top else np.zeros(0, dtype=int)
    b = basis.basis
    compressed = times(b, nullspace(_within(b, 0, kill_rows, amb.dim), basis.dim))
    image = shift_rows(compressed, amb, kinds)
    return spectral_norm(sparse_difference(image, project(b, image)))


def invariance_check(basis: SubspaceBasis) -> float:
    """Invariance residual under (forward shift) (+) (backward shift)."""
    return shift_invariance_residual(basis, ("forward", "backward"))


def kernel_symbol_from_u(u: LaurentSymbol, dim_e: int, dim_f: int) -> LaurentSymbol:
    """Square mixed symbol whose kernel operator annihilates the subspace of U.

    Stacks (zbar times the first-fiber block) over the second-fiber block
    and pads with zero columns up to the full fiber dimension.
    """
    dpf = dim_e + dim_f
    u_e, u_f = split_fiber_rows(u, dim_e)
    top = symbol_mul(monomial_symbol(-1, np.eye(dim_e)), u_e)
    rect = block_symbol([[top], [u_f]])
    if u.cols == dpf:
        return rect
    pad = zero_symbol(dpf, dpf - u.cols)
    return block_symbol([[rect, pad]])


def range_symbol_from_u(u: LaurentSymbol, dim_e: int, dim_f: int) -> LaurentSymbol:
    """Square mixed symbol whose range operator fills the subspace of U."""
    return kernel_symbol_from_u(u, dim_e, dim_f).conj_arg()


def operator_truncation(sym: LaurentSymbol, w: int, n: int) -> int:
    """The truncation, at least n, that makes sym's degree-w window exact."""
    depth, height = max(0, -sym.kmin), max(0, sym.kmax)
    return max(n, w + height, depth, height)


def _window_ambient(op: OperatorMatrix, w: int) -> ProductSpace:
    """The analytic window ambient at degree w on op's two fibers."""
    return analytic_ambient(op.domain.parts[0].fiber_dim, op.domain.parts[1].fiber_dim, w)


def kernel_subspace(op: OperatorMatrix, window: int) -> SubspaceBasis:
    """Elements of the kernel of the mixed adjoint operator op with degree <= window.

    op must be built at ``operator_truncation`` of its symbol, deep enough
    to make the window columns exact even when the symbol has a deep
    anti-analytic band.
    """
    cols = op.domain.window_indices(window)
    kernel = nullspace(_within(op.entries, 1, cols, op.domain.dim), cols.size)
    return SubspaceBasis(_window_ambient(op, window), kernel, window=window)


def range_window_basis(op: OperatorMatrix, window: int) -> SubspaceBasis:
    """Elements of the range of the mixed operator op with degree <= window.

    Solves for every input (up to op's truncation, from
    ``operator_truncation``, shrunk so the full image is visible) whose
    image is supported inside the window, then orthonormalizes the images.
    Solving, rather than cutting the input degree, keeps range elements
    whose high-degree input content cancels in the image.
    """
    cols = op.domain.window_indices(op.exact_window)
    basis = image_within(_within(op.entries, 1, cols, op.domain.dim),
                         (op.codomain.dim, cols.size), op.codomain.window_indices(window))
    return SubspaceBasis(_window_ambient(op, window), basis, window=window)


def inner_multiples_window_basis(theta: LaurentSymbol, w: int) -> Triplets:
    """Orthonormal basis of the multiples of the inner column with degree <= w.

    Solves for inputs whose image stays inside the window, which keeps
    multiples that a plain generator cut would miss (the image of a
    degree-w input can stay low-degree when top coefficients cancel).
    """
    n_in = w + max(0, theta.kmax)
    t_op = toeplitz_op(theta, n_in)
    return image_within(t_op.entries, (t_op.codomain.dim, t_op.domain.dim),
                        t_op.codomain.window_indices(w))


def kernel_representation_check(n_basis: SubspaceBasis, theta: LaurentSymbol | None,
                                op: OperatorMatrix,
                                tol: float = DEFAULT_TOL) -> VerificationReport:
    """Compare a subspace against kernel-of-mixed-operator form.

    Computes the window slice of ker of op, the mixed adjoint operator of
    Psi at ``operator_truncation``, intersects it with (inner multiples of
    theta) (+) (full second part) when theta is present (the zero symbol
    pins the first part to zero), and reports the principal-angle
    distance to the supplied basis.  Psi is not classified: kernels may
    come from general bounded symbols.
    """
    amb = n_basis.ambient
    dim_f = amb.parts[1].fiber_dim
    w = amb.parts[0].deg_hi
    checks = []
    candidate = kernel_subspace(op, w)
    if theta is not None:
        constraint = _first_part_constraint_basis(theta, dim_f, w)
        joint = intersection(candidate.basis, constraint)
        candidate = SubspaceBasis(candidate.ambient, joint, window=w)
        checks.append(_theta_check(theta, tol))
    dist = principal_angle_distance(candidate.basis, n_basis.basis)
    checks.append(CheckResult("kernel_distance", dist, dist <= tol, window=w))
    return VerificationReport(tuple(checks))


def _first_part_constraint_basis(theta: LaurentSymbol, dim_f: int, w: int) -> Triplets:
    """Basis of (theta multiples or zero) (+) (everything) in the window ambient."""
    e_basis = inner_multiples_window_basis(theta, w)
    e_dim, k = (w + 1) * theta.rows, extent(e_basis, 1)
    f = np.arange((w + 1) * dim_f)  # the second part's coordinates, degrees 0..w
    return Triplets(np.concatenate([e_basis.rows, e_dim + f]),
                    np.concatenate([e_basis.cols, k + f]),
                    np.concatenate([e_basis.vals, np.ones(f.size, complex)]))


def range_representation_check(n_basis: SubspaceBasis, phi: LaurentSymbol,
                               op: OperatorMatrix,
                               tol: float = DEFAULT_TOL) -> VerificationReport:
    """Compare a subspace against the window slice of the range of op, the
    mixed operator of phi at ``operator_truncation``."""
    w = n_basis.ambient.parts[0].deg_hi
    cls = classify_isometry(phi)
    rng = range_window_basis(op, w)
    dist = principal_angle_distance(rng.basis, n_basis.basis)
    return VerificationReport((
        CheckResult("phi_class", cls.residual, accepts_partial_isometry(cls)),
        CheckResult("span_distance", dist, dist <= tol, window=w)))


def splitting_check_scalar(phi: LaurentSymbol) -> bool:
    """Scalar splitting test: do the two analytic top entries line up?

    phi is the 2x2 square symbol [[a(z), b(z)], [c(zbar), d(zbar)]] with
    a, b, c and d analytic, and must be unitary-valued.  The subspace it
    represents splits exactly when the coefficient vectors of a and b are
    linearly dependent, that is, when the stack of their coefficients
    has numerical rank <= 1.
    """
    if phi.shape != (2, 2):
        raise ValueError(f"symbol must be 2x2, got {phi.shape}")
    a, b, c, d = split_square_blocks(phi, 1)
    for name, s in (("a", a), ("b", b), ("c", c.conj_arg()), ("d", d.conj_arg())):
        if not s.is_analytic():
            raise ValueError(f"entry {name} must be analytic")
    cls = classify_isometry(phi)
    if cls.kind is not IsometryKind.UNITARY:
        raise ValueError(
            f"assembled symbol is not unitary-valued (classified {cls.kind.value})")
    # the top row's coefficients, one degree per row, of rank <= 1 exactly
    # when they have a kernel; the degrees only the bottom row reaches hold
    # no entry
    top = phi.coeffs[:, 0, :]
    degree, col = np.nonzero(top)
    return extent(nullspace(Triplets(degree, col, top[degree, col]), 2), 1) >= 1
