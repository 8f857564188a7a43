"""Shared builders for randomized test families, and the reference
computations the tests hold the pipeline against.

The references are written here, apart from ``src/``, so that a check
does not judge the pipeline with the pipeline's own code.
"""

import contextlib
import io
import json
import re
import sys
from pathlib import Path

import numpy as np
import pytest

from shiftlab import cli, linalg, operators, symbols
from shiftlab.linalg import (
    RANK_RTOL,
    Triplets,
    dense_matrix,
    extent,
    spectral_norm,
)
from shiftlab.operators import SubspaceBasis, build_range_operator, nehari_lower_bound
from shiftlab.subspaces import (
    TYPE_I,
    TYPE_II,
    InvariantSubspaceSpec,
    bilateral_subspace,
    invariance_check,
    mixed_from_bilateral,
)
from shiftlab.symbols import (
    LaurentSymbol,
    block_symbol,
    constant_symbol,
    make_symbol,
    monomial_symbol,
    split_square_blocks,
    zero_symbol,
)


def library_specs() -> dict:
    """The demos' spec library, ``cli.demo_subspace_specs``, and three more
    admissible specs that only tests use."""
    rs2 = 1 / np.sqrt(2)
    return {
        **cli.demo_subspace_specs(),
        "inner-splitting": InvariantSubspaceSpec(
            TYPE_I, 1, 1, u=make_symbol(2, 1, {-1: [[1], [0]]})),
        "constant-splitting": InvariantSubspaceSpec(
            TYPE_I, 1, 1, u=make_symbol(2, 1, {0: [[1], [0]]})),
        "timotin-embedded": InvariantSubspaceSpec(
            TYPE_II, 2, 1,
            u=make_symbol(3, 2, {0: [[0, 0], [0, rs2], [0, -rs2]],
                                 1: [[0, 0], [rs2, 0], [rs2, 0]]}),
            omega=constant_symbol([[1.0], [0.0]])),
    }


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


def scaled(sym, c) -> LaurentSymbol:
    """The symbol c * sym, coefficient by coefficient."""
    return make_symbol(sym.rows, sym.cols, {sym.kmin + i: c * m for i, m in enumerate(sym.coeffs)})


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
    """nehari's lower bounds over a truncation sweep, each from the range
    operator of phi at n, as ``cli.run`` collects them."""
    return [nehari_lower_bound(build_range_operator(phi, dim_e, n)) for n in n_list]


def coeff_distance(s1, s2) -> float:
    """Largest coefficient-wise difference max_k |S1_k - S2_k|."""
    return (s1 - s2).max_abs_coeff()


def ref_intertwining_residual(op, kind) -> float:
    """The intertwining residual from dense products with the dense block
    shifts of ``block_shift_matrix``: || X V - V Y || (range) or
    || W X - Y* W || (kernel) on the window columns, as
    ``operators.intertwining_residual`` defines it."""
    v, space, codomain = op.dense(), op.domain, op.codomain
    n = space.parts[0].deg_hi
    if kind == "range":
        resid = (block_shift_matrix(codomain, ("forward", "backward")) @ v
                 - v @ block_shift_matrix(space, ("forward", "forward")))
        w = min(op.exact_window, n) - 1
    else:
        resid = (v @ block_shift_matrix(space, ("forward", "backward"))
                 - block_shift_matrix(codomain, ("backward", "backward")) @ v)
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


def gram_norm(t: Triplets) -> float:
    """The spectral norm of the matrix t lists as sqrt(lambda_max) of its
    dense ``short_gram`` by ``eigvalsh``, 0.0 when empty, with the entries
    first scaled by the power of two that brings the largest into [0.5, 1):
    the oracle ``linalg.sparse_norm``'s Lanczos iteration is held to."""
    exp = max(int(np.frexp(np.max(np.abs(t.vals), initial=0.0))[1]), -1021)
    gram = linalg.short_gram(t._replace(vals=t.vals * np.ldexp(1.0, -exp)))[1]
    gram = linalg.support_core(gram) if isinstance(gram, Triplets) else gram
    return float(np.ldexp(np.sqrt(np.max(np.linalg.eigvalsh(gram), initial=0.0)), exp))


def shift_matrix(space, kind) -> np.ndarray:
    """Dense truncated multiplication by z ("forward") on one truncated
    space, or its adjoint ("backward"): the reference for shift_rows."""
    fwd = np.eye(space.dim, k=-space.fiber_dim, dtype=complex)
    return fwd if kind == "forward" else fwd.conj().T


def block_shift_matrix(space, kinds) -> np.ndarray:
    """Dense block shift of a product space: the ``shift_matrix`` of each
    part in its diagonal block, one kind per part.  The reference for
    ``ProductSpace.shift_targets`` and its readers."""
    out = np.zeros((space.dim, space.dim), dtype=complex)
    for i, (part, kind) in enumerate(zip(space.parts, kinds)):
        out[part_rows(space, i), part_rows(space, i)] = shift_matrix(part, kind)
    return out


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
    lifted[amb.degree_indices(0, b3.window)] = dense_basis(mixed)
    keep = amb.window_indices(w3)
    reverse = dense_nullspace(flip_first_part(lifted, amb).conj().T[:, keep])
    gens = dense_basis(b3)
    outside = np.delete(np.arange(amb.dim), keep)
    within = dense_column_space(gens[keep] @ dense_nullspace(gens[outside]))
    distance = dense_principal_angle_distance(reverse, within)
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
    first, second = (dense_basis(basis)[part_rows(amb, i)] for i in (0, 1))
    return dense_nullspace(second).shape[1], dense_nullspace(first).shape[1]


def dense_basis(basis: SubspaceBasis) -> np.ndarray:
    """The columns of a SubspaceBasis as a dense ambient-by-dim array."""
    return dense_matrix(basis.basis, (basis.ambient.dim, basis.dim))


def basis_from_columns(ambient, columns, window) -> SubspaceBasis:
    """A SubspaceBasis of the dense orthonormal columns."""
    return SubspaceBasis(ambient, nonzero_triplets(columns), window=window)


def dense_of_list(t: Triplets, rows: int) -> np.ndarray:
    """The dense rows-by-``extent(t, 1)`` matrix of a basis t lists."""
    return dense_matrix(t, (rows, extent(t, 1)))


# Dense oracles of the entry-list helpers of ``linalg``: each factors or
# multiplies the dense array as it stands, with no block split and no
# entry list.

def _core(m):
    nonzero = m != 0
    return np.flatnonzero(nonzero.any(axis=1)), np.flatnonzero(nonzero.any(axis=0))


def dense_nullspace(m) -> np.ndarray:
    """Orthonormal kernel basis of the dense m: the right singular vectors of
    its nonzero core past the core's numerical rank at RANK_RTOL, on the
    core's columns, then one unit vector per zero column of m."""
    rows, cols = _core(m)
    kernel = np.zeros((m.shape[1], 0), dtype=complex)
    if cols.size:
        _, sv, vh = np.linalg.svd(m[np.ix_(rows, cols)], full_matrices=True)
        rank = int(np.sum(sv > RANK_RTOL * sv[0]))
        kernel = np.zeros((m.shape[1], cols.size - rank), dtype=complex)
        kernel[cols] = vh[rank:].conj().T
    units = np.eye(m.shape[1], dtype=complex)[:, np.setdiff1d(np.arange(m.shape[1]), cols)]
    return np.hstack([kernel, units])


def dense_column_space(m) -> np.ndarray:
    """Orthonormal basis of the column space of the dense m: the left
    singular vectors of its nonzero core up to the core's numerical rank at
    RANK_RTOL, on the core's rows."""
    rows, cols = _core(m)
    out = np.zeros((m.shape[0], 0), dtype=complex)
    if rows.size:
        u, sv, _ = np.linalg.svd(m[np.ix_(rows, cols)], full_matrices=False)
        rank = int(np.sum(sv > RANK_RTOL * sv[0]))
        out = np.zeros((m.shape[0], rank), dtype=complex)
        out[rows] = u[:, :rank]
    return out


def dense_times(a, b) -> np.ndarray:
    return a @ b


def dense_project(b, x) -> np.ndarray:
    """b (b* x)."""
    return b @ (b.conj().T @ x)


def dense_principal_angle_distance(b1, b2) -> float:
    """||(I - P2) B1||, at most 1; 1.0 when the dimensions differ, 0.0 for
    two empty bases."""
    if b1.shape[1] != b2.shape[1]:
        return 1.0
    if b1.shape[1] == 0:
        return 0.0
    return min(1.0, float(np.linalg.norm(b1 - dense_project(b2, b1), 2)))


def nonzero_triplets(m) -> Triplets:
    """The entries of m that are != 0, in the row-major order of
    np.nonzero(m): -0.0 and complex(-0.0, -0.0) are left out, as m != 0
    leaves them out.  The reference for the operator builders' entries."""
    rows, cols = np.nonzero(m)
    return Triplets(rows, cols, m[rows, cols])


def eval_at(sym, z) -> np.ndarray:
    """sum_k S_k z**k at one unit-modulus z, with one power of z per stored
    coefficient: the per-point reference for ``symbols.circle_values``."""
    acc = np.zeros((sym.rows, sym.cols), dtype=complex)
    for i, c in enumerate(sym.coeffs):
        acc += c * z ** (sym.kmin + i)
    return acc


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


def assert_same_build(section, build):
    """section() and build() give the same operator, bit for bit (rows,
    cols and vals with their dtypes, window, domain and codomain), or raise
    the same ValueError."""
    try:
        want = build()
    except ValueError as exc:
        with pytest.raises(ValueError) as raised:
            section()
        assert str(raised.value) == str(exc)
        return
    got = section()
    for a, b in zip(got.entries, want.entries):
        np.testing.assert_array_equal(a, b)
        assert a.dtype == b.dtype
    assert (got.exact_window, got.domain, got.codomain) == \
        (want.exact_window, want.domain, want.codomain)


def hankel_op(sym, n) -> operators.OperatorMatrix:
    """The truncated Hankel operator of sym on degree-n Hardy windows, with
    the entries of ``operators._hankel`` and the window of
    ``operators._window``, assembled as the mixed builders assemble their
    blocks."""
    return operators._block_operator(n, (sym.rows,), (sym.cols,),
                                     [[operators._Block(True, sym)]])


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


# --- the byte-identity corpus -------------------------------------------------

REPO = Path(__file__).resolve().parent.parent
CORPUS = REPO / "tests" / "corpus"
# the residuals of a text output line: its residual field, the intertwining
# detail's two and the nehari detail's quoted bounds
_TEXT_VALUES = re.compile(r"(?:(?<=residual=)|(?<=range=)|(?<=kernel=)|(?<='))"
                          r"-?(?:inf|nan|\d[\d.]*(?:e[-+]\d+)?)")


def corpus_inputs() -> dict[str, list[str]]:
    """The corpus: each input's id and its ``shiftlab`` arguments, paths
    relative to the repository.  The inputs are the five demos, the sample
    scenario, the committed seed-0 and seed-7 scenario files of both
    benchmark workloads under ``tests/corpus``, and the scenario files under
    ``tests/corpus/branches``, which reach the representation variants'
    target subspace and twocond checks, ``svd_analysis``'s SVD fallback and
    a ``nehari`` sweep whose lower bounds are distinct and not round."""
    inputs = {f"demo-{name}": ["demo", name] for name in sorted(cli.DEMOS)}
    inputs["sample-inner-column"] = ["verify", "scenarios/sample-inner-column.json"]
    for path in sorted([*CORPUS.glob("branches/*.json"), *CORPUS.glob("*-seed*/*.json")]):
        inputs[f"{path.parent.name}-{path.stem}"] = ["verify", str(path.relative_to(REPO))]
    return inputs


def _rank_site() -> str:
    """The public functions of the package below ``cli`` that asked for the
    rank being decided, innermost first: the site of the decision."""
    frame, chain = sys._getframe(2), []
    while frame is not None:
        module, name = frame.f_globals.get("__name__", ""), frame.f_code.co_name
        if module.startswith("shiftlab.") and module != "shiftlab.cli" \
                and not name.startswith(("_", "<")):
            chain.append(f"{module.removeprefix('shiftlab.')}.{name}")
        frame = frame.f_back
    return " < ".join(chain)


@contextlib.contextmanager
def recorded_rank_decisions():
    """Wrap every numerical_rank call of the package; yields the list that
    collects each decision's (site, rank, margin), the margin being
    min(kept_min / cutoff, cutoff / dropped_max)."""
    decisions, count = [], linalg.numerical_rank

    def recorded(sv):
        rank = count(sv)
        cutoff = linalg.RANK_RTOL * sv[0] if sv.size else 0.0
        kept = sv[rank - 1] / cutoff if rank else np.inf
        dropped = cutoff / sv[rank] if rank < sv.size and sv[rank] > 0 else np.inf
        decisions.append((_rank_site(), rank, min(kept, dropped)))
        return rank

    with pytest.MonkeyPatch.context() as patch:
        for module in (linalg, symbols):
            patch.setattr(module, "numerical_rank", recorded)
        yield decisions


def run_corpus() -> dict[str, dict]:
    """Run every corpus input through ``cli.main`` in the text and the
    structured format.  Each input gives its exit code, both outputs and
    the rank decisions of its text run, as (site, rank, margin); its
    structured run must decide the same (site, rank) pairs."""
    out = {}
    for key, argv in corpus_inputs().items():
        if argv[0] == "verify":
            argv = ["verify", str(REPO / argv[1])]
        result = {}
        for fmt in ("text", "structured"):
            with recorded_rank_decisions() as decisions, \
                    contextlib.redirect_stdout(io.StringIO()) as stdout:
                code = cli.main([*argv, "--format", fmt])
            assert result.setdefault("exit", code) == code, key
            assert [d[:2] for d in result.setdefault("ranks", decisions)] \
                == [d[:2] for d in decisions], key
            result[fmt] = stdout.getvalue()
        out[key] = result
    return out


@pytest.fixture(scope="session")
def corpus() -> dict[str, dict]:
    """``run_corpus``, once per test session."""
    return run_corpus()


def residual_matches(golden: float | None, new: float | None) -> bool:
    """The corpus rule for one residual or nehari bound: a golden value that
    is exactly 0 or above 1e-10 must be reproduced at 12 significant
    digits; a smaller one is float-level noise, which may differ between
    BLAS builds, and then both values must be at most 1e-12."""
    if golden is None or new is None:
        return golden is new
    if golden == 0.0 or abs(golden) > 1e-10:
        return f"{golden:.12g}" == f"{new:.12g}"
    return abs(golden) <= 1e-12 and abs(new) <= 1e-12


def _text_values(line: str) -> tuple[str, list[float]]:
    """A text output line with its residual and bound values taken out."""
    return _TEXT_VALUES.sub("#", line), [float(v) for v in _TEXT_VALUES.findall(line)]


def corpus_mismatches(golden: str, new: str, fmt: str) -> list[str]:
    """The lines of one output that break the corpus rule: every byte
    compares equal except the residual values, which follow
    ``residual_matches``."""
    old_lines, new_lines = golden.splitlines(), new.splitlines()
    if len(old_lines) != len(new_lines):
        return [f"{len(new_lines)} lines, golden has {len(old_lines)}"]
    bad = []
    for old, line in zip(old_lines, new_lines):
        if fmt == "text":
            (a, x), (b, y) = _text_values(old), _text_values(line)
        else:
            a, b = json.loads(old), json.loads(line)
            x, y = [a.pop("residual")], [b.pop("residual")]
        if a != b or len(x) != len(y) or not all(map(residual_matches, x, y)):
            bad.append(f"{line!r} (golden {old!r})")
    return bad
