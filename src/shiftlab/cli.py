"""Batch front end: parse scenario files, run verification pipelines, report.

Scenario files are JSON with symbols in a structured-text literal form::

    {"rows": 2, "cols": 1,
     "coeffs": [{"k": 0, "re": [1.0, 0.0], "im": [0.0, 0.0]}]}

re/im are row-major per coefficient; im may be omitted.  A scenario picks
an invariant-subspace description, a list of checks, and a truncation
sweep; reports are deterministic (fixed sampling grids and pivoting), so
two runs of one scenario produce byte-identical structured output.

Exit codes: 0 all checks pass, 1 some check failed or errored, 2 input
error (unreadable file, schema violation, shape mismatch).
"""

import argparse
import json
import math
import sys
from dataclasses import dataclass, field, replace
from functools import lru_cache, partial

import numpy as np

from .operators import (
    build_kernel_operator,
    build_range_operator,
    intertwining_residual,
    nehari_bounds,
    svd_analysis,
)
from .subspaces import (
    KERNEL_REP,
    RANGE_REP,
    TYPE_I,
    TYPE_II,
    InvariantSubspaceSpec,
    SpecValidationError,
    SubspaceBasis,
    VerificationReport,
    invariance_check,
    kernel_representation_check,
    kernel_subspace,
    kernel_symbol_from_u,
    mixed_invariant_subspace,
    range_representation_check,
    range_symbol_from_u,
    range_window_basis,
    split_square_blocks,
    splitting_check_scalar,
    twocond_check,
)
from .symbols import (
    LaurentSymbol,
    block_symbol,
    constant_symbol,
    identity_symbol,
    make_cyclic_symbol,
    make_symbol,
    monomial_symbol,
    zero_symbol,
)

DEFAULT_N_LIST = (8, 16, 32)
DEFAULT_TOL = 1e-8
_SCENARIO_KEYS = ("name", "spec", "checks", "n_list", "tol", "window", "expect",
                  "nehari_candidates")
_SPEC_KEYS = ("variant", "dimE", "dimF", "U", "Omega", "Psi", "Phi", "Theta")
_EXPECT_KEYS = ("splitting", "partial_isometry")


class ScenarioError(ValueError):
    """Input-level problem: bad file, schema violation, shape mismatch."""


def symbol_from_literal(payload, field_name: str = "symbol") -> LaurentSymbol:
    """Parse the structured-text symbol literal."""
    try:
        rows, cols = payload["rows"], payload["cols"]
        entries = payload["coeffs"]
    except (KeyError, TypeError) as exc:
        raise ScenarioError(f"field {field_name}: expected a symbol literal "
                            f"with rows/cols/coeffs ({exc})") from exc
    for key, value in (("rows", rows), ("cols", cols)):
        if not (_is_int(value) and value >= 0):
            raise ScenarioError(f"field {field_name}.{key} must be an integer >= 0; "
                                f"got {value!r}")
    if not isinstance(entries, list):
        raise ScenarioError(f"field {field_name}.coeffs must be a list; got {entries!r}")
    coeffs = {}
    for i, item in enumerate(entries):
        try:
            k = item["k"]
            re = np.asarray(item["re"], dtype=float)
            im = np.asarray(item.get("im", np.zeros_like(re)), dtype=float)
        except (KeyError, TypeError, ValueError) as exc:
            raise ScenarioError(f"field {field_name}: bad coefficient entry "
                                f"({exc})") from exc
        if not _is_int(k):
            raise ScenarioError(f"field {field_name}.coeffs[{i}].k must be an "
                                f"integer; got {k!r}")
        if re.size != rows * cols or im.size != rows * cols:
            raise ScenarioError(
                f"field {field_name}: coefficient k={k} carries {re.size} "
                f"entries, expected rows*cols = {rows * cols}")
        if k in coeffs:
            raise ScenarioError(f"field {field_name}: coefficient k={k} given twice")
        if not (np.all(np.isfinite(re)) and np.all(np.isfinite(im))):
            raise ScenarioError(
                f"field {field_name}: coefficient k={k} has a non-finite entry")
        coeffs[k] = (re + 1j * im).reshape(rows, cols)
    if not coeffs:
        return zero_symbol(rows, cols)
    try:
        return make_symbol(rows, cols, coeffs)
    except ValueError as exc:
        raise ScenarioError(f"field {field_name}: {exc}") from exc


def symbol_to_literal(sym: LaurentSymbol) -> dict:
    out = {"rows": sym.rows, "cols": sym.cols, "coeffs": []}
    for k in range(sym.kmin, sym.kmax + 1):
        blk = sym.coeff(k)
        if not np.any(blk):
            continue
        out["coeffs"].append({
            "k": k,
            "re": [float(v) for v in blk.real.ravel()],
            "im": [float(v) for v in blk.imag.ravel()],
        })
    return out


@dataclass(frozen=True)
class Scenario:
    name: str
    spec: InvariantSubspaceSpec
    checks: tuple[str, ...]
    n_list: tuple[int, ...]
    tol: float = DEFAULT_TOL
    window: int | None = None
    expect: dict = field(default_factory=dict)
    nehari_candidates: tuple = ()


@dataclass(frozen=True)
class Record:
    scenario: str
    check: str
    n: int
    residual: float
    passed: bool
    window: int | None = None
    detail: str = ""


@dataclass
class Report:
    records: list[Record]

    @property
    def exit_status(self) -> int:
        return 0 if all(r.passed for r in self.records) else 1

    def structured(self) -> str:
        lines = []
        for r in self.records:
            lines.append(json.dumps({
                "scenario": r.scenario,
                "check": r.check,
                "n": r.n,
                "residual": _sig12(r.residual),
                "pass": r.passed,
            }, sort_keys=True))
        return "\n".join(lines) + "\n"

    def text(self) -> str:
        lines = []
        current = None
        for r in self.records:
            if r.scenario != current:
                current = r.scenario
                lines.append(f"scenario {current}")
            win = f" window={r.window}" if r.window is not None else ""
            tail = f"  [{r.detail}]" if r.detail else ""
            lines.append(
                f"  {r.check:<18} n={r.n:<4}{win} residual={_fmt(r.residual)} "
                f"{'PASS' if r.passed else 'FAIL'}{tail}")
        verdict = "PASS" if self.exit_status == 0 else "FAIL"
        lines.append(f"overall {verdict}")
        return "\n".join(lines) + "\n"


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _sig12(x: float) -> float:
    return float(f"{x:.12g}")


def _spec_from_payload(payload: dict) -> InvariantSubspaceSpec:
    if not isinstance(payload, dict):
        raise ScenarioError("field spec must be a JSON object")
    _reject_unknown_keys(payload, _SPEC_KEYS, "field spec")
    if "variant" not in payload:
        raise ScenarioError("field spec.variant is required")
    kwargs = {}
    for key, attr in (("U", "u"), ("Omega", "omega"), ("Psi", "psi"),
                      ("Phi", "phi"), ("Theta", "theta")):
        if key in payload and payload[key] is not None:
            kwargs[attr] = symbol_from_literal(payload[key], f"spec.{key}")
    dim_e, dim_f = payload.get("dimE"), payload.get("dimF")
    if not (_is_int(dim_e) and _is_int(dim_f)):
        raise ScenarioError(f"fields spec.dimE/spec.dimF must be integers; "
                            f"got {dim_e!r}/{dim_f!r}")
    try:
        spec = InvariantSubspaceSpec(payload["variant"], dim_e, dim_f, **kwargs)
    except SpecValidationError as exc:
        raise ScenarioError(str(exc)) from exc
    _validate_membership(spec)
    return spec


def _validate_membership(spec: InvariantSubspaceSpec) -> None:
    """Reject representation symbols whose analytic blocks are not analytic."""
    if spec.variant == RANGE_REP:
        a, b, _, _ = split_square_blocks(spec.phi, spec.dim_e, spec.dim_f)
        if not (a.is_analytic() and b.is_analytic()):
            raise ScenarioError(
                "field spec.Phi: the top blocks must be bounded analytic "
                "(block A or B carries negative coefficients)")
    if spec.variant == KERNEL_REP:
        _, _, a, b = split_square_blocks(spec.psi, spec.dim_e, spec.dim_f)
        if not (a.is_analytic() and b.is_analytic()):
            raise ScenarioError(
                "field spec.Psi: the bottom blocks must be bounded analytic "
                "(block A or B carries negative coefficients)")


def _reject_unknown_keys(payload: dict, valid: tuple[str, ...], source: str) -> None:
    for key in payload:
        if key not in valid:
            raise ScenarioError(f"{source}: unknown key {key!r}; valid: {valid}")


def _is_int(value) -> bool:
    """A JSON integer: Python's bool is an int, JSON's true is not."""
    return isinstance(value, int) and not isinstance(value, bool)


def _scenario_from_payload(payload: dict, fallback_name: str) -> Scenario:
    if not isinstance(payload, dict):
        raise ScenarioError("scenario file must hold a JSON object")
    _reject_unknown_keys(payload, _SCENARIO_KEYS, "scenario")
    name = payload.get("name", fallback_name)
    if not isinstance(name, str):
        raise ScenarioError(f"field name must be a string; got {name!r}")
    if "spec" not in payload:
        raise ScenarioError("field spec is required")
    spec = _spec_from_payload(payload["spec"])
    checks = payload.get("checks", ["twocond", "invariance"])
    if not (isinstance(checks, list) and checks):
        raise ScenarioError(f"field checks must be a nonempty list of check ids; "
                            f"got {checks!r}")
    for c in checks:
        if c not in CHECK_IDS:
            raise ScenarioError(f"field checks: unknown check id {c!r}; valid: {CHECK_IDS}")
        if checks.count(c) > 1:
            raise ScenarioError(f"field checks: check id {c!r} given twice")
    n_list = _parse_n_list(payload.get("n_list", list(DEFAULT_N_LIST)), "field n_list")
    tol = payload.get("tol", DEFAULT_TOL)
    if not (isinstance(tol, (int, float)) and not isinstance(tol, bool)):
        raise ScenarioError(f"field tol must be a JSON number; got {tol!r}")
    tol = _parse_tol(tol, "field tol")
    window = payload.get("window")
    if window is not None and not (_is_int(window) and window >= 0):
        raise ScenarioError(f"field window must be an integer >= 0; got {window!r}")
    expect = payload.get("expect", {})
    if not isinstance(expect, dict):
        raise ScenarioError(f"field expect must be a JSON object; got {expect!r}")
    _reject_unknown_keys(expect, _EXPECT_KEYS, "field expect")
    for key, value in expect.items():
        if not isinstance(value, bool):
            raise ScenarioError(f"field expect.{key} must be true or false; got {value!r}")
    raw_candidates = payload.get("nehari_candidates", [])
    if not isinstance(raw_candidates, list):
        raise ScenarioError("field nehari_candidates must be a list")
    candidates = []
    for i, cand in enumerate(raw_candidates):
        if not (isinstance(cand, dict) and "L1" in cand and "L2" in cand):
            raise ScenarioError(f"field nehari_candidates[{i}]: expected an "
                                f"object with symbol literals L1 and L2")
        candidates.append((symbol_from_literal(cand["L1"], f"nehari_candidates[{i}].L1"),
                           symbol_from_literal(cand["L2"], f"nehari_candidates[{i}].L2")))
    scenario = Scenario(name, spec, tuple(checks), n_list, tol, window, expect,
                        tuple(candidates))
    _validate_check_requirements(scenario)
    return scenario


def _parse_n_list(values, source: str) -> tuple[int, ...]:
    """Validate a truncation sweep: a nonempty ascending list of positive integers."""
    if not (isinstance(values, list) and values and all(_is_int(n) for n in values)) \
            or values != sorted(values) or values[0] <= 0:
        raise ScenarioError(f"{source} must be a nonempty ascending list of "
                            f"positive integers; got {values!r}")
    return tuple(values)


def _parse_tol(value, source: str) -> float:
    """Validate a tolerance: a finite positive number."""
    try:
        tol = float(value)
    except (TypeError, ValueError) as exc:
        raise ScenarioError(f"{source}: expected a number ({exc})") from exc
    if not (math.isfinite(tol) and tol > 0):
        raise ScenarioError(f"{source} must be finite and positive; got {value!r}")
    return tol


def _derived_psi(spec: InvariantSubspaceSpec) -> LaurentSymbol | None:
    if spec.psi is not None:
        return spec.psi
    if spec.variant == TYPE_I:
        return kernel_symbol_from_u(spec.u, spec.dim_e, spec.dim_f)
    return None


def _derived_phi(spec: InvariantSubspaceSpec) -> LaurentSymbol | None:
    if spec.phi is not None:
        return spec.phi
    if spec.variant == TYPE_I:
        return range_symbol_from_u(spec.u, spec.dim_e, spec.dim_f)
    return None


def _validate_check_requirements(sc: Scenario) -> None:
    spec = sc.spec
    needs_phi = {"range_rep", "splitting", "nehari"}
    needs_either = {"intertwining", "partial_isometry"}
    for check in sc.checks:
        if check in ("kernel_rep", "range_rep") and spec.variant not in (TYPE_I, TYPE_II):
            raise ScenarioError(
                f"check {check} needs bilateral data (variant type_i or type_ii) "
                f"as an independent comparison target; a {spec.variant} spec "
                f"would compare the representation against itself")
        if check == "kernel_rep" and _derived_psi(spec) is None:
            raise ScenarioError(
                f"check {check} requires field Psi (or a type_i U to derive it)")
        if check in needs_phi and _derived_phi(spec) is None:
            raise ScenarioError(
                f"check {check} requires field Phi (or a type_i U to derive it)")
        if check in needs_either and _derived_phi(spec) is None \
                and _derived_psi(spec) is None:
            raise ScenarioError(f"check {check} requires field Phi or Psi")
        if check == "splitting":
            phi = _derived_phi(spec)
            if phi.shape != (2, 2) or spec.dim_e != 1 or spec.dim_f != 1:
                raise ScenarioError(
                    "check splitting needs scalar fibers (dimE = dimF = 1)")


def parse_scenario(path: str) -> Scenario:
    """Load and validate one scenario file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except OSError as exc:
        raise ScenarioError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"{path}: invalid JSON at line {exc.lineno}, "
                            f"column {exc.colno}: {exc.msg}") from exc
    name = path.rsplit("/", 1)[-1].rsplit(".", 1)[0]
    try:
        return _scenario_from_payload(payload, name)
    except ScenarioError as exc:
        raise ScenarioError(f"{path}: {exc}") from exc


def _target_subspace(sc: Scenario, n: int) -> SubspaceBasis:
    spec = sc.spec
    if spec.variant in (TYPE_I, TYPE_II):
        return mixed_invariant_subspace(spec, n, sc.window)
    rep_symbol = spec.psi if spec.variant == KERNEL_REP else spec.phi
    w = sc.window if sc.window is not None else n - rep_symbol.bandwidth
    if spec.variant == KERNEL_REP:
        return kernel_subspace(spec.psi, spec.dim_e, spec.dim_f, n, w)
    return range_window_basis(spec.phi, spec.dim_e, spec.dim_f, n, w)


def _records_from_report(sc: Scenario, check: str, n: int,
                         rep: VerificationReport) -> list[Record]:
    gating = [c for c in rep.checks if c.gating]
    residual = max((c.residual for c in gating), default=0.0)
    window = next((c.window for c in rep.checks if c.window is not None), None)
    detail = "; ".join(
        f"{c.name}={'ok' if c.passed else 'FAIL'}" for c in rep.checks)
    return [Record(sc.name, check, n, residual, rep.overall, window, detail)]


def _mixed_operators(spec: InvariantSubspaceSpec, n: int):
    """Yield ("range", V) for the derived Phi and ("kernel", W) for the derived Psi."""
    phi, psi = _derived_phi(spec), _derived_psi(spec)
    if phi is not None:
        a, b, c, d = split_square_blocks(phi, spec.dim_e, spec.dim_f)
        yield "range", build_range_operator(a, b, c, d, n)
    if psi is not None:
        c, d, a, b = split_square_blocks(psi, spec.dim_e, spec.dim_f)
        yield "kernel", build_kernel_operator(c, d, a, b, n)


def _check_twocond(sc: Scenario, n: int, target) -> list[Record]:
    return _records_from_report(sc, "twocond", n, twocond_check(sc.spec, sc.tol))


def _check_invariance(sc: Scenario, n: int, target) -> list[Record]:
    basis = target(n)
    resid = invariance_check(basis)
    return [Record(sc.name, "invariance", n, resid, resid <= sc.tol, basis.window)]


def _check_kernel_rep(sc: Scenario, n: int, target) -> list[Record]:
    rep = kernel_representation_check(target(n), _derived_psi(sc.spec),
                                      sc.spec.theta, n, sc.tol)
    return _records_from_report(sc, "kernel_rep", n, rep)


def _check_range_rep(sc: Scenario, n: int, target) -> list[Record]:
    rep = range_representation_check(target(n), _derived_phi(sc.spec), n, sc.tol)
    return _records_from_report(sc, "range_rep", n, rep)


def _check_splitting(sc: Scenario, n: int, target) -> list[Record]:
    tl, tr, bl, br = split_square_blocks(_derived_phi(sc.spec), 1, 1)
    result = splitting_check_scalar(tl, tr, bl.conj_arg(), br.conj_arg(), sc.tol)
    expected = sc.expect.get("splitting", False)
    ok = result.splitting == expected
    return [Record(sc.name, "splitting", n, 0.0 if ok else 1.0, ok,
                   detail=f"splitting={result.splitting} expected={expected}")]


def _check_intertwining(sc: Scenario, n: int, target) -> list[Record]:
    worst = 0.0
    parts = []
    for kind, op in _mixed_operators(sc.spec, n):
        r = intertwining_residual(op, kind, n)
        worst = max(worst, r)
        parts.append(f"{kind}={_fmt(r)}")
    return [Record(sc.name, "intertwining", n, worst, worst <= max(sc.tol, 1e-10),
                   detail="; ".join(parts))]


def _check_nehari(sc: Scenario, n: int, target) -> list[Record]:
    a, b, c, d = split_square_blocks(_derived_phi(sc.spec), sc.spec.dim_e, sc.spec.dim_f)
    bracket = nehari_bounds(a, b, c, d, list(sc.n_list),
                            list(sc.nehari_candidates) or None)
    lows = [lo for _, lo in bracket.lower_bounds]
    monotone = all(x <= y + 1e-12 for x, y in zip(lows, lows[1:]))
    violation = 0.0
    if bracket.upper_bounds:
        violation = max(0.0, max(lows) - min(bracket.upper_bounds))
    ok = monotone and violation <= sc.tol
    detail = (f"lower={[_fmt(x) for x in lows]} "
              f"upper={[_fmt(x) for x in bracket.upper_bounds]}")
    return [Record(sc.name, "nehari", n, violation, ok, detail=detail)]


def _check_partial_isometry(sc: Scenario, n: int, target) -> list[Record]:
    expected = sc.expect.get("partial_isometry", True)
    flags = []
    parts = []
    for kind, op in _mixed_operators(sc.spec, n):
        flag = svd_analysis(op, sc.tol)
        flags.append(flag)
        parts.append(f"{kind}_op={flag}")
    ok = all(flags) == expected
    return [Record(sc.name, "partial_isometry", n, 0.0 if ok else 1.0, ok,
                   detail="; ".join(parts) + f" expected={expected}")]


_CHECKS = {
    "twocond": _check_twocond,
    "invariance": _check_invariance,
    "kernel_rep": _check_kernel_rep,
    "range_rep": _check_range_rep,
    "splitting": _check_splitting,
    "intertwining": _check_intertwining,
    "nehari": _check_nehari,
    "partial_isometry": _check_partial_isometry,
}
CHECK_IDS = tuple(_CHECKS)


def run(scenario: Scenario) -> Report:
    """Execute every requested check at every truncation in the sweep.

    Checks comparing against the target subspace share one build per n,
    made on first use and kept only for this call; a build that raises is
    not kept, so each check records its own error.
    """
    records: list[Record] = []
    target = lru_cache(maxsize=None)(partial(_target_subspace, scenario))
    once_per_scenario = {"twocond", "splitting", "nehari"}
    for check in scenario.checks:
        n_values = (scenario.n_list[-1],) if check in once_per_scenario \
            else scenario.n_list
        for n in n_values:
            try:
                records.extend(_CHECKS[check](scenario, n, target))
            except (ValueError, KeyError) as exc:
                records.append(Record(scenario.name, check, n, float("inf"),
                                      False, detail=f"error: {exc}"))
    return Report(records)


def run_batch(scenarios: list[Scenario]) -> Report:
    records: list[Record] = []
    for sc in sorted(scenarios, key=lambda s: s.name):
        records.extend(run(sc).records)
    return Report(records)


# --- built-in demo scenarios ------------------------------------------------

RS2 = 1 / np.sqrt(2)


def timotin_u() -> LaurentSymbol:
    """Degree-one 2x2 unitary column symbol with non-proportional top entries."""
    return make_symbol(2, 2, {0: [[0, RS2], [0, -RS2]],
                              1: [[RS2, 0], [RS2, 0]]})


def replicated_u(dim_e: int, dim_f: int) -> LaurentSymbol:
    """Column symbol of the subspace {(f, ..., f, f(0), ..., f(0))}.

    Constant columns span the sum-zero vectors among (a, ..., a, b_1,
    ..., b_dim_f) with the first block repeated; one degree-one column
    carries the all-ones direction.  For dim_e >= 2 the doubly invariant
    complement (differences of the first-block coordinates) is carried
    separately by replicated_omega.
    """
    dpf = dim_e + dim_f
    ones = np.ones(dpf) / np.sqrt(dpf)
    # orthonormal basis of {(a, ..., a, b) : dim_e * a + sum(b) = 0}
    cols = []
    for j in range(dim_f):
        v = np.zeros(dpf)
        v[:dim_e] = 1.0 / dim_e
        v[dim_e + j] = -1.0
        cols.append(v)
    q, _ = np.linalg.qr(np.column_stack(cols))
    const = q[:, :dim_f]
    u0 = np.hstack([const, np.zeros((dpf, 1))])
    u1 = np.hstack([np.zeros((dpf, dim_f)), ones[:, None]])
    return make_symbol(dpf, dim_f + 1, {0: u0, 1: u1})


def replicated_omega(dim_e: int, dim_f: int) -> LaurentSymbol | None:
    """Doubly invariant columns of the replicated-evaluation subspace."""
    if dim_e < 2:
        return None
    cols = []
    for j in range(1, dim_e):
        v = np.zeros(dim_e)
        v[0] = 1.0
        v[j] = -1.0
        cols.append(v)
    q, _ = np.linalg.qr(np.column_stack(cols))
    return constant_symbol(q[:, :dim_e - 1])


def replicated_spec(dim_e: int, dim_f: int) -> InvariantSubspaceSpec:
    omega = replicated_omega(dim_e, dim_f)
    variant = TYPE_II if omega is not None else TYPE_I
    return InvariantSubspaceSpec(variant, dim_e, dim_f,
                                 u=replicated_u(dim_e, dim_f), omega=omega)


def replicated_range_symbol(dim_e: int, dim_f: int) -> LaurentSymbol:
    dpf = dim_e + dim_f
    r = 1 / np.sqrt(dpf)
    top = block_symbol([[constant_symbol(r * np.eye(dim_e)),
                         zero_symbol(dim_e, dim_f)]])
    bottom = block_symbol([[monomial_symbol(-1, r * np.ones((dim_f, dim_e))),
                            zero_symbol(dim_f, dim_f)]])
    return block_symbol([[top], [bottom]])


def demo_subspace_specs() -> dict[str, InvariantSubspaceSpec]:
    """Library of admissible invariant-subspace descriptions used by demos."""
    specs = {
        "timotin": InvariantSubspaceSpec(TYPE_I, 1, 1, u=timotin_u()),
        "replicated-1-2": replicated_spec(1, 2),
        "replicated-2-3": replicated_spec(2, 3),
        "inner-splitting": InvariantSubspaceSpec(
            TYPE_I, 1, 1, u=make_symbol(2, 1, {-1: [[1], [0]]})),
        "constant-splitting": InvariantSubspaceSpec(
            TYPE_I, 1, 1, u=make_symbol(2, 1, {0: [[1], [0]]})),
        "scalar-splitting": InvariantSubspaceSpec(
            TYPE_I, 1, 1, u=make_symbol(2, 2, {0: [[0, 0], [0, 1]],
                                               1: [[1, 0], [0, 0]]})),
        "doubly-invariant-corner": InvariantSubspaceSpec(
            TYPE_II, 1, 1, omega=identity_symbol(1)),
        "timotin-embedded": InvariantSubspaceSpec(
            TYPE_II, 2, 1,
            u=make_symbol(3, 2, {0: [[0, 0], [0, RS2], [0, -RS2]],
                                 1: [[0, 0], [RS2, 0], [RS2, 0]]}),
            omega=constant_symbol([[1.0], [0.0]])),
    }
    return specs


def _demo_timotin() -> list[Scenario]:
    spec = demo_subspace_specs()["timotin"]
    return [Scenario(
        "timotin-nonsplitting", spec,
        ("twocond", "invariance", "kernel_rep", "range_rep", "splitting",
         "partial_isometry", "intertwining"),
        (8, 16), expect={"splitting": False, "partial_isometry": True})]


def _demo_splitting_scalar() -> list[Scenario]:
    spec = demo_subspace_specs()["scalar-splitting"]
    return [Scenario(
        "splitting-scalar", spec,
        ("twocond", "invariance", "splitting", "partial_isometry"),
        (8, 16), expect={"splitting": True, "partial_isometry": True})]


def _demo_f_f0() -> list[Scenario]:
    spec12 = demo_subspace_specs()["replicated-1-2"]
    spec12 = InvariantSubspaceSpec(
        spec12.variant, 1, 2, u=spec12.u, phi=replicated_range_symbol(1, 2))
    spec23 = demo_subspace_specs()["replicated-2-3"]
    # the explicit range symbol is isometry-valued but its mixed operator
    # is not a partial isometry (the subspace is still exactly its range),
    # so no partial_isometry check here
    return [
        Scenario("f-f0-m1n2", spec12,
                 ("twocond", "invariance", "range_rep"), (8, 16)),
        Scenario("f-f0-m2n3", spec23, ("twocond", "invariance"), (8, 16)),
    ]


def _demo_cyclic_kernel() -> list[Scenario]:
    poles = [1 / 2, 1 / 3, 1 / 4, 1 / 5]
    weights = [4.0 ** -j for j in range(1, 5)]
    n = 16
    a = make_cyclic_symbol(poles, weights, 2 * n + 1)
    theta_f = make_symbol(1, 1, {2: [1]})
    psi = block_symbol([[a, zero_symbol(1, 1)], [zero_symbol(1, 1), theta_f]])
    spec = InvariantSubspaceSpec(
        TYPE_II, 1, 1,
        u=block_symbol([[zero_symbol(1, 1)], [theta_f]]),
        omega=identity_symbol(1), psi=psi)
    # comparison window stays below the pole count: beyond it the
    # truncated flipped-coefficient matrix of a acquires a polynomial
    # kernel (a degree-4 polynomial vanishing at all four poles)
    return [Scenario("cyclic-kernel", spec,
                     ("twocond", "invariance", "kernel_rep"), (n,),
                     window=len(poles) - 1)]


def _demo_type2_corner() -> list[Scenario]:
    spec = demo_subspace_specs()["doubly-invariant-corner"]
    spec = InvariantSubspaceSpec(TYPE_II, 1, 1, omega=spec.omega,
                                 psi=zero_symbol(2, 2), theta=zero_symbol(1, 1))
    return [Scenario("type2-corner", spec,
                     ("twocond", "invariance", "kernel_rep"), (8, 16))]


DEMOS = {
    "timotin-nonsplitting": _demo_timotin,
    "splitting-scalar": _demo_splitting_scalar,
    "f-f0-example": _demo_f_f0,
    "cyclic-kernel": _demo_cyclic_kernel,
    "type2-corner": _demo_type2_corner,
}


def demo(name: str) -> Report:
    """Run one built-in demo scenario set."""
    if name not in DEMOS:
        raise ScenarioError(
            f"unknown demo {name!r}; available: {', '.join(sorted(DEMOS))}")
    return run_batch(DEMOS[name]())


# --- command line -----------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shiftlab",
        description="Verify invariant-subspace scenarios with truncated "
                    "Toeplitz/Hankel operator matrices.")
    sub = parser.add_subparsers(dest="command", required=True)
    p_verify = sub.add_parser("verify", help="run scenario files")
    p_verify.add_argument("paths", nargs="+", metavar="scenario-file")
    p_verify.add_argument("--n", default=None,
                          help="comma-separated truncation sweep override")
    p_verify.add_argument("--tol", default=None,
                          help="tolerance override (finite, positive)")
    p_verify.add_argument("--format", choices=("text", "structured"),
                          default="text")
    p_demo = sub.add_parser("demo", help="run a built-in demo")
    p_demo.add_argument("name")
    p_demo.add_argument("--format", choices=("text", "structured"),
                        default="text")
    sub.add_parser("list-demos", help="list built-in demo names")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "list-demos":
            for name in sorted(DEMOS):
                print(name)
            return 0
        if args.command == "demo":
            report = demo(args.name)
        else:
            overrides = {}
            if args.n is not None:
                try:
                    n_list = [int(v) for v in args.n.split(",")]
                except ValueError as exc:
                    raise ScenarioError(f"option --n: expected integers ({exc})") from exc
                overrides["n_list"] = _parse_n_list(n_list, "option --n")
            if args.tol is not None:
                overrides["tol"] = _parse_tol(args.tol, "option --tol")
            report = run_batch([replace(parse_scenario(path), **overrides)
                                for path in args.paths])
    except ScenarioError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    sys.stdout.write(report.structured() if args.format == "structured"
                     else report.text())
    return report.exit_status


if __name__ == "__main__":
    sys.exit(main())
