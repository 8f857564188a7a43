"""Batch front end: parse scenario files, run verification pipelines, report.

A scenario file is a JSON object read through the field tables below (the
README's "Scenario files" lists them).  It picks an invariant-subspace
description, a list of checks, and a truncation sweep; reports are
deterministic, so two runs of one scenario give byte-identical output.

Exit codes: 0 all checks pass, 1 some check failed or errored, 2 input
error (unreadable file, schema violation, shape mismatch, oversized run).
"""

import argparse
import json
import math
import reprlib
import sys
from dataclasses import dataclass, field, replace
from functools import lru_cache, partial
from typing import Callable, NamedTuple

import numpy as np

from .operators import (
    DEFAULT_TOL,
    OperatorMatrix,
    build_kernel_operator,
    build_range_operator,
    intertwining_residual,
    nehari_bounds,
    nehari_lower_bound,
    svd_analysis,
)
from .subspaces import (
    KERNEL_REP,
    TYPE_I,
    TYPE_II,
    VARIANTS,
    InvariantSubspaceSpec,
    SpecValidationError,
    SubspaceBasis,
    VerificationReport,
    invariance_check,
    kernel_representation_check,
    kernel_subspace,
    mixed_invariant_subspace,
    operator_truncation,
    range_representation_check,
    range_window_basis,
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
    split_square_blocks,
    zero_symbol,
)

DEFAULT_N_LIST = (8, 16, 32)
# Lower bounds of one nehari sweep may fall by this much, float noise on
# equal bounds, and still count as rising with n.
NEHARI_MONOTONE_SLACK = 1e-12
# Largest dense complex array a scenario may ask for: 2**24 entries are
# 256 MiB of complex128.  The sample scenario at n = 512 needs 4.2e6.
MAX_DENSE_ENTRIES = 2 ** 24


class ScenarioError(ValueError):
    """Input-level problem: bad file, schema violation, shape mismatch."""


# --- scenario schema: one field table per JSON object, read only by _fields ---


class Row(NamedTuple):
    default: object  # _REQUIRED for a key that must be given
    test: Callable[[object], bool | str]  # a str rejects and says why
    phrase: str  # completes "field <path> must be ..."


_REQUIRED = object()
_INT_LIMIT = 2 ** 53  # JSON integers beyond this are not interoperable (RFC 7493)


def _of(*types):
    return lambda value: isinstance(value, types)


def _is_int(value, lo: int = 1 - _INT_LIMIT) -> bool:
    """A JSON integer in [lo, 2**53): Python's bool is an int, JSON's true is not."""
    return isinstance(value, int) and not isinstance(value, bool) and lo <= value < _INT_LIMIT


def _is_real(value) -> bool:
    """A finite JSON number."""
    return isinstance(value, (int, float)) and not isinstance(value, bool) \
        and abs(value) <= sys.float_info.max


def _is_check_list(value) -> bool | str:
    if not (isinstance(value, list) and value):
        return False
    for check in value:
        if check not in CHECK_IDS:
            return f"unknown check id {reprlib.repr(check)}; valid: {CHECK_IDS}"
        if value.count(check) > 1:
            return f"check id {check!r} given twice"
    return True


_SCENARIO = {
    "name": Row(None, _of(str), "a string"),
    "spec": Row(_REQUIRED, _of(dict), "a JSON object"),
    "checks": Row(("twocond", "invariance"), _is_check_list,
                  "a nonempty list of distinct check ids"),
    "n_list": Row(DEFAULT_N_LIST, lambda v: isinstance(v, list) and len(v) > 0
                  and all(_is_int(n, 1) for n in v) and all(a < b for a, b in zip(v, v[1:])),
                  "a nonempty strictly ascending list of integers in [1, 2**53)"),
    "tol": Row(DEFAULT_TOL, lambda v: _is_real(v) and v > 0, "a finite positive JSON number"),
    "window": Row(None, lambda v: v is None or _is_int(v, 0), "an integer in [0, 2**53) or null"),
    "expect": Row({}, _of(dict), "a JSON object"),
    "nehari_candidates": Row((), _of(list), "a list of objects with symbol literals L1 and L2"),
}
_SPEC = {
    "variant": Row(_REQUIRED, lambda v: v in VARIANTS, f"one of {VARIANTS}"),
    "dimE": Row(_REQUIRED, lambda v: _is_int(v, 1), "an integer in [1, 2**53)"),
    "dimF": Row(_REQUIRED, lambda v: _is_int(v, 1), "an integer in [1, 2**53)"),
    **{key: Row(None, _of(dict, type(None)), "a symbol literal or null")
       for key in ("U", "Omega", "Psi", "Phi", "Theta")},
}
_EXPECT = {key: Row(default, _of(bool), "true or false")
           for key, default in (("splitting", False), ("partial_isometry", True))}
_CANDIDATE = {key: Row(_REQUIRED, _of(dict), "a symbol literal") for key in ("L1", "L2")}
_COUNT = Row(_REQUIRED, lambda v: _is_int(v, 1), "an integer in [1, 2**53)")
_LITERAL = {"rows": _COUNT, "cols": _COUNT,
            "coeffs": Row(_REQUIRED, _of(list), "a list of coefficient entries")}
_REALS = Row(None, lambda v: isinstance(v, list) and all(_is_real(x) for x in v),
             "a flat list of JSON numbers, none of them non-finite")
_COEFF = {"k": Row(_REQUIRED, _is_int, "an integer in (-2**53, 2**53)"),
          "re": _REALS._replace(default=_REQUIRED), "im": _REALS}


def _checked(value, row: Row, name: str):
    """value, if it passes the row's test; else an error naming it."""
    verdict = row.test(value)
    if isinstance(verdict, str) or not verdict:
        why = f" ({verdict})" if verdict else ""
        raise ScenarioError(f"{name} must be {row.phrase}; got {reprlib.repr(value)}{why}")
    return value


def _fields(obj, table: dict[str, Row], path: str) -> dict:
    """Read one JSON object against its field table, defaults filled in."""
    where = f"field {path}" if path else "scenario"
    if not isinstance(obj, dict):
        raise ScenarioError(f"{where} must be a JSON object; got {reprlib.repr(obj)}")
    for key in obj:
        if key not in table:
            raise ScenarioError(f"{where}: unknown key {reprlib.repr(key)}; "
                                f"valid: {tuple(table)}")
    out = {}
    for key, row in table.items():
        name = f"field {path}.{key}" if path else f"field {key}"
        if key in obj:
            out[key] = _checked(obj[key], row, name)
        elif row.default is _REQUIRED:
            raise ScenarioError(f"{name} is required")
        else:
            out[key] = row.default
    return out


def _within_cap(entries: int, source: str, what: str) -> None:
    """Reject, before it is allocated, a dense complex array above the cap."""
    if entries > MAX_DENSE_ENTRIES:
        raise ScenarioError(f"{source}: {what} holds {entries:.3g} complex entries "
                            f"({entries / 2 ** 26:.3g} GiB), above the cap of "
                            f"{MAX_DENSE_ENTRIES} ({MAX_DENSE_ENTRIES / 2 ** 26:g} GiB)")


def symbol_from_literal(payload, field_name: str = "symbol") -> LaurentSymbol:
    """Parse the structured-text symbol literal."""
    rows, cols, items = _fields(payload, _LITERAL, field_name).values()
    entries = [_fields(item, _COEFF, f"{field_name}.coeffs[{i}]")
               for i, item in enumerate(items)]
    # zero blocks are stored at degree 0, and Psi and Phi derived from U are square
    ks, side = [0] + [entry["k"] for entry in entries], max(rows, cols)
    _within_cap((max(ks) - min(ks) + 1) * side ** 2, f"field {field_name}",
                f"the stack of degrees {min(ks)}..{max(ks)} at {side}x{side}")
    coeffs = {}
    for i, (k, re, im) in enumerate(entry.values() for entry in entries):
        for part, values in (("re", re), ("im", re if im is None else im)):
            if len(values) != rows * cols:
                raise ScenarioError(f"field {field_name}.coeffs[{i}].{part} carries "
                                    f"{len(values)} entries, expected rows*cols = {rows * cols}")
        if k in coeffs:
            raise ScenarioError(f"field {field_name}: coefficient k={k} given twice")
        coeffs[k] = np.asarray(re, dtype=float) + 1j * np.asarray(
            0.0 if im is None else im, dtype=float)
    return make_symbol(rows, cols, coeffs) if coeffs else zero_symbol(rows, cols)


def symbol_to_literal(sym: LaurentSymbol) -> dict:
    return {"rows": sym.rows, "cols": sym.cols, "coeffs": [
        {"k": sym.kmin + i, "re": [float(v) for v in blk.real.ravel()],
         "im": [float(v) for v in blk.imag.ravel()]}
        for i, blk in enumerate(sym.coeffs) if np.any(blk)]}


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
        return "\n".join(json.dumps({
            "scenario": r.scenario,
            "check": r.check,
            "n": r.n,
            # an errored check records inf, which JSON cannot carry
            "residual": _sig12(r.residual) if math.isfinite(r.residual) else None,
            "pass": r.passed,
        }, sort_keys=True, allow_nan=False) for r in self.records) + "\n"

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


def _spec_from_payload(payload) -> InvariantSubspaceSpec:
    f = _fields(payload, _SPEC, "spec")
    symbols = {key.lower(): symbol_from_literal(f[key], f"spec.{key}")
               for key in ("U", "Omega", "Psi", "Phi", "Theta") if f[key] is not None}
    try:
        spec = InvariantSubspaceSpec(f["variant"], f["dimE"], f["dimF"], **symbols)
    except SpecValidationError as exc:
        raise ScenarioError(str(exc)) from exc
    _validate_membership(spec)
    return spec


def _validate_membership(spec: InvariantSubspaceSpec) -> None:
    """Reject a given Phi whose top blocks, or a given Psi whose bottom
    blocks, are not analytic, whatever the variant."""
    for key, sym, half, blocks in (("Phi", spec.phi, "top", slice(0, 2)),
                                   ("Psi", spec.psi, "bottom", slice(2, 4))):
        if sym is not None and not all(
                s.is_analytic() for s in split_square_blocks(sym, spec.dim_e)[blocks]):
            raise ScenarioError(
                f"field spec.{key}: the {half} blocks must be bounded analytic "
                "(block A or B carries negative coefficients)")


def _scenario_from_payload(payload, fallback_name: str) -> Scenario:
    f = _fields(payload, _SCENARIO, "")
    candidates = tuple(
        tuple(symbol_from_literal(lit, f"nehari_candidates[{i}].{key}")
              for key, lit in _fields(cand, _CANDIDATE, f"nehari_candidates[{i}]").items())
        for i, cand in enumerate(f["nehari_candidates"]))
    spec = _spec_from_payload(f["spec"])
    _validate_candidates(spec, candidates)
    scenario = Scenario(
        fallback_name if f["name"] is None else f["name"], spec,
        tuple(f["checks"]), tuple(f["n_list"]), float(f["tol"]), f["window"],
        _fields(f["expect"], _EXPECT, "expect"), candidates)
    _validate_check_requirements(scenario)
    return scenario


def _validate_candidates(spec: InvariantSubspaceSpec, candidates: tuple) -> None:
    """Reject a nehari candidate (L1, L2) that is not analytic or does not
    have the shapes (dimF, dimE), (dimF, dimF) of blocks C and D."""
    for i, pair in enumerate(candidates):
        for key, sym, shape in zip(("L1", "L2"), pair,
                                   ((spec.dim_f, spec.dim_e), (spec.dim_f, spec.dim_f))):
            name = f"field nehari_candidates[{i}].{key}"
            if sym.shape != shape:
                raise ScenarioError(f"{name} has shape {sym.shape}, expected {shape}, "
                                    f"the shape of block {'C' if key == 'L1' else 'D'}")
            if not sym.is_analytic():
                raise ScenarioError(f"{name} must be analytic; found coefficients "
                                    f"down to index {sym.kmin}")


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
        if check == "kernel_rep" and "kernel" not in spec.mixed:
            raise ScenarioError(
                f"check {check} requires field Psi (or a type_i U to derive it)")
        if check in needs_phi and "range" not in spec.mixed:
            raise ScenarioError(
                f"check {check} requires field Phi (or a type_i U to derive it)")
        if check in needs_either and not spec.mixed:
            raise ScenarioError(f"check {check} requires field Phi or Psi")
        if check == "nehari":
            phi = spec.mixed["range"]
            for i, pair in enumerate(sc.nehari_candidates):
                lo, hi = min(phi.kmin, 0), max(sym.kmax for sym in (phi, *pair))
                _within_cap((hi - lo + 1) * phi.rows ** 2, f"field nehari_candidates[{i}]",
                            f"the completed stack Phi - [0, 0; L1, L2] of degrees "
                            f"{lo}..{hi} at {phi.rows}x{phi.rows}")
        if check == "splitting":
            if spec.mixed["range"].shape != (2, 2) or spec.dim_e != 1 or spec.dim_f != 1:
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
    except (ValueError, RecursionError) as exc:  # bad UTF-8, a 4300-digit integer, deep nesting
        raise ScenarioError(f"{path}: unreadable JSON ({exc})") from exc
    name = path.rsplit("/", 1)[-1].rsplit(".", 1)[0]
    try:
        return _scenario_from_payload(payload, name)
    except ScenarioError as exc:
        raise ScenarioError(f"{path}: {exc}") from exc


def _target_subspace(sc: Scenario, n: int, operator) -> SubspaceBasis:
    spec = sc.spec
    if spec.variant in (TYPE_I, TYPE_II):
        return mixed_invariant_subspace(spec, n, sc.window)
    kind = "kernel" if spec.variant == KERNEL_REP else "range"
    w = sc.window if sc.window is not None else n - spec.mixed[kind].bandwidth
    op = operator(kind, operator_truncation(spec.mixed[kind], w, n))
    return kernel_subspace(op, w) if kind == "kernel" else range_window_basis(op, w)


def _check_run_size(sc: Scenario, source: str) -> None:
    """Cap the largest dense complex matrix a run of sc builds.

    Without invariance, kernel_rep or range_rep no subspace is built, and
    the largest is the mixed operator at n.  Otherwise the bilateral
    ambient has 2n + 1 degrees per fiber, and a mixed operator requested
    at the ``operator_truncation`` of a window stays within
    max(n, window) + max |k| + 1 degrees (the 1 for Psi, Phi from U).
    The nehari candidates are capped with the check's requirements, at
    parse time: their completed stack does not depend on n.
    """
    spec, n = sc.spec, sc.n_list[-1]
    degrees, dpf = n + 1, spec.dim_e + spec.dim_f
    if {"invariance", "kernel_rep", "range_rep"} & set(sc.checks):
        reach = 1 + max(max(-sym.kmin, sym.kmax) for sym in
                        (spec.u, spec.omega, spec.psi, spec.phi, spec.theta) if sym is not None)
        degrees = 2 * (max(n, sc.window or 0) + reach) + 1
    _within_cap((degrees * dpf) ** 2, source, f"at n = {n} the largest dense matrix, "
                f"{degrees} degrees of dimE + dimF = {dpf} fibers,")


def _record_from_report(sc: Scenario, check: str, n: int, rep: VerificationReport) -> Record:
    residual = max((c.residual for c in rep.checks if c.gating), default=0.0)
    window = next((c.window for c in rep.checks if c.window is not None), None)
    detail = "; ".join(f"{c.name}={'ok' if c.passed else 'FAIL'}" for c in rep.checks)
    return Record(sc.name, check, n, residual, rep.overall, window, detail)


def _mixed_operator(sc: Scenario, kind: str, m: int) -> OperatorMatrix:
    """The mixed operator of kind ("range" or "kernel") of the spec's mixed
    symbol, at truncation m: the one call of the mixed builders."""
    build = build_range_operator if kind == "range" else build_kernel_operator
    return build(sc.spec.mixed[kind], sc.spec.dim_e, m)


def _check_twocond(sc: Scenario, n: int, target, operator) -> Record:
    return _record_from_report(sc, "twocond", n, twocond_check(sc.spec, sc.tol))


def _check_invariance(sc: Scenario, n: int, target, operator) -> Record:
    basis = target()
    resid = invariance_check(basis)
    return Record(sc.name, "invariance", n, resid, resid <= sc.tol, basis.window)


def _check_kernel_rep(sc: Scenario, n: int, target, operator) -> Record:
    basis, psi = target(), sc.spec.mixed["kernel"]
    op = operator("kernel", operator_truncation(psi, basis.window, n))
    rep = kernel_representation_check(basis, psi, sc.spec.theta, op, sc.tol)
    return _record_from_report(sc, "kernel_rep", n, rep)


def _check_range_rep(sc: Scenario, n: int, target, operator) -> Record:
    basis, phi = target(), sc.spec.mixed["range"]
    op = operator("range", operator_truncation(phi, basis.window, n))
    return _record_from_report(sc, "range_rep", n,
                               range_representation_check(basis, phi, op, sc.tol))


def _check_splitting(sc: Scenario, n: int, target, operator) -> Record:
    splitting = splitting_check_scalar(sc.spec.mixed["range"])
    expected = sc.expect.get("splitting", False)
    ok = splitting == expected
    return Record(sc.name, "splitting", n, 0.0 if ok else 1.0, ok,
                  detail=f"splitting={splitting} expected={expected}")


def _check_intertwining(sc: Scenario, n: int, target, operator) -> Record:
    resid = {kind: intertwining_residual(operator(kind, n), kind)
             for kind in sc.spec.mixed}
    worst = max(resid.values(), default=0.0)
    return Record(sc.name, "intertwining", n, worst, worst <= sc.tol,
                  detail="; ".join(f"{kind}={_fmt(r)}" for kind, r in resid.items()))


def _check_nehari(sc: Scenario, n: int, target, operator) -> Record:
    """Bracket the sweep at its last n, with one lower bound per n of the
    sweep from the shared range operator at that n."""
    swept = [(m, nehari_lower_bound(operator("range", m))) for m in sc.n_list]
    bracket = nehari_bounds(sc.spec.mixed["range"], sc.spec.dim_e, swept,
                            sc.nehari_candidates)
    lows = [lo for _, lo in bracket.lower_bounds]
    monotone = all(x <= y + NEHARI_MONOTONE_SLACK for x, y in zip(lows, lows[1:]))
    violation = max(0.0, max(lows) - min(bracket.upper_bounds)) \
        if bracket.upper_bounds else 0.0
    ok = monotone and violation <= sc.tol
    detail = (f"lower={[_fmt(x) for x in lows]} "
              f"upper={[_fmt(x) for x in bracket.upper_bounds]}")
    return Record(sc.name, "nehari", n, violation, ok, detail=detail)


def _check_partial_isometry(sc: Scenario, n: int, target, operator) -> Record:
    expected = sc.expect.get("partial_isometry", True)
    flags = {kind: svd_analysis(operator(kind, n), sc.tol) for kind in sc.spec.mixed}
    ok = all(flags.values()) == expected
    parts = "; ".join(f"{kind}_op={flag}" for kind, flag in flags.items())
    return Record(sc.name, "partial_isometry", n, 0.0 if ok else 1.0, ok,
                  detail=f"{parts} expected={expected}")


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


# checks that run at the last n of the sweep only
_LAST_N_ONLY = {"twocond", "splitting", "nehari"}


def run(scenario: Scenario) -> Report:
    """Execute every requested check at every truncation in the sweep.

    The loop is n-major: at each n, every check that reads n runs in the
    order listed.  The target subspace is built at most once per n, on
    first use.  Each mixed operator is built at most once per call, on
    first use, keyed by kind ("range", "kernel") and truncation: operator
    checks read it at n, representation checks and targets at the
    ``operator_truncation`` of their window, nehari at every n.  A build
    that raises is not kept, so each check records its own error.
    twocond, splitting and nehari run at the last n only.  Records are
    emitted check-major.  Operators and targets are not kept across calls;
    the mixed symbols are, in ``scenario.spec.mixed``.
    """
    last = scenario.n_list[-1]
    operator = lru_cache(maxsize=None)(partial(_mixed_operator, scenario))
    records: dict[str, list[Record]] = {check: [] for check in scenario.checks}
    for n in scenario.n_list:
        target = lru_cache(maxsize=None)(partial(_target_subspace, scenario, n, operator))
        for check in scenario.checks:
            if check in _LAST_N_ONLY and n != last:
                continue
            try:
                records[check].append(_CHECKS[check](scenario, n, target, operator))
            except (ValueError, KeyError) as exc:
                records[check].append(Record(scenario.name, check, n, float("inf"), False,
                                             detail=f"error: {exc}"))
    return Report([r for check in scenario.checks for r in records[check]])


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
    cols = np.zeros((dpf, dim_f))
    cols[:dim_e] = 1.0 / dim_e
    cols[dim_e:] = -np.eye(dim_f)
    q, _ = np.linalg.qr(cols)
    const = q[:, :dim_f]
    u0 = np.hstack([const, np.zeros((dpf, 1))])
    u1 = np.hstack([np.zeros((dpf, dim_f)), ones[:, None]])
    return make_symbol(dpf, dim_f + 1, {0: u0, 1: u1})


def replicated_omega(dim_e: int, dim_f: int) -> LaurentSymbol | None:
    """Doubly invariant columns of the replicated-evaluation subspace."""
    if dim_e < 2:
        return None
    cols = np.zeros((dim_e, dim_e - 1))
    cols[0] = 1.0
    cols[1:] = -np.eye(dim_e - 1)
    q, _ = np.linalg.qr(cols)
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
    spec12 = replace(demo_subspace_specs()["replicated-1-2"],
                     phi=replicated_range_symbol(1, 2))
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
    spec = replace(demo_subspace_specs()["doubly-invariant-corner"],
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
    p_verify.add_argument("--n", help="comma-separated truncation sweep override")
    p_verify.add_argument("--tol", help="residual tolerance override (finite, positive); "
                          "it never moves a rank decision")
    p_demo = sub.add_parser("demo", help="run a built-in demo")
    p_demo.add_argument("name")
    for p in (p_verify, p_demo):
        p.add_argument("--format", choices=("text", "structured"), default="text")
    sub.add_parser("list-demos", help="list built-in demo names")
    return parser


def _option(text: str, convert, key: str, option: str):
    """An option's text, converted, then tested by the row of its scenario key."""
    try:
        value = convert(text)
    except ValueError as exc:
        raise ScenarioError(f"option {option}: cannot read {text!r} ({exc})") from exc
    return _checked(value, _SCENARIO[key], f"option {option}")


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "list-demos":
            print("\n".join(sorted(DEMOS)))
            return 0
        if args.command == "demo":
            report = demo(args.name)
        else:
            overrides = {}
            if args.n is not None:
                overrides["n_list"] = tuple(_option(
                    args.n, lambda text: [int(v) for v in text.split(",")], "n_list", "--n"))
            if args.tol is not None:
                overrides["tol"] = _option(args.tol, float, "tol", "--tol")
            scenarios = [replace(parse_scenario(path), **overrides) for path in args.paths]
            for path, sc in zip(args.paths, scenarios):
                _check_run_size(sc, f"{path}: " + ("option --n" if args.n is not None
                                                   else "field n_list"))
            report = run_batch(scenarios)
    except ScenarioError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    sys.stdout.write(report.structured() if args.format == "structured"
                     else report.text())
    return report.exit_status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
