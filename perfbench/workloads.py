"""Seeded scenario generator for the benchmark workloads.

Every generated scenario is a documented scenario file (see the README's
"Scenario files"), loaded by the program through ``cli.parse_scenario``.
The dense workloads rotate a base column symbol ``U`` as ``D U W``:
``D`` is a seeded block-diagonal unitary acting fiber-wise (one block on
the first fiber, one on the second) and ``W`` a seeded Haar unitary on
the columns.  ``W`` keeps the column span and ``D`` maps the subspace
onto a fiber-wise unitary copy, so the subspace structure, the splitting
verdict and the partial-isometry verdict of the base symbol carry over:
every record's expected verdict is known by construction.
"""

import json
from pathlib import Path

import numpy as np

from shiftlab import cli
from shiftlab.symbols import make_symbol, zero_symbol

SWEEP_DENSE = "sweep-dense"
OPERATORS_WIDE = "operators-wide"

ALL_CHECKS = ["twocond", "invariance", "kernel_rep", "range_rep", "splitting",
              "partial_isometry", "intertwining"]
OPERATOR_CHECKS = ["partial_isometry", "intertwining", "nehari"]
SWEEP_DENSE_N = [32, 64, 128, 256]
OPERATORS_WIDE_N = [64, 128, 256]
TOL = 1e-8


def haar_unitary(rng: np.random.Generator, m: int) -> np.ndarray:
    """Haar-distributed m x m unitary (QR of a Ginibre matrix, phases fixed)."""
    z = (rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def rotate(u, dim_e: int, dim_f: int, rng: np.random.Generator):
    """D U W with D = diag(Haar(dim_e), Haar(dim_f)) and W = Haar(cols)."""
    d = np.zeros((dim_e + dim_f, dim_e + dim_f), dtype=complex)
    d[:dim_e, :dim_e] = haar_unitary(rng, dim_e)
    d[dim_e:, dim_e:] = haar_unitary(rng, dim_f)
    w = haar_unitary(rng, u.cols)
    coeffs = {u.kmin + i: d @ c @ w for i, c in enumerate(u.coeffs)}
    return make_symbol(u.rows, u.cols, coeffs)


def _scenario(name, u, dim_e, dim_f, checks, n_list, expect, extra=None):
    payload = {
        "name": name,
        "spec": {"variant": "type_i", "dimE": dim_e, "dimF": dim_f,
                 "U": cli.symbol_to_literal(u)},
        "checks": checks,
        "n_list": n_list,
        "tol": TOL,
        "expect": expect,
    }
    payload.update(extra or {})
    return payload


def sweep_dense(rng):
    """One rotation of each scalar-fiber demo column symbol, all seven checks."""
    scalar_splitting = cli.demo_subspace_specs()["scalar-splitting"].u
    bases = [("timotin", cli.timotin_u(), False),
             ("scalar-splitting", scalar_splitting, True)]
    return [_scenario(f"{label}-rot", rotate(u, 1, 1, rng), 1, 1,
                      ALL_CHECKS, SWEEP_DENSE_N,
                      {"splitting": splits, "partial_isometry": True})
            for label, u, splits in bases]


def operators_wide(rng):
    """Rotations of replicated_u(1, 2): operator checks only, zero candidate."""
    dim_e, dim_f = 1, 2
    zero = {"L1": cli.symbol_to_literal(zero_symbol(dim_f, dim_e)),
            "L2": cli.symbol_to_literal(zero_symbol(dim_f, dim_f))}
    base = cli.replicated_u(dim_e, dim_f)
    return [_scenario(f"replicated-1-2-rot{i}", rotate(base, dim_e, dim_f, rng),
                      dim_e, dim_f, OPERATOR_CHECKS, OPERATORS_WIDE_N,
                      {"partial_isometry": True}, {"nehari_candidates": [zero]})
            for i in range(2)]


def generate(name: str, seed: int, out_dir: Path) -> list[str]:
    """Write the workload's scenario files for ``seed`` into ``out_dir``;
    return their paths."""
    rng = np.random.default_rng(seed)
    payloads = sweep_dense(rng) if name == SWEEP_DENSE else operators_wide(rng)
    files = []
    for payload in payloads:
        path = out_dir / f"{payload['name']}.json"
        path.write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")
        files.append(str(path))
    return files
