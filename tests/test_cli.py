"""Scenario parsing, batch running, demos, and exit-code contract."""

import io
import json
import re
import time
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from conftest import (
    CORPUS,
    REPO,
    assert_same_build,
    coeff_distance,
    corpus_inputs,
    haar_unitary,
    library_specs,
    scaled,
)
from shiftlab import cli, linalg, operators, subspaces, symbols
from shiftlab.cli import (
    DEMOS,
    ScenarioError,
    demo,
    main,
    parse_scenario,
    run,
    run_batch,
    symbol_from_literal,
    symbol_to_literal,
)
from shiftlab.operators import build_kernel_operator, build_range_operator, leading_section
from shiftlab.subspaces import kernel_symbol_from_u, operator_truncation, range_symbol_from_u
from shiftlab.symbols import LaurentSymbol, make_symbol


SAMPLE = Path(__file__).resolve().parent.parent / "scenarios" / "sample-inner-column.json"


def write_scenario(tmp_path, payload, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def minimal_payload():
    return {
        "name": "minimal",
        "spec": {
            "variant": "type_i",
            "dimE": 1,
            "dimF": 1,
            "U": {"rows": 2, "cols": 1, "coeffs": [{"k": 0, "re": [1.0, 0.0]}]},
        },
        "checks": ["twocond", "invariance"],
        "n_list": [8],
    }


def skewed_omega_payload():
    """type_ii data whose Omega = [1; 0] is not orthogonal to U = [0.6; 0.8]."""
    return {
        "name": "skewed-omega",
        "spec": {
            "variant": "type_ii",
            "dimE": 1,
            "dimF": 1,
            "U": {"rows": 2, "cols": 1, "coeffs": [{"k": 0, "re": [0.6, 0.8]}]},
            "Omega": {"rows": 1, "cols": 1, "coeffs": [{"k": 0, "re": [1.0]}]},
        },
        "checks": ["twocond"],
        "n_list": [8],
    }


def representation_payload(variant, checks):
    """The timotin subspace given by its range symbol Phi or kernel symbol Psi."""
    key, build = ("Phi", range_symbol_from_u) if variant == "range_rep" \
        else ("Psi", kernel_symbol_from_u)
    return {
        "name": variant,
        "spec": {"variant": variant, "dimE": 1, "dimF": 1,
                 key: symbol_to_literal(build(cli.timotin_u(), 1, 1))},
        "checks": checks,
        "n_list": [8, 16],
    }


class TestSymbolLiteral:
    def test_round_trip(self):
        sym = make_symbol(2, 1, {0: [[1], [0]], -2: [[0.5j], [1]]})
        back = symbol_from_literal(symbol_to_literal(sym))
        assert coeff_distance(sym, back) == 0

    def test_missing_fields_named(self):
        with pytest.raises(ScenarioError, match="spec.U"):
            symbol_from_literal({"rows": 2}, "spec.U")

    def test_entry_count_checked(self):
        with pytest.raises(ScenarioError, match="expected rows\\*cols"):
            symbol_from_literal(
                {"rows": 2, "cols": 2, "coeffs": [{"k": 0, "re": [1.0]}]}, "f")

    def test_duplicate_k_exit_two(self, tmp_path, capsys):
        payload = minimal_payload()
        payload["spec"]["U"]["coeffs"].append({"k": 0, "re": [0.0, 1.0]})
        assert main(["verify", write_scenario(tmp_path, payload)]) == 2
        err = capsys.readouterr().err
        assert "spec.U" in err and "k=0 given twice" in err

    @pytest.mark.parametrize("key, value, named", [
        ("rows", 2.7, "field spec.U.rows"),
        ("rows", "2", "field spec.U.rows"),
        ("rows", -1, "field spec.U.rows"),
        ("cols", True, "field spec.U.cols"),
        ("cols", 1.0, "field spec.U.cols"),
        ("coeffs", 5, "field spec.U.coeffs"),
        ("k", 1.9, "field spec.U.coeffs[0].k"),
        ("k", "0", "field spec.U.coeffs[0].k"),
        ("colour", 1, "field spec.U: unknown key 'colour'"),
    ], ids=["rows-float", "rows-string", "rows-negative", "cols-true", "cols-float",
            "coeffs-number", "k-float", "k-string", "unknown-key"])
    def test_non_integer_literal_field_exit_two(self, tmp_path, capsys, key, value, named):
        payload = minimal_payload()
        target = payload["spec"]["U"]["coeffs"][0] if key == "k" else payload["spec"]["U"]
        target[key] = value
        assert main(["verify", write_scenario(tmp_path, payload)]) == 2
        assert named in capsys.readouterr().err

    @pytest.mark.parametrize("entry, named", [
        ({"k": 0, "re": [1.0, 0.0], "imag": [0.0, 1.0]},
         "field spec.U.coeffs[0]: unknown key 'imag'"),
        ({"k": 0, "re": [1.0, 0.0], "scale": 2.0}, "field spec.U.coeffs[0]: unknown key"),
        ({"k": 0, "re": ["0.7", "0"]}, "field spec.U.coeffs[0].re must be"),
        ({"k": 0, "re": [True, False]}, "field spec.U.coeffs[0].re must be"),
        ({"k": 0, "re": [[0.7], [0.0]]}, "field spec.U.coeffs[0].re must be"),
        ({"k": 0, "re": [1.0, 0.0], "im": None}, "field spec.U.coeffs[0].im must be"),
    ], ids=["imag-typo", "unknown-key", "re-strings", "re-booleans", "re-nested", "im-null"])
    def test_malformed_coefficient_entry_exit_two(self, tmp_path, capsys, entry, named):
        payload = minimal_payload()
        payload["spec"]["U"]["coeffs"] = [entry]
        assert main(["verify", write_scenario(tmp_path, payload)]) == 2
        assert named in capsys.readouterr().err

    @pytest.mark.parametrize("literal", [
        # degrees from -(2**53 - 1) to 2**53 - 1: an exbibyte, beyond any address space
        {"rows": 2, "cols": 1, "coeffs": [{"k": 1 - 2 ** 53, "re": [1.0, 0.0]},
                                          {"k": 2 ** 53 - 1, "re": [0.0, 1.0]}]},
        # 2**80 entries: more bytes than numpy can index
        {"rows": 2 ** 40, "cols": 2 ** 40, "coeffs": []},
    ], ids=["far-degrees", "huge-shape"])
    def test_oversized_literal_exit_two(self, tmp_path, capsys, literal):
        payload = minimal_payload()
        payload["spec"]["U"] = literal
        assert main(["verify", write_scenario(tmp_path, payload)]) == 2
        err = capsys.readouterr().err
        assert "field spec.U: the stack of degrees" in err and "above the cap" in err

    @pytest.mark.parametrize("entry", [
        {"k": 0, "re": [float("nan"), 0.0]},
        {"k": 0, "re": [1.0, 0.0], "im": [0.0, float("inf")]},
    ])
    def test_non_finite_coefficient_exit_two(self, tmp_path, capsys, entry):
        payload = minimal_payload()
        payload["spec"]["U"]["coeffs"] = [entry]
        assert main(["verify", write_scenario(tmp_path, payload)]) == 2
        err = capsys.readouterr().err
        assert "spec.U" in err and "non-finite" in err


class TestParseScenario:
    def test_minimal_scenario_parses_and_runs(self, tmp_path):
        sc = parse_scenario(write_scenario(tmp_path, minimal_payload()))
        assert sc.name == "minimal"
        report = run(sc)
        assert report.exit_status == 0

    def test_fiber_mismatch_names_field(self, tmp_path):
        payload = minimal_payload()
        payload["spec"]["U"] = {
            "rows": 3, "cols": 2,
            "coeffs": [{"k": 0, "re": [1, 0, 0, 1, 0, 0]}],
        }
        with pytest.raises(ScenarioError, match="field U"):
            parse_scenario(write_scenario(tmp_path, payload))

    def test_non_analytic_block_in_range_rep_rejected(self, tmp_path):
        payload = {
            "spec": {
                "variant": "range_rep",
                "dimE": 1,
                "dimF": 1,
                "Phi": {"rows": 2, "cols": 2,
                        "coeffs": [{"k": -1, "re": [1, 0, 0, 0]}]},
            },
            "checks": ["invariance"],
            "n_list": [8],
        }
        with pytest.raises(ScenarioError, match="bounded analytic"):
            parse_scenario(write_scenario(tmp_path, payload))

    def test_unknown_check_rejected(self, tmp_path):
        payload = minimal_payload()
        payload["checks"] = ["twocond", "frobnicate"]
        with pytest.raises(ScenarioError, match="frobnicate"):
            parse_scenario(write_scenario(tmp_path, payload))

    def test_descending_sweep_rejected(self, tmp_path):
        payload = minimal_payload()
        payload["n_list"] = [16, 8]
        with pytest.raises(ScenarioError, match="ascending"):
            parse_scenario(write_scenario(tmp_path, payload))

    def test_invalid_json_reports_position(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ScenarioError, match="line"):
            parse_scenario(str(path))


ZERO_CANDIDATE = {"L1": {"rows": 1, "cols": 1, "coeffs": []},
                  "L2": {"rows": 1, "cols": 1, "coeffs": []}}
# Scenarios whose operator builds fail at small n, with their text output
# and their structured records as (check, n, pass, residual).  The kernel
# operator of U = [1; z^3] / sqrt(2) needs n >= 3, also on the descending
# sweep 8, 2, 1 (given to ``run`` directly: a scenario file must ascend),
# whose deepest truncation comes first and whose last-n checks run at
# n = 1; the range operator of Phi = [z^3, 0; 0, zbar] needs n >= 3, and
# its nehari sweep error is recorded at the last n; the Hankel block
# zbar^4 of Phi = [1, 0; zbar^4, 0] is deeper than n + 1 at n = 1, 2, so
# those truncations have no exact input, and the target reads the range
# operator at truncation 4 for n = 1, 2.
BUILD_ERROR_CASES = [
    ({"name": "kernel-too-small",
      "spec": {"variant": "type_i", "dimE": 1, "dimF": 1,
               "U": {"rows": 2, "cols": 1, "coeffs": [
                   {"k": 0, "re": [0.7071067811865476, 0]},
                   {"k": 3, "re": [0, 0.7071067811865476]}]}},
      "checks": ["partial_isometry", "intertwining", "nehari", "invariance", "kernel_rep"],
      "n_list": [1, 2, 8],
      "nehari_candidates": [ZERO_CANDIDATE]},
     ("scenario kernel-too-small\n"
      "  partial_isometry   n=1    residual=inf FAIL  [error: truncation n = 1 is smaller than the symbol band [-3, -3]]\n"
      "  partial_isometry   n=2    residual=inf FAIL  [error: truncation n = 2 is smaller than the symbol band [-3, -3]]\n"
      "  partial_isometry   n=8    residual=1 FAIL  [range_op=False; kernel_op=False expected=True]\n"
      "  intertwining       n=1    residual=inf FAIL  [error: empty exactness window: truncation too small]\n"
      "  intertwining       n=2    residual=inf FAIL  [error: truncation n = 2 is smaller than the symbol band [-3, -3]]\n"
      "  intertwining       n=8    residual=0 PASS  [range=0; kernel=0]\n"
      "  nehari             n=8    residual=0 PASS  [lower=['0', '1', '1'] upper=['1']]\n"
      "  invariance         n=1    residual=inf FAIL  [error: symbol band [0, 3] exceeds truncation 1]\n"
      "  invariance         n=2    residual=inf FAIL  [error: symbol band [0, 3] exceeds truncation 2]\n"
      "  invariance         n=8    window=5 residual=0 PASS\n"
      "  kernel_rep         n=1    residual=inf FAIL  [error: symbol band [0, 3] exceeds truncation 1]\n"
      "  kernel_rep         n=2    residual=inf FAIL  [error: symbol band [0, 3] exceeds truncation 2]\n"
      "  kernel_rep         n=8    window=5 residual=0 PASS  [kernel_distance=ok]\n"
      "overall FAIL\n"),
     [("partial_isometry", 1, False, None), ("partial_isometry", 2, False, None),
      ("partial_isometry", 8, False, 1.0), ("intertwining", 1, False, None),
      ("intertwining", 2, False, None), ("intertwining", 8, True, 0.0),
      ("nehari", 8, True, 0.0), ("invariance", 1, False, None),
      ("invariance", 2, False, None), ("invariance", 8, True, 0.0),
      ("kernel_rep", 1, False, None), ("kernel_rep", 2, False, None),
      ("kernel_rep", 8, True, 0.0)]),
    ({"name": "range-too-small",
      "spec": {"variant": "range_rep", "dimE": 1, "dimF": 1,
               "Phi": {"rows": 2, "cols": 2, "coeffs": [
                   {"k": 3, "re": [1, 0, 0, 0]}, {"k": -1, "re": [0, 0, 0, 1]}]}},
      "checks": ["nehari", "intertwining"],
      "n_list": [1, 2, 8],
      "nehari_candidates": [ZERO_CANDIDATE]},
     ("scenario range-too-small\n"
      "  nehari             n=8    residual=inf FAIL  [error: truncation n = 1 is smaller than the symbol band [3, 3]]\n"
      "  intertwining       n=1    residual=inf FAIL  [error: truncation n = 1 is smaller than the symbol band [3, 3]]\n"
      "  intertwining       n=2    residual=inf FAIL  [error: truncation n = 2 is smaller than the symbol band [3, 3]]\n"
      "  intertwining       n=8    residual=0 PASS  [range=0]\n"
      "overall FAIL\n"),
     [("nehari", 8, False, None), ("intertwining", 1, False, None),
      ("intertwining", 2, False, None), ("intertwining", 8, True, 0.0)]),
    ({"name": "kernel-too-small-descending",
      "spec": {"variant": "type_i", "dimE": 1, "dimF": 1,
               "U": {"rows": 2, "cols": 1, "coeffs": [
                   {"k": 0, "re": [0.7071067811865476, 0]},
                   {"k": 3, "re": [0, 0.7071067811865476]}]}},
      "checks": ["partial_isometry", "intertwining", "nehari", "invariance", "kernel_rep"],
      "n_list": [8, 2, 1],
      "nehari_candidates": [ZERO_CANDIDATE]},
     ("scenario kernel-too-small-descending\n"
      "  partial_isometry   n=8    residual=1 FAIL  [range_op=False; kernel_op=False expected=True]\n"
      "  partial_isometry   n=2    residual=inf FAIL  [error: truncation n = 2 is smaller than the symbol band [-3, -3]]\n"
      "  partial_isometry   n=1    residual=inf FAIL  [error: truncation n = 1 is smaller than the symbol band [-3, -3]]\n"
      "  intertwining       n=8    residual=0 PASS  [range=0; kernel=0]\n"
      "  intertwining       n=2    residual=inf FAIL  [error: truncation n = 2 is smaller than the symbol band [-3, -3]]\n"
      "  intertwining       n=1    residual=inf FAIL  [error: empty exactness window: truncation too small]\n"
      "  nehari             n=1    residual=0 FAIL  [lower=['1', '1', '0'] upper=['1']]\n"
      "  invariance         n=8    window=5 residual=0 PASS\n"
      "  invariance         n=2    residual=inf FAIL  [error: symbol band [0, 3] exceeds truncation 2]\n"
      "  invariance         n=1    residual=inf FAIL  [error: symbol band [0, 3] exceeds truncation 1]\n"
      "  kernel_rep         n=8    window=5 residual=0 PASS  [kernel_distance=ok]\n"
      "  kernel_rep         n=2    residual=inf FAIL  [error: symbol band [0, 3] exceeds truncation 2]\n"
      "  kernel_rep         n=1    residual=inf FAIL  [error: symbol band [0, 3] exceeds truncation 1]\n"
      "overall FAIL\n"),
     [("partial_isometry", 8, False, 1.0), ("partial_isometry", 2, False, None),
      ("partial_isometry", 1, False, None), ("intertwining", 8, True, 0.0),
      ("intertwining", 2, False, None), ("intertwining", 1, False, None),
      ("nehari", 1, False, 0.0), ("invariance", 8, True, 0.0),
      ("invariance", 2, False, None), ("invariance", 1, False, None),
      ("kernel_rep", 8, True, 0.0), ("kernel_rep", 2, False, None),
      ("kernel_rep", 1, False, None)]),
    ({"name": "deep-hankel",
      "spec": {"variant": "range_rep", "dimE": 1, "dimF": 1,
               "Phi": {"rows": 2, "cols": 2, "coeffs": [
                   {"k": 0, "re": [1, 0, 0, 0]}, {"k": -4, "re": [0, 0, 1, 0]}]}},
      "checks": ["partial_isometry", "intertwining", "nehari", "invariance"],
      "n_list": [1, 2, 8],
      "nehari_candidates": [ZERO_CANDIDATE]},
     ("scenario deep-hankel\n"
      "  partial_isometry   n=1    residual=1 FAIL  [range_op=False expected=True]\n"
      "  partial_isometry   n=2    residual=1 FAIL  [range_op=False expected=True]\n"
      "  partial_isometry   n=8    residual=1 FAIL  [range_op=False expected=True]\n"
      "  intertwining       n=1    residual=inf FAIL  [error: empty exactness window: truncation too small]\n"
      "  intertwining       n=2    residual=inf FAIL  [error: empty exactness window: truncation too small]\n"
      "  intertwining       n=8    residual=0 PASS  [range=0]\n"
      "  nehari             n=8    residual=0 PASS  [lower=['0', '0', '1.41421356237'] upper=['1.41421356237']]\n"
      "  invariance         n=1    residual=inf FAIL  [error: empty degree window]\n"
      "  invariance         n=2    residual=inf FAIL  [error: empty degree window]\n"
      "  invariance         n=8    window=4 residual=4.71027737605e-16 PASS\n"
      "overall FAIL\n"),
     [("partial_isometry", 1, False, 1.0), ("partial_isometry", 2, False, 1.0),
      ("partial_isometry", 8, False, 1.0), ("intertwining", 1, False, None),
      ("intertwining", 2, False, None), ("intertwining", 8, True, 0.0),
      ("nehari", 8, True, 0.0), ("invariance", 1, False, None),
      ("invariance", 2, False, None), ("invariance", 8, True, 4.71027737605e-16)]),
]


def scaled_nehari_payload(scale):
    """The nehari check of scale times the range symbol of timotin_u() with
    its columns rotated by 0.1, a zero candidate, n up to 128: the lower
    bounds are all equal to scale up to rounding relative to scale."""
    t = 0.1
    u = cli.timotin_u() @ make_symbol(2, 2, {0: [[np.cos(t), -np.sin(t)],
                                                 [np.sin(t), np.cos(t)]]})
    zero = {"rows": 1, "cols": 1, "coeffs": []}
    return {
        "name": "scaled-nehari",
        "spec": {"variant": "range_rep", "dimE": 1, "dimF": 1,
                 "Phi": symbol_to_literal(scaled(range_symbol_from_u(u, 1, 1), scale))},
        "checks": ["nehari"],
        "n_list": [8, 16, 32, 64, 128],
        "nehari_candidates": [{"L1": zero, "L2": zero}],
    }


class TestRun:
    @pytest.mark.parametrize("scale", [1.0, 1e5])
    def test_nehari_slack_scales_with_the_bounds(self, tmp_path, scale):
        # at 1e5 the bounds fall by 1.5e-11 along the sweep, rounding far
        # above an absolute 1e-12 and far below 1e-12 of their size
        report = run(parse_scenario(write_scenario(tmp_path, scaled_nehari_payload(scale))))
        assert report.exit_status == 0, report.text()

    @pytest.mark.parametrize("scale", [1.0, 1e5])
    def test_nehari_fall_in_the_sweep_fails(self, tmp_path, monkeypatch, scale):
        # a planted genuine fall, 1e-9 of the bound at n = 32
        original = cli.nehari_lower_bound

        def falling(op):
            lo = original(op)
            return lo * (1 - 1e-9) if op.domain.parts[0].deg_hi == 32 else lo

        monkeypatch.setattr(cli, "nehari_lower_bound", falling)
        report = run(parse_scenario(write_scenario(tmp_path, scaled_nehari_payload(scale))))
        [rec] = report.records
        assert not rec.passed and rec.residual <= 1e-8, report.text()

    def test_nehari_scenario_with_candidate(self, tmp_path):
        payload = {
            "name": "rank-one-bracket",
            "spec": {
                "variant": "range_rep",
                "dimE": 1,
                "dimF": 1,
                "Phi": {"rows": 2, "cols": 2,
                        "coeffs": [{"k": -1, "re": [0, 0, 0, 1]}]},
            },
            "checks": ["nehari"],
            "n_list": [4, 8],
            "nehari_candidates": [{
                "L1": {"rows": 1, "cols": 1, "coeffs": []},
                "L2": {"rows": 1, "cols": 1, "coeffs": []},
            }],
        }
        sc = parse_scenario(write_scenario(tmp_path, payload))
        report = run(sc)
        assert report.exit_status == 0
        rec = report.records[0]
        assert "lower" in rec.detail and "upper" in rec.detail

    def test_broken_subspace_fails_with_nonzero_status(self, tmp_path):
        payload = minimal_payload()
        payload["spec"]["U"] = {
            "rows": 2, "cols": 1, "coeffs": [{"k": 0, "re": [0.0, 1.0]}]}
        sc = parse_scenario(write_scenario(tmp_path, payload))
        report = run(sc)
        assert report.exit_status == 1
        failed = [r for r in report.records if not r.passed]
        assert any(r.check == "twocond" for r in failed)

    def test_target_built_once_per_n(self, monkeypatch):
        builds = []
        original = cli.mixed_invariant_subspace

        def counted(spec, n, window=None):
            builds.append(n)
            return original(spec, n, window)

        monkeypatch.setattr(cli, "mixed_invariant_subspace", counted)
        sc, = DEMOS["timotin-nonsplitting"]()
        first = run(sc)
        assert builds == [8, 16]
        # nothing is kept across calls
        second = run(sc)
        assert builds == [8, 16, 8, 16]
        assert first.structured() == second.structured()

    def test_mixed_operators_built_once_per_kind(self, monkeypatch, tmp_path):
        builds = []
        # every module that could import a mixed builder is counted
        for module in (cli, subspaces):
            for kind in ("range", "kernel"):
                original = getattr(operators, f"build_{kind}_operator")

                def counted(sym, dim_e, n, kind=kind, original=original):
                    builds.append((kind, n))
                    return original(sym, dim_e, n)

                monkeypatch.setattr(module, f"build_{kind}_operator", counted, raising=False)
        zero = {"rows": 1, "cols": 1, "coeffs": []}
        payload = {
            "name": "replicated-1-2",
            "spec": {"variant": "type_i", "dimE": 1, "dimF": 2,
                     "U": symbol_to_literal(cli.replicated_u(1, 2))},
            "checks": ["partial_isometry", "intertwining", "nehari"],
            "n_list": [4, 8],
            "nehari_candidates": [{"L1": dict(zero, rows=2),
                                   "L2": dict(zero, rows=2, cols=2)}],
        }
        # the target of a window-20 range_rep spec reads the range operator
        # at truncation 21 for every n, deeper than the sweep
        windowed = dict(representation_payload("range_rep",
                                               ["invariance", "partial_isometry", "intertwining"]),
                        window=20)
        timotin, = DEMOS["timotin-nonsplitting"]()
        # one assembly per kind, at the deepest truncation the run reads; the
        # demo runs all seven checks, and kernel_rep and range_rep read the
        # operators at n, as partial_isometry and intertwining do
        for sc, once in (
                (parse_scenario(write_scenario(tmp_path, payload)), [("range", 8), ("kernel", 8)]),
                (parse_scenario(write_scenario(tmp_path, windowed, "windowed.json")),
                 [("range", 21)]),
                (timotin, [("kernel", 16), ("range", 16)])):
            builds.clear()
            first = run(sc)
            assert first.exit_status == 0, first.text()
            assert builds == once
            # nothing is kept across calls
            second = run(sc)
            assert builds == once + once
            assert first.structured() == second.structured()

    def test_classifications_found_once_per_symbol(self, monkeypatch):
        # each symbol a seed-0 scalar-splitting-rot run classifies is
        # classified once, two _left_gram calls (S^H S and S S^H), and its
        # class is that of a fresh copy, bit for bit
        grams, classified = [], []
        left_gram, classify = symbols._left_gram, subspaces.classify_isometry
        monkeypatch.setattr(symbols, "_left_gram", lambda s: grams.append(s) or left_gram(s))
        monkeypatch.setattr(subspaces, "classify_isometry",
                            lambda s: classified.append(s) or classify(s))
        sc = parse_scenario(str(CORPUS / "sweep-dense-seed0" / "scalar-splitting-rot.json"))
        assert run(sc).exit_status == 0
        distinct = {id(s): s for s in classified}
        assert len(classified) == 10 and len(distinct) == 3
        assert len(grams) == 2 * len(distinct)
        for s in distinct.values():
            copy = LaurentSymbol(s.rows, s.cols, s.kmin, s.coeffs.copy())
            assert classify(s) == symbols._classified(copy)

    @pytest.mark.parametrize("payload, text, records", BUILD_ERROR_CASES,
                             ids=[case[0]["name"] for case in BUILD_ERROR_CASES])
    def test_build_errors_keep_their_records(self, tmp_path, payload, text, records):
        # a build error stays with the check that met it: the same records,
        # in the same order, as when every check built its own operators
        ascending = dict(payload, n_list=sorted(payload["n_list"]))
        sc = parse_scenario(write_scenario(tmp_path, ascending))
        report = run(replace(sc, n_list=tuple(payload["n_list"])))
        assert report.text() == text
        assert report.structured() == "".join(
            json.dumps({"check": check, "n": n, "pass": passed, "residual": residual,
                        "scenario": payload["name"]}, sort_keys=True) + "\n"
            for check, n, passed, residual in records)

    def test_batch_ordering_by_name(self, tmp_path):
        a = parse_scenario(write_scenario(tmp_path, dict(minimal_payload(), name="b"),
                                          "b.json"))
        b = parse_scenario(write_scenario(tmp_path, dict(minimal_payload(), name="a"),
                                          "a.json"))
        report = run_batch([a, b])
        names = [r.scenario for r in report.records]
        assert names == sorted(names)


class TestLeadingSections:
    """Each corpus input's mixed operators, built once at the deepest
    truncation a run reads, give every truncation of its sweep, and every
    window truncation its targets and representation checks read, as a
    leading section equal to the builder's operator at that truncation."""

    @staticmethod
    def scenarios(argv):
        if argv[0] == "demo":
            return DEMOS[argv[1]]()
        return [parse_scenario(str(REPO / argv[1]))]

    @pytest.mark.parametrize("key", list(corpus_inputs()))
    def test_sections_are_the_builds(self, key):
        for sc in self.scenarios(corpus_inputs()[key]):
            for kind, sym in sc.spec.mixed.items():
                deepest = cli._deepest_operator(sc, kind)
                build = build_range_operator if kind == "range" else build_kernel_operator
                top = deepest.domain.parts[0].deg_hi
                reads = {m for n in sc.n_list
                         for m in (n, operator_truncation(sym, cli._target_window(sc, n), n))}
                for m in sorted(m for m in reads if m <= top):
                    assert_same_build(lambda: leading_section(deepest, m),
                                      lambda: build(sym, sc.spec.dim_e, m))


class TestDemos:
    @pytest.mark.parametrize("name", sorted(DEMOS))
    def test_demo_passes(self, name):
        report = demo(name)
        assert report.exit_status == 0, report.text()

    def test_unknown_demo(self):
        with pytest.raises(ScenarioError, match="unknown demo"):
            demo("no-such-demo")

    def test_timotin_splitting_flag_false(self):
        report = demo("timotin-nonsplitting")
        rec = next(r for r in report.records if r.check == "splitting")
        assert rec.passed and "splitting=False" in rec.detail

    def test_scalar_demo_splitting_flag_true(self):
        report = demo("splitting-scalar")
        rec = next(r for r in report.records if r.check == "splitting")
        assert rec.passed and "splitting=True" in rec.detail

    def test_rank_decisions_clear_their_cutoff_tenfold(self, corpus):
        # every numerical_rank decision of the corpus (conftest.corpus_inputs),
        # with its margin min(kept_min / cutoff, cutoff / dropped_max); a
        # decision that moves toward its cutoff, or a count other than the
        # committed index's, is a finding, and tests/test_corpus.py holds each
        # (site, rank) to its golden
        index = json.loads((CORPUS / "golden" / "index.json").read_text(encoding="utf-8"))
        margins = [margin for result in corpus.values() for _, _, margin in result["ranks"]]
        assert len(margins) == sum(len(entry["ranks"]) for entry in index.values())
        assert min(margins) >= 10.0, sorted(margins)[:5]

    def test_structured_output_deterministic(self):
        first = demo("timotin-nonsplitting").structured()
        second = demo("timotin-nonsplitting").structured()
        assert first == second

    def test_structured_record_schema(self):
        for line in demo("type2-corner").structured().strip().splitlines():
            rec = json.loads(line)
            assert set(rec) == {"scenario", "check", "n", "residual", "pass"}


class TestMainEntry:
    def test_verify_exit_zero(self, tmp_path, capsys):
        path = write_scenario(tmp_path, minimal_payload())
        assert main(["verify", path]) == 0
        out = capsys.readouterr().out
        assert "overall PASS" in out

    def test_verify_failure_exit_one(self, tmp_path, capsys):
        payload = minimal_payload()
        payload["spec"]["U"] = {
            "rows": 2, "cols": 1, "coeffs": [{"k": 0, "re": [0.0, 1.0]}]}
        path = write_scenario(tmp_path, payload)
        assert main(["verify", path]) == 1

    def test_nehari_of_a_zero_symbol_passes(self, tmp_path, capsys):
        # the completed symbol has no nonzero term, so the circle sampler
        # evaluates an empty term stack
        zero = {"rows": 1, "cols": 1, "coeffs": []}
        payload = {
            "name": "zero-phi",
            "spec": {"variant": "range_rep", "dimE": 1, "dimF": 1,
                     "Phi": {"rows": 2, "cols": 2, "coeffs": []}},
            "checks": ["nehari"],
            "n_list": [4, 8],
            "nehari_candidates": [{"L1": zero, "L2": zero}],
        }
        assert main(["verify", write_scenario(tmp_path, payload)]) == 0
        assert "[lower=['0', '0'] upper=['0']]" in capsys.readouterr().out

    def test_input_error_exit_two(self, tmp_path, capsys):
        path = tmp_path / "missing.json"
        assert main(["verify", str(path)]) == 2
        assert "input error" in capsys.readouterr().err

    def test_sweep_override(self, tmp_path, capsys):
        path = write_scenario(tmp_path, minimal_payload())
        assert main(["verify", path, "--n", "4,6", "--format", "structured"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        ns = {json.loads(line)["n"] for line in lines
              if json.loads(line)["check"] == "invariance"}
        assert ns == {4, 6}

    @pytest.mark.parametrize("n_list, override, source", [
        ([8], "8,x", "--n"),
        ([8], "16,8", "--n"),
        ([0, 8], None, "n_list"),
        ([8, 8], None, "n_list"),
        ([8], "8,8", "--n"),
    ])
    def test_bad_sweep_exit_two(self, tmp_path, capsys, n_list, override, source):
        payload = dict(minimal_payload(), n_list=n_list)
        argv = ["verify", write_scenario(tmp_path, payload)]
        if override is not None:
            argv += ["--n", override]
        assert main(argv) == 2
        assert source in capsys.readouterr().err

    def test_tol_override(self, tmp_path, capsys):
        path = write_scenario(tmp_path, skewed_omega_payload())
        assert main(["verify", path]) == 1
        assert main(["verify", path, "--tol", "0.7"]) == 0

    @pytest.mark.parametrize("tol", ["abc", float("nan"), float("inf"), 0, -1e-8,
                                     "1e-8", True])
    def test_bad_tol_field_exit_two(self, tmp_path, capsys, tol):
        path = write_scenario(tmp_path, dict(minimal_payload(), tol=tol))
        assert main(["verify", path]) == 2
        assert "field tol" in capsys.readouterr().err

    @pytest.mark.parametrize("tol", ["abc", "nan", "inf", "0", "-1"])
    def test_bad_tol_option_exit_two(self, tmp_path, capsys, tol):
        path = write_scenario(tmp_path, minimal_payload())
        assert main(["verify", path, "--tol", tol]) == 2
        assert "option --tol" in capsys.readouterr().err

    def test_large_tol_reports_without_traceback(self, capsys):
        # the splitting verdict is the splitting rank alone, which no residual
        # tolerance moves, so a large one reports it without a traceback
        sample = Path(__file__).resolve().parent.parent / "scenarios" \
            / "sample-inner-column.json"
        assert main(["verify", str(sample), "--tol", "0.9"]) == 0
        out = capsys.readouterr().out
        assert "splitting=False expected=False" in out and "error" not in out

    def test_tol_moves_no_rank_decision(self, tmp_path, capsys):
        # U_t does not split: its splitting stack keeps sin t = 1e-5, which a
        # residual tolerance of 1e-3 must not drop
        from conftest import rotation_column_symbol
        payload = dict(minimal_payload(), checks=[
            "twocond", "invariance", "kernel_rep", "range_rep", "splitting",
            "partial_isometry", "intertwining"])
        payload["spec"]["U"] = symbol_to_literal(rotation_column_symbol(1e-5))
        path = write_scenario(tmp_path, payload)
        outputs = []
        for tol in ("1e-8", "1e-3"):
            for fmt in ("text", "structured"):
                assert main(["verify", path, "--tol", tol, "--format", fmt]) == 0
                outputs.append(capsys.readouterr().out)
        assert outputs[:2] == outputs[2:]
        assert "splitting=False expected=False" in outputs[0]

    @pytest.mark.parametrize("candidates, named", [
        ([{}], "nehari_candidates[0]"),
        ([{"L1": {"rows": 1, "cols": 1, "coeffs": []}}], "nehari_candidates[0]"),
        ([{"L2": {"rows": 1, "cols": 1, "coeffs": []}}], "nehari_candidates[0]"),
        (["zero"], "nehari_candidates[0]"),
        ({}, "nehari_candidates must be a list"),
        ([{key: {"rows": 1, "cols": 1, "coeffs": []} for key in ("L1", "L2", "L3")}],
         "field nehari_candidates[0]: unknown key 'L3'"),
        ([dict(ZERO_CANDIDATE, L1={"rows": 2, "cols": 1, "coeffs": []})],
         "field nehari_candidates[0].L1 has shape (2, 1), expected (1, 1)"),
        ([ZERO_CANDIDATE, dict(ZERO_CANDIDATE, L2={"rows": 1, "cols": 2, "coeffs": []})],
         "field nehari_candidates[1].L2 has shape (1, 2), expected (1, 1)"),
        ([dict(ZERO_CANDIDATE, L1={"rows": 1, "cols": 1,
                                   "coeffs": [{"k": -1, "re": [1.0]}]})],
         "field nehari_candidates[0].L1 must be analytic"),
        ([dict(ZERO_CANDIDATE, L2={"rows": 1, "cols": 1,
                                   "coeffs": [{"k": 0, "re": [1.0]}, {"k": -2, "re": [1.0]}]})],
         "field nehari_candidates[0].L2 must be analytic"),
    ], ids=["empty", "no-L2", "no-L1", "not-object", "not-list", "unknown-key",
            "L1-shape", "L2-shape", "L1-not-analytic", "L2-not-analytic"])
    def test_malformed_nehari_candidate_exit_two(self, tmp_path, capsys, candidates, named):
        # with the nehari check listed, a candidate that got past the parser
        # would become an error record and exit 1
        payload = dict(minimal_payload(), checks=["nehari"], nehari_candidates=candidates)
        assert main(["verify", write_scenario(tmp_path, payload)]) == 2
        assert named in capsys.readouterr().err

    @pytest.mark.parametrize("key, literal, variant, checks", [
        ("U", {"rows": 2, "cols": 0, "coeffs": []}, "type_i", ["twocond", "invariance"]),
        ("Omega", {"rows": 1, "cols": 0, "coeffs": []}, "type_ii", ["twocond", "invariance"]),
        ("Theta", {"rows": 1, "cols": 0, "coeffs": []}, "type_i", ["kernel_rep"]),
    ], ids=["U", "Omega", "Theta"])
    def test_zero_width_literal_exit_two(self, tmp_path, capsys, key, literal, variant, checks):
        # no valid literal has a zero dimension; past the parser these ran
        # into numpy's empty reductions and exited 1
        payload = dict(minimal_payload(), checks=checks)
        payload["spec"].update({"variant": variant, key: literal})
        assert main(["verify", write_scenario(tmp_path, payload)]) == 2
        assert f"field spec.{key}.cols must be an integer in [1, 2**53)" \
            in capsys.readouterr().err

    def test_omega_orthogonality_ignores_samples_key(self, tmp_path, capsys):
        # the Omega/U orthogonality is exact, so no sample count can shrink it
        # to a vacuous pass; a "samples" key itself is rejected as unknown
        path = write_scenario(tmp_path, skewed_omega_payload())
        assert main(["verify", path, "--format", "structured"]) == 1
        rec = json.loads(capsys.readouterr().out.strip())
        assert rec["check"] == "twocond" and not rec["pass"]
        assert rec["residual"] == pytest.approx(0.6, abs=1e-12)

    @pytest.mark.parametrize("window", ["abc", 2.7, True, -3])
    def test_bad_window_exit_two(self, tmp_path, capsys, window):
        path = write_scenario(tmp_path, dict(minimal_payload(), window=window))
        assert main(["verify", path]) == 2
        assert "field window" in capsys.readouterr().err

    def test_window_override(self, tmp_path, capsys):
        path = write_scenario(tmp_path, dict(minimal_payload(), window=3))
        assert main(["verify", path]) == 0
        assert "window=3 " in capsys.readouterr().out

    @pytest.mark.parametrize("expect, named", [
        (5, "field expect"),
        ("x", "field expect"),
        ({"splitting": "false"}, "field expect.splitting"),
        ({"partial_isometry": 1}, "field expect.partial_isometry"),
        ({"spliting": True}, "'spliting'"),
    ], ids=["number", "string", "string-value", "number-value", "unknown-key"])
    def test_bad_expect_exit_two(self, tmp_path, capsys, expect, named):
        path = write_scenario(tmp_path, dict(minimal_payload(), expect=expect))
        assert main(["verify", path]) == 2
        err = capsys.readouterr().err
        assert "field expect" in err and named in err

    @pytest.mark.parametrize("checks, named", [
        ([], "nonempty list"),
        ("invariance", "nonempty list"),
        (["twocond", "invariance", "twocond"], "'twocond' given twice"),
        ([["twocond"]], "unknown check id"),
    ], ids=["empty", "string", "repeated", "nested"])
    def test_bad_checks_exit_two(self, tmp_path, capsys, checks, named):
        path = write_scenario(tmp_path, dict(minimal_payload(), checks=checks))
        assert main(["verify", path]) == 2
        err = capsys.readouterr().err
        assert "field checks" in err and named in err

    @pytest.mark.parametrize("where, key", [
        ("top", "n_lists"), ("top", "samples"), ("spec", "u"), ("spec", "Thetta"),
    ])
    def test_unknown_key_exit_two(self, tmp_path, capsys, where, key):
        payload = minimal_payload()
        (payload if where == "top" else payload["spec"])[key] = [8]
        assert main(["verify", write_scenario(tmp_path, payload)]) == 2
        err = capsys.readouterr().err
        assert f"unknown key {key!r}" in err
        assert where == "top" or "field spec" in err

    @pytest.mark.parametrize("field, value", [
        ("name", 5), ("dimE", 1.9), ("dimE", True), ("dimF", "1"), ("dimF", None),
    ])
    def test_non_string_name_or_non_integer_dims_exit_two(self, tmp_path, capsys,
                                                          field, value):
        payload = minimal_payload()
        (payload if field == "name" else payload["spec"])[field] = value
        assert main(["verify", write_scenario(tmp_path, payload)]) == 2
        assert field in capsys.readouterr().err

    @pytest.mark.parametrize("field, value", [("variant", 5), ("variant", "type_iii"),
                                              ("dimE", 0), ("dimF", -1)])
    def test_bad_spec_field_named(self, tmp_path, capsys, field, value):
        payload = minimal_payload()
        payload["spec"][field] = value
        assert main(["verify", write_scenario(tmp_path, payload)]) == 2
        assert f"field spec.{field} must be" in capsys.readouterr().err

    @pytest.mark.parametrize("k, checks, code, named", [
        # a single coefficient at degree 10**12 used to hang the causality check
        (10 ** 12, ["twocond"], 2, "field spec.U: the stack of degrees 0..1000000000000"),
        # within the literal cap, but Psi derived from it spans degrees 0..4e6:
        # the truncation is below the band, an error record and no array
        (4_000_000, ["kernel_rep"], 1, "exceeds truncation 4]"),
    ], ids=["twocond", "derived-psi"])
    def test_far_coefficient_finishes_in_seconds(self, tmp_path, capsys, k, checks, code, named):
        payload = dict(minimal_payload(), checks=checks, n_list=[4])
        payload["spec"]["U"]["coeffs"][0]["k"] = k
        start = time.perf_counter()
        assert main(["verify", write_scenario(tmp_path, payload)]) == code
        assert time.perf_counter() - start < 5.0
        assert named in "".join(capsys.readouterr())

    def test_twocond_cost_follows_nonzero_coefficients(self, tmp_path, capsys):
        # two coefficients 1000 degrees apart: the symbol products and the
        # circle samples of twocond used to visit every zero in between
        r = 2 ** -0.5
        payload = dict(minimal_payload(), checks=["twocond"])
        payload["spec"]["U"] = {"rows": 2, "cols": 2, "coeffs": [
            {"k": 0, "re": [0, r, 0, -r]}, {"k": 1000, "re": [r, 0, r, 0]}]}
        start = time.perf_counter()
        assert main(["verify", write_scenario(tmp_path, payload)]) == 1
        assert time.perf_counter() - start < 5.0
        assert "u_isometry=ok" in capsys.readouterr().out

    @pytest.mark.parametrize("payload, argv, named", [
        (minimal_payload(), ["--n", "1000000000"], "option --n: at n = 1000000000 "),
        (dict(minimal_payload(), n_list=[10 ** 9]), [], "field n_list: at n = 1000000000 "),
        # the run's deepest range operator is refused from n = 8 on, and
        # the error still names the n whose own truncation reaches the cap
        (dict(minimal_payload(), checks=["partial_isometry", "intertwining"],
              n_list=[8, 10 ** 9]), [], "field n_list: at n = 1000000000 "),
        # the window deepens the kernel operator to 2**52 degrees from the first n
        (dict(representation_payload("kernel_rep", ["invariance"]), window=2 ** 52), [],
         "field n_list: at n = 8 the entry list of a 1x1 symbol on input degrees "
         "0..4503599627370497"),
        # a kernel operator of one entry at n = 10**9: its window's index
        # arrays, as long as the truncation, are refused before they exist
        ({"name": "zbar-kernel", "checks": ["partial_isometry"], "n_list": [10 ** 9],
          "spec": {"variant": "kernel_rep", "dimE": 1, "dimF": 1,
                   "Psi": {"rows": 2, "cols": 2, "coeffs": [{"k": -1, "re": [1, 0, 0, 0]}]}}},
         [], "field n_list: at n = 1000000000 "),
    ], ids=["option", "field", "late-n", "deepened-window", "index-arrays"])
    def test_oversized_run_exit_two(self, tmp_path, capsys, payload, argv, named):
        # each run would ask numpy for more bytes than it can index
        path = write_scenario(tmp_path, payload)
        assert main(["verify", path, *argv]) == 2
        out, err = capsys.readouterr()
        assert err.startswith(f"input error: {path}: {named}") and "above the cap" in err
        assert out == "" and "Traceback" not in err

    def test_nehari_candidate_completion_is_capped(self, tmp_path, capsys):
        # L1 alone is 5e6 + 1 entries, within the literal cap; completed
        # against the 2x2 Phi it would be 2.0e7, above it
        zero = {"rows": 1, "cols": 1, "coeffs": []}
        far = dict(zero, coeffs=[{"k": 5_000_000, "re": [1.0]}])
        payload = dict(minimal_payload(), checks=["nehari"], n_list=[4],
                       nehari_candidates=[{"L1": zero, "L2": zero}, {"L1": far, "L2": zero}])
        assert main(["verify", write_scenario(tmp_path, payload)]) == 2
        err = capsys.readouterr().err
        assert "field nehari_candidates[1]: the completed stack" in err
        assert "degrees 0..5000000 at 2x2" in err and "above the cap" in err

    @pytest.mark.parametrize("n, code", [(1024, 0), (4096, 0), (2 ** 23, 2)])
    def test_operator_only_run_is_sized_by_the_mixed_operator(self, tmp_path, capsys, n, code):
        # partial_isometry and intertwining build no subspace and no dense
        # operator, only the mixed operators' entry lists, O(n) long: at
        # n = 2**23 the first list is refused before any O(n) array exists
        rng = np.random.default_rng(1)
        u = cli.replicated_u(1, 2)
        d = np.zeros((3, 3), dtype=complex)
        d[:1, :1], d[1:, 1:] = haar_unitary(rng, 1), haar_unitary(rng, 2)
        w = haar_unitary(rng, u.cols)
        rotated = make_symbol(3, u.cols, {u.kmin + i: d @ c @ w for i, c in enumerate(u.coeffs)})
        payload = {"name": "replicated-1-2-rot",
                   "spec": {"variant": "type_i", "dimE": 1, "dimF": 2,
                            "U": symbol_to_literal(rotated)},
                   "checks": ["partial_isometry", "intertwining"], "n_list": [8]}
        tracemalloc.start()
        try:
            assert main(["verify", write_scenario(tmp_path, payload), "--n", str(n)]) == code
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        out, err = capsys.readouterr()
        assert ("entry list" in err and "above the cap" in err and peak < n) if code \
            else ("overall PASS" in out)

    def test_uncertified_operator_is_not_made_dense(self, capsys):
        # the range operator that the Penrose certificate does not pass is
        # 12,291 x 12,291 at n = 4096, above the cap as a dense matrix; its
        # SVD reads the window's entries, so the run completes
        path = CORPUS / "branches" / "replicated-1-2-range-symbol.json"
        assert main(["verify", str(path), "--n", "4096"]) == 0
        out = capsys.readouterr().out
        assert "n=4096" in out and "range_op=False" in out and "overall PASS" in out

    def test_size_cap_admits_the_shipped_runs(self):
        sample = parse_scenario(str(SAMPLE))
        runs = [sc for make in DEMOS.values() for sc in make()] + [
            replace(sample, n_list=(64, 128, 256, 512)),
            cli.Scenario("operators-wide", cli.replicated_spec(1, 2),
                         ("partial_isometry", "intertwining", "nehari"), (64, 128, 256))]
        for sc in runs:
            assert run(sc).exit_status == 0

    def test_cap_hit_in_a_batch_prints_no_report(self, tmp_path, capsys):
        # the first file runs and passes, the second reaches the cap: no
        # report of either is printed, and the error names the second file
        first = write_scenario(tmp_path, dict(minimal_payload(), name="a"), "first.json")
        second = write_scenario(tmp_path, dict(minimal_payload(), name="b", n_list=[10 ** 8]),
                                "second.json")
        assert main(["verify", first, second]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"input error: {second}: field n_list: at n = 100000000 ")
        assert "above the cap" in err and "Traceback" not in err

    @pytest.mark.parametrize("text", ["[" * 100000 + "]" * 100000, "1" * 5000],
                             ids=["deep-nesting", "long-integer"])
    def test_unreadable_json_exit_two(self, tmp_path, capsys, text):
        path = tmp_path / "scenario.json"
        path.write_text(text)
        assert main(["verify", str(path)]) == 2
        assert "unreadable JSON" in capsys.readouterr().err

    @pytest.mark.parametrize("n_list", [[8.9], [8.0], [True], ["8"], 8])
    def test_non_integer_n_list_exit_two(self, tmp_path, capsys, n_list):
        path = write_scenario(tmp_path, dict(minimal_payload(), n_list=n_list))
        assert main(["verify", path]) == 2
        assert "field n_list" in capsys.readouterr().err

    def test_list_demos(self, capsys):
        assert main(["list-demos"]) == 0
        assert "cyclic-kernel" in capsys.readouterr().out

    def test_demo_structured(self, capsys):
        assert main(["demo", "splitting-scalar", "--format", "structured"]) == 0
        line = capsys.readouterr().out.strip().splitlines()[0]
        assert json.loads(line)["scenario"] == "splitting-scalar"

    def test_unknown_demo_exit_two(self, capsys):
        assert main(["demo", "nope"]) == 2


class TestSizeCapBoundsMemory:
    """With the cap lowered to CAP entries, every corpus input, at its own
    sweep and at sixteen times its last n, passes or exits 2 naming the cap,
    and its tracemalloc peak stays at most K * CAP * 16 bytes.

    K is the largest measured multiple, 6.33, rounded up: the largest array
    the cap admits is not the only one live.  An entry takes 32 bytes, and
    the subspace checks hold the entry lists of the generators, the bases
    and the operators beside those of a factorisation: the timotin-rot
    cores fall into mutually orthogonal groups of a few entries each, so no
    block stack stops these inputs, and at n = 4,096 they run to the end
    and reach 6.33, in the ``_blocks`` of a core listed group by group,
    beside the sorted copy of the core and the groups.  Assembling a block
    operator holds its blocks, their offset copies and the concatenation at
    once, with no sort: the operators-wide inputs at n = 4,096 reach 4.53
    there, and 6.18 at their peak, in the Penrose certificate's sparse
    products beside both operators (6.42 while the assembly sorted its
    entries).  Each operator is assembled once per run at its deepest
    truncation, here the one n, and read as it stands; the range operator's
    Penrose certificate passes, and the kernel operator's Gram product,
    48n + 39 terms, stops the run."""

    CAP = 2 ** 16
    K = 7

    def peak_of(self, monkeypatch, call):
        """call()'s result, stdout, stderr and tracemalloc peak, under CAP."""
        monkeypatch.setattr(linalg, "MAX_DENSE_ENTRIES", self.CAP)
        monkeypatch.chdir(REPO)
        out, err = io.StringIO(), io.StringIO()
        tracemalloc.start()
        try:
            with redirect_stdout(out), redirect_stderr(err):
                result = call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= self.K * self.CAP * 16
        return result, out.getvalue(), err.getvalue()

    @pytest.mark.parametrize("key", list(corpus_inputs()))
    def test_verify_passes_or_names_the_cap(self, monkeypatch, key):
        argv = corpus_inputs()[key]
        runs = [argv]
        if argv[0] == "verify":
            last = parse_scenario(str(REPO / argv[1])).n_list[-1]
            runs.append([*argv, "--n", str(16 * last)])
        for args in runs:
            code, out, err = self.peak_of(monkeypatch, lambda: main(args))
            assert (code, err) == (0, "") or (code == 2 and out == "" and "above the cap" in err)

    @pytest.mark.parametrize("name", sorted(DEMOS))
    def test_demo_at_a_larger_n_passes_or_names_the_cap(self, monkeypatch, name):
        def status(sc):
            try:
                return run(replace(sc, n_list=(16 * sc.n_list[-1],))).exit_status
            except ScenarioError as exc:
                return str(exc)

        for sc in DEMOS[name]():
            result = self.peak_of(monkeypatch, lambda: status(sc))[0]
            assert result == 0 or "above the cap" in result

    def test_lanczos_basis_growth_reaches_the_cap(self, monkeypatch):
        # the nehari lower bound at n = 256 keeps 256 Lanczos vectors of length 260
        argv = ["verify", "tests/corpus/branches/cyclic-hankel-nehari.json", "--n", "256"]
        code, out, err = self.peak_of(monkeypatch, lambda: main(argv))
        assert code == 2 and out == ""
        assert "at n = 256 the Lanczos basis, 256 x 260 entries, is above the cap" in err


class TestMemoryGrowth:
    """The subspace checks hold entry lists and factor dense arrays only
    inside a connected block, so on the scalar-fiber inputs, whose blocks
    are at most 2 x 2, memory grows about linearly in n: from n = 512 to
    n = 4,096, eight times as far, the tracemalloc peak of a run may grow at
    most 15 times, growth exponent 1.3.  Ambient-size dense arrays made it
    grow as n**2 and stopped the n = 4,096 run at the size cap."""

    @staticmethod
    def peak(sc) -> int:
        tracemalloc.start()
        try:
            assert run(sc).exit_status == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_scalar_splitting_rot_grows_at_most_as_n_to_1_3(self):
        sc = parse_scenario(str(REPO / "tests/corpus/sweep-dense-seed0/scalar-splitting-rot.json"))
        small, large = (self.peak(replace(sc, n_list=(n,))) for n in (512, 4096))
        assert large <= 15 * small

    def test_timotin_rot_verifies_at_n_16384(self, capsys):
        # its cores fall into mutually orthogonal groups of at most 4
        # entries; factored whole, a 32,768 x 16,385 block stack was far
        # above the cap
        path = str(REPO / "tests/corpus/sweep-dense-seed0/timotin-rot.json")
        assert main(["verify", path, "--n", "16384"]) == 0
        assert "FAIL" not in capsys.readouterr().out


class TestRepresentationVariants:
    """Scenarios that give the subspace by a mixed symbol instead of bilateral data."""

    @pytest.mark.parametrize("variant, checks", [
        ("range_rep", ["twocond", "invariance", "partial_isometry", "intertwining",
                       "nehari", "splitting"]),
        ("kernel_rep", ["twocond", "invariance", "partial_isometry", "intertwining"]),
    ])
    def test_timotin_symbol_passes(self, tmp_path, capsys, variant, checks):
        path = write_scenario(tmp_path, representation_payload(variant, checks))
        assert main(["verify", path, "--format", "structured"]) == 0
        records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert all(rec["pass"] for rec in records)
        once = {"twocond", "splitting", "nehari"}
        assert sorted((rec["check"], rec["n"]) for rec in records) == sorted(
            (c, n) for c in checks for n in ([16] if c in once else [8, 16]))

    def test_kernel_rep_check_on_range_rep_spec_exit_two(self, tmp_path, capsys):
        payload = representation_payload("range_rep", ["kernel_rep"])
        assert main(["verify", write_scenario(tmp_path, payload)]) == 2
        assert "check kernel_rep needs bilateral data" in capsys.readouterr().err

    def test_range_rep_check_without_phi_exit_two(self, tmp_path, capsys):
        payload = dict(skewed_omega_payload(), checks=["range_rep"])
        del payload["spec"]["U"]
        assert main(["verify", write_scenario(tmp_path, payload)]) == 2
        assert "check range_rep requires field Phi" in capsys.readouterr().err

    def test_splitting_needs_scalar_fibers_exit_two(self, tmp_path, capsys):
        payload = dict(minimal_payload(), checks=["splitting"])
        payload["spec"].update(dimE=2, U={"rows": 3, "cols": 1,
                                          "coeffs": [{"k": 0, "re": [1.0, 0.0, 0.0]}]})
        assert main(["verify", write_scenario(tmp_path, payload)]) == 2
        assert "scalar fibers" in capsys.readouterr().err

    @pytest.mark.parametrize("payload, key, coeff", [
        (representation_payload("range_rep", ["invariance"]), "Phi",
         {"k": -1, "re": [1, 0, 0, 0]}),
        (dict(minimal_payload(), checks=["range_rep"]), "Phi",
         {"k": -2, "re": [1, 0, 0, 0]}),
        (skewed_omega_payload(), "Psi", {"k": -1, "re": [0, 0, 1, 0]}),
    ], ids=["range_rep", "type_i", "type_ii"])
    def test_non_analytic_phi_exit_two(self, tmp_path, capsys, payload, key, coeff):
        # a given Phi (top blocks A, B) or Psi (bottom blocks A, B) is held
        # to the analytic-block rule at parse time, whatever the variant
        payload["spec"][key] = {"rows": 2, "cols": 2, "coeffs": [coeff]}
        assert main(["verify", write_scenario(tmp_path, payload)]) == 2
        assert f"field spec.{key}" in capsys.readouterr().err

    def test_type_i_with_omega_exit_two(self, tmp_path, capsys):
        # kernel_rep would derive Psi from U alone and miss Omega's part
        embedded = library_specs()["timotin-embedded"]
        payload = {"name": "type-i-omega", "checks": ["kernel_rep", "range_rep"],
                   "n_list": [8],
                   "spec": {"variant": "type_i", "dimE": 2, "dimF": 1,
                            "U": symbol_to_literal(embedded.u),
                            "Omega": symbol_to_literal(embedded.omega)}}
        assert main(["verify", write_scenario(tmp_path, payload)]) == 2
        assert "type_i takes no field Omega" in capsys.readouterr().err

    def test_mixed_symbols_derived_once_per_spec(self, tmp_path, capsys, monkeypatch):
        # every module that could hold the derivation is counted; the
        # range symbol is derived through it as well
        calls, original = [], subspaces.kernel_symbol_from_u

        def counted(u, dim_e, dim_f):
            calls.append(dim_e)
            return original(u, dim_e, dim_f)

        for module in (cli, subspaces):
            monkeypatch.setattr(module, "kernel_symbol_from_u", counted, raising=False)
        payload = dict(minimal_payload(), checks=list(cli.CHECK_IDS), n_list=[8, 16],
                       nehari_candidates=[{"L1": {"rows": 1, "cols": 1, "coeffs": []},
                                           "L2": {"rows": 1, "cols": 1, "coeffs": []}}])
        payload["spec"]["U"] = symbol_to_literal(cli.timotin_u())
        assert main(["verify", write_scenario(tmp_path, payload)]) == 0
        assert len(calls) == 2


def test_readme_lists_every_scenario_key():
    """Each key of the parser's field tables has a row in the README's table."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Scenario files", 1)[1].split("\n## ", 1)[0]
    documented = {cell.rsplit(".", 1)[-1]
                  for cell in re.findall(r"^\| `([^`]+)` \|", section, re.MULTILINE)}
    tables = [t for t in vars(cli).values() if isinstance(t, dict) and t
              and all(isinstance(row, cli.Row) for row in t.values())]
    assert len(tables) == 6
    missing = {key for table in tables for key in table} - documented
    assert not missing, f"scenario keys missing from the README table: {sorted(missing)}"
