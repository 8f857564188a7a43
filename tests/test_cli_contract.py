"""Contract fuzzer: any mutation of a valid scenario exits 0, 1 or 2.

The seeds are the sample scenario and every demo scenario written out
with ``symbol_to_literal``.  Each example applies one mutation at one
place in the JSON tree (drop a key, swap the JSON type, a non-finite
number, a negative or huge integer, one more level of nesting, a
duplicated list entry), optionally with a ``--n``/``--tol`` override,
and runs it through ``cli.main`` in-process, in text or structured
format.  No exception may escape, each example must finish within the
deadline, and structured output must be strict JSON, one object a line.
The seeds sweep n <= 16 (a dropped n_list falls back to the default, up
to 32), so a run that survives validation is cheap.
"""

import contextlib
import io
import json
import math
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shiftlab import cli

SAMPLE = Path(__file__).resolve().parent.parent / "scenarios" / "sample-inner-column.json"


def scenario_payload(sc: cli.Scenario) -> dict:
    """The scenario file that parses back to sc."""
    spec = {"variant": sc.spec.variant, "dimE": sc.spec.dim_e, "dimF": sc.spec.dim_f}
    for key in ("U", "Omega", "Psi", "Phi", "Theta"):
        sym = getattr(sc.spec, key.lower())
        if sym is not None:
            spec[key] = cli.symbol_to_literal(sym)
    payload = {"name": sc.name, "spec": spec, "checks": list(sc.checks),
               "n_list": list(sc.n_list), "tol": sc.tol, "expect": dict(sc.expect)}
    if sc.window is not None:
        payload["window"] = sc.window
    return payload


SEEDS = [json.loads(SAMPLE.read_text(encoding="utf-8"))] + [
    scenario_payload(sc) for make in cli.DEMOS.values() for sc in make()]

SWAPS = [None, True, "x", 0, 1, 2.5, [], {}, [1], {"k": 1}]
NON_FINITE = [math.nan, math.inf, -math.inf]
INTEGERS = [-1, -7, 2 ** 31, -(2 ** 31), 10 ** 12, 2 ** 53, 2 ** 63, -(10 ** 30)]
N_OPTIONS = ["1", "4,8", "8", "0", "-1", "8,8", "16,8", "8,x", "", "1000000000"]
TOL_OPTIONS = ["1e-8", "0.5", "0", "-1", "nan", "inf", "abc"]


def places(node):
    """Every (container, key or index) pair in the JSON tree."""
    items = node.items() if isinstance(node, dict) else \
        enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield node, key
        yield from places(child)


def mutate(payload, data) -> dict:
    """A copy of payload with one mutation at one place."""
    payload = json.loads(json.dumps(payload))
    kind = data.draw(st.sampled_from(
        ["drop", "swap", "non-finite", "integer", "nest", "duplicate"]), label="mutation")
    spots = [(parent, key) for parent, key in places(payload)
             if kind != "duplicate" or isinstance(parent, list)]
    parent, key = data.draw(st.sampled_from(spots), label="place")
    if kind == "drop":
        del parent[key]
    elif kind == "swap":
        parent[key] = data.draw(st.sampled_from(SWAPS), label="value")
    elif kind == "non-finite":
        parent[key] = data.draw(st.sampled_from(NON_FINITE), label="value")
    elif kind == "integer":
        parent[key] = data.draw(st.sampled_from(INTEGERS), label="value")
    elif kind == "nest":
        parent[key] = [parent[key]]
    else:
        parent.insert(key, json.loads(json.dumps(parent[key])))
    return payload


@pytest.fixture(scope="module")
def scenario_path(tmp_path_factory):
    return tmp_path_factory.mktemp("contract") / "scenario.json"


def run_main(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def reject_constant(name: str):
    raise ValueError(f"{name} is not JSON (RFC 8259)")


@pytest.mark.parametrize("index", range(len(SEEDS)))
def test_seed_scenarios_pass(scenario_path, index):
    scenario_path.write_text(json.dumps(SEEDS[index]))
    code, _, err = run_main(["verify", str(scenario_path)])
    assert (code, err) == (0, "")


@settings(max_examples=200, deadline=2000)
@given(data=st.data())
def test_mutated_scenario_keeps_the_exit_contract(scenario_path, data):
    seed = data.draw(st.sampled_from(range(len(SEEDS))), label="seed")
    payload = mutate(SEEDS[seed], data)
    argv = ["verify", str(scenario_path)]
    if data.draw(st.booleans(), label="--n"):
        argv += ["--n", data.draw(st.sampled_from(N_OPTIONS))]
    if data.draw(st.booleans(), label="--tol"):
        argv += ["--tol", data.draw(st.sampled_from(TOL_OPTIONS))]
    structured = data.draw(st.booleans(), label="--format structured")
    if structured:
        argv += ["--format", "structured"]
    scenario_path.write_text(json.dumps(payload))
    code, out, err = run_main(argv)
    assert code in (0, 1, 2)
    assert (code == 2) == err.startswith("input error: ")
    if structured and code != 2:
        for line in out.splitlines():
            json.loads(line, parse_constant=reject_constant)
