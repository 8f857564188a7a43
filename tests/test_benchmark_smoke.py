"""Tier-1 smoke test of the benchmark harness under ``perfbench/``.

One pass of each seed-0 workload runs under ``perfbench/tracer.Tracer``, as
``perfbench/run.py --trace 1`` runs it.  ``run.py`` itself is not imported,
since it sets the process's malloc options at import; its stage list is
read from the source.  On ``sweep-dense`` every stage the harness reports
must record calls and the target subspace must be built, so that renaming
or removing a traced function cannot zero a per-layer metric unnoticed.
"""

import ast
import sys

import pytest

from conftest import REPO
from shiftlab import cli

sys.path.insert(0, str(REPO / "perfbench"))
import tracer  # noqa: E402
import workloads  # noqa: E402

# operators.hankel_op left the package for tests/conftest.py; run.py still
# names the stage
STALE_STAGES = {"operators.hankel_op"}


def stages() -> tuple[str, ...]:
    """The STAGES tuple of ``perfbench/run.py``, read without importing it."""
    tree = ast.parse((REPO / "perfbench" / "run.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "STAGES" for target in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/run.py defines no STAGES")


@pytest.mark.parametrize("workload", [workloads.SWEEP_DENSE, workloads.OPERATORS_WIDE])
def test_one_traced_pass_records_every_stage(tmp_path, workload):
    files = workloads.generate(workload, 0, tmp_path)
    scenarios = [cli.parse_scenario(path) for path in files]
    traced = tracer.Tracer()
    traced.install()
    try:
        for sc in scenarios:
            traced.scenario = sc.name
            assert cli.run(sc).exit_status == 0
    finally:
        traced.uninstall()
    if workload == workloads.SWEEP_DENSE:
        assert traced.target_builds
        silent = [qual for qual in stages() if qual not in STALE_STAGES
                  and (qual not in traced.stats or traced.stats[qual].calls == 0)]
        assert not silent, f"stages with no recorded call: {silent}"
    else:  # the operator checks build no target subspace
        assert not traced.target_builds
