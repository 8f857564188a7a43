"""Closed-loop benchmark of the shiftlab verify pipeline.

    python3 perfbench/run.py --workload sweep-dense --seed 0 --seconds 40 --trace 0

Workloads: sweep-dense and operators-wide (see ``workloads.py``).
Run from the root of a checkout; the package is imported from ``src/`` and
generated scenarios and span dumps go to ``.perfbench/``.
One client drives the public API in a closed loop: each verdict starts
after the previous one is rendered.  The seed makes the workload's
inputs (see ``workloads.py``); one untimed warm-up pass precedes timing
and its structured reports are the reference every timed pass must
reproduce byte for byte.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes and reports per-layer numbers per traced pass
(see ``tracer.py``), plus the tracing overhead; the spans of the first
traced pass are written to ``.perfbench/<workload>-seed<seed>/spans.ndjson``.
Human-readable lines come first; the last line of standard output is one
JSON object.  The exit code is 1 when any record failed, 2 when the
checkout has no ``src/shiftlab``.
"""

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
HERE = Path(__file__).resolve().parent

# One BLAS thread, fixed before numpy loads: on a small shared machine a
# multi-threaded BLAS waits at every barrier for its slowest core, which
# made run-to-run spread larger than with a single thread.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

# A fixed mmap threshold.  glibc otherwise raises it each time a large
# array is freed, after which freed arrays stay in the heap; how much
# stays depended on the order of allocations, and peak RSS moved by 17 %
# between seeds and between builds of the same code.
M_MMAP_THRESHOLD = -3
MMAP_THRESHOLD = 128 * 1024
ctypes.CDLL(None).mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD)

SETUP_PROBE = """
import sys
from shiftlab import cli
for path in sys.argv[1:]:
    cli.parse_scenario(path)
"""
STAGES = ("subspaces.bilateral_subspace", "subspaces.mixed_from_bilateral",
          "subspaces.invariance_check", "subspaces.kernel_representation_check",
          "subspaces.range_representation_check", "subspaces.twocond_check",
          "operators.svd_analysis", "operators.intertwining_residual",
          "operators.hankel_op", "symbols.classify_isometry")
LAYERS = ("cli", "subspaces", "operators", "linalg", "symbols")
# A stage of the re-measured ROADMAP table is marked "off" when its time
# is outside this factor of the ROADMAP figure either way.
STAGE_TABLE_FACTOR = 1.5


@dataclass
class Item:
    """One verdict: one generated scenario, run and rendered.

    ``reference`` is the structured report of the warm-up pass, which every
    timed pass must reproduce byte for byte; ``expected_records`` is its
    record count.
    """

    label: str
    run: Callable  # returns the scenario's cli.Report
    reference: str
    expected_records: int


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    records: int = 0


def verdict(item: Item, tracer=None, pass_id=0):
    """Time one verdict, from the call into the program to the rendered report."""
    if tracer is not None:
        tracer.scenario = f"{pass_id}:{item.label}"
    t0 = time.perf_counter()
    report = item.run()
    text = report.structured()
    return time.perf_counter() - t0, report.records, text


def warm_up(cli, files):
    """Load each scenario and run it once, untimed, to make its Item.
    A requested check with no record at all stops the benchmark."""
    items = []
    t0 = time.perf_counter()
    for path in files:
        sc = cli.parse_scenario(path)
        # cli.run is looked up at each call, so the tracer's wrapper is used
        run = lambda sc=sc: cli.run(sc)  # noqa: E731
        report = run()
        missing = set(sc.checks) - {r.check for r in report.records}
        if missing:
            raise SystemExit(f"error: warm-up of {sc.name} gave no record "
                             f"for {sorted(missing)}")
        items.append(Item(sc.name, run, report.structured(), len(report.records)))
    return items, time.perf_counter() - t0


def run_item(item, tally, samples=None, tracer=None, pass_id=0) -> float:
    """Run one verdict; count its records and failures against the reference."""
    tally.attempted += item.expected_records
    t0 = time.perf_counter()
    try:
        dt, records, text = verdict(item, tracer, pass_id)
    except Exception:  # a crashing verdict is a failed one; keep measuring
        traceback.print_exc(file=sys.stderr)
        tally.failed += item.expected_records
        return time.perf_counter() - t0
    if samples is not None:
        samples.append(dt)
    tally.records += len(records)
    if text != item.reference:
        tally.failed += item.expected_records
    else:
        tally.failed += sum(1 for r in records if not r.passed)
    return dt


def run_pass(items, tally, tracer=None, pass_id=0) -> float:
    return sum(run_item(item, tally, tracer=tracer, pass_id=pass_id) for item in items)


def setup_probe(files) -> float:
    """Wall time for a fresh interpreter to import the CLI and load the
    workload's scenarios.  No timeout: waiting with one polls in steps of
    up to 50 ms, coarser than the figure."""
    cmd = [sys.executable, "-c", SETUP_PROBE, *files]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    t0 = time.perf_counter()
    subprocess.run(cmd, env=env, cwd=ROOT, check=True)
    return time.perf_counter() - t0


def openblas_function(name):
    """A function of numpy's bundled OpenBLAS, such as ``get_num_threads``,
    or None when it is not found."""
    import numpy
    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in (f"scipy_openblas_{name}64_", f"openblas_{name}64_", f"openblas_{name}"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                return fn
    return None


def blas_runtime_threads():
    """Thread count the loaded OpenBLAS reports, or None when not found."""
    fn = openblas_function("get_num_threads")
    if fn is None:
        return None
    fn.restype = ctypes.c_int
    return int(fn())


def environment():
    import numpy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads_requested": BLAS_THREADS,
        "blas_threads_reported": blas_runtime_threads(),
        "malloc_mmap_threshold": MMAP_THRESHOLD,
    }


def measure(items, files, seconds):
    """Timed passes, with one set-up probe before each verdict.  The host's
    speed changes every few seconds; probes spread over the whole run see
    the same mix of states as the verdicts do."""
    setup_probe(files)  # untimed: warms the file cache
    tally, samples, setups = Tally(), [], []
    busy, passes = 0.0, 0
    start = time.perf_counter()
    while True:
        for item in items:
            setups.append(setup_probe(files))
            busy += run_item(item, tally, samples)
        passes += 1
        if (time.perf_counter() - start) * (passes + 1) / passes > seconds:
            break
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "verdict_s.p50": (statistics.median(samples), "s"),
        "checks_per_s": (tally.records / busy, "1/s"),
        "peak_rss_mb": (peak_mb, "MB"),
    }
    notes = {"setup_s": f"median of {len(setups)} fresh interpreters",
             "verdict_s.p50": f"{len(samples)} samples"}
    return tally, metrics, notes


def measure_traced(tracer_mod, items, seconds, span_path):
    tr = tracer_mod.Tracer()
    tally, plain, traced = Tally(), [], []
    start = time.perf_counter()
    while True:
        plain.append(run_pass(items, tally))
        tr.install()
        try:
            traced.append(run_pass(items, tally, tracer=tr, pass_id=len(traced)))
        finally:
            tr.uninstall()
        tr.keep_spans = False  # spans of the first traced pass only
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(plain) + statistics.median(traced) > seconds:
            break
    tr.write_spans(span_path)
    p = len(traced)
    m = {f"{layer}.self_s": (tr.layer_total(layer, "self_s") / p, "s") for layer in LAYERS}
    for layer in LAYERS:
        m[f"{layer}.calls"] = (tr.layer_total(layer, "calls") / p, "count")
    for layer in ("linalg", "subspaces", "operators"):
        m[f"{layer}.svd_calls"] = (tr.svd_calls[layer] / p, "count")
    m["linalg.svd_gflop"] = (tr.svd_flop["linalg"] / 1e9 / p, "GFLOP")
    builds = tr.target_builds
    m["subspaces.target_builds"] = (len(builds) / p, "count")
    # no target builds means none was wasted
    m["subspaces.target_reuse"] = (len(set(builds)) / len(builds) if builds else 1.0, "ratio")
    for qual in STAGES:
        m[f"{qual}.s"] = (tr.inclusive_s(qual) / p, "s")
    m["operators.assembled_mb"] = (tr.layer_total("operators", "bytes") / 1e6 / p, "MB")
    m["cli.render_s"] = (tr.inclusive_s("cli.Report.structured") / p, "s")
    m["trace.overhead_s"] = (statistics.median(traced) - statistics.median(plain), "s")
    notes = {"trace.overhead_s": f"{p} traced / {len(plain)} untraced passes"}
    return tally, m, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("sweep-dense", "operators-wide"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "shiftlab" / "__init__.py").is_file():
        print(f"error: no shiftlab package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    from shiftlab import cli
    import tracer as tracer_mod
    import workloads

    env = environment()
    print("env " + json.dumps(env, sort_keys=True))
    out_dir = WORK / f"{args.workload}-seed{args.seed}"
    out_dir.mkdir(parents=True, exist_ok=True)
    files = workloads.generate(args.workload, args.seed, out_dir)
    items, warm_s = warm_up(cli, files)
    print(f"warm-up pass {warm_s:.4g} s")
    if args.trace:
        tally, metrics, notes = measure_traced(
            tracer_mod, items, args.seconds, out_dir / "spans.ndjson")
        if args.workload == workloads.SWEEP_DENSE:
            print_stage_table(cli, tracer_mod)
    else:
        tally, metrics, notes = measure(items, files, args.seconds)
    fail_ratio = tally.failed / tally.attempted
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    for name, (value, unit) in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name} {value:.6g} {unit}{note}")
    print(f"fail_ratio {fail_ratio:.6g} ratio  ({tally.failed}/{tally.attempted} records)")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if tally.failed == 0 else 1


def print_stage_table(cli, tracer_mod):
    """Re-measure the ROADMAP stage table on its own scenario and print it
    beside the ROADMAP figures.  The ROADMAP took them with numpy's default
    BLAS threads, one per core, so the table runs with one BLAS thread per
    core too.  It is a printed comparison: a stage marked off does not fail
    the run."""
    baseline = json.loads((HERE / "predictions.json").read_text())["roadmap_stage_table"]
    n = baseline["n"]
    sc = replace(cli.DEMOS[baseline["scenario"]]()[0], n_list=(n,))
    set_threads = openblas_function("set_num_threads")
    threads = os.cpu_count() if set_threads is not None else BLAS_THREADS
    tr = tracer_mod.Tracer(only=baseline["ms"])
    if set_threads is not None:
        set_threads(threads)
    try:
        cli.run(sc)  # untimed: the first call after the switch starts BLAS threads
        tr.install()
        try:
            cli.run(sc)
        finally:
            tr.uninstall()
    finally:
        if set_threads is not None:
            set_threads(BLAS_THREADS)
    print(f"stage table: {sc.name} at n = {n}, {threads} "
          f"BLAS thread(s); ms per call, ROADMAP figure in brackets")
    for qual, ref_ms in baseline["ms"].items():
        calls = tr.stats[qual].outer_calls if qual in tr.stats else 0
        ms = 1e3 * tr.inclusive_s(qual) / max(calls, 1)
        ratio = ms / ref_ms
        mark = "ok" if 1 / STAGE_TABLE_FACTOR <= ratio <= STAGE_TABLE_FACTOR else "off"
        print(f"  {qual:<42} {ms:8.1f}  ({ref_ms})  x{ratio:.2f} {mark}")


if __name__ == "__main__":
    sys.exit(main())
