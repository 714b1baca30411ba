"""gmmcloud benchmark: run one workload and print its metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from `src/`.
The inputs are built from --seed, then passes over the input sets repeat
while another one still fits in --seconds (at least one runs). Untraced
operations run under the host-speed gauge of gauge.py, and run_rel is
their time in units of its reference computation. Each operation's
outputs are checked outside the timed region. The last line of stdout
is one JSON object with the keys correct, attempted, failed and
metrics: the end-to-end metrics with --trace 0, the per-layer metrics
with --trace 1. The line before it is a
JSON record with the environment, every operation's time and the
workload's own quality metrics; bench/compare.py reads both.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from gauge import Gauge
from layers import METRIC_NAMES, OVERHEAD_METRIC, SPAN_METRICS, STEP_METRICS, missing
from layers import span_metrics
from spans import HOOKS, Recorder, call_overhead

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SETUP_REPEATS = 3
# nll_per_point covers the first input sets only: on interpolate it refits
# the input clouds, which costs as much as the operation itself
NLL_INPUT_SETS = 3
STEP_MIN_SECONDS = 0.25
STEP_MIN_REPEATS = 5
BLAS_THREAD_SYMBOLS = ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads")


@dataclass
class Op:
    seconds: float
    error: str | None
    spans: list
    output: Any = None
    absent_sites: list = field(default_factory=list)
    index: int = 0
    # which pass over the input sets the operation belongs to
    cycle: int = 0
    # mean seconds of the gauge's reference computation during the
    # operation; None when no gauge ran (traced operations)
    reference: float | None = None

    @property
    def relative(self) -> float:
        return self.seconds / self.reference

    @property
    def ok(self) -> bool:
        return self.error is None


@dataclass
class Setup:
    seconds: list = field(default_factory=list)
    states: list = field(default_factory=list)


def blas_threads() -> dict:
    """Thread count of every OpenBLAS loaded in this process, by library."""
    try:
        with open("/proc/self/maps") as maps:
            libs = sorted({line.split()[-1] for line in maps if "openblas" in line.lower()})
    except OSError:
        return {}
    out = {}
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in BLAS_THREAD_SYMBOLS:
            if hasattr(handle, symbol):
                fn = getattr(handle, symbol)
                fn.restype = ctypes.c_int
                out[os.path.basename(lib)] = fn()
                break
    return out


def environment(seed: int) -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "thread_env": {k: os.environ[k] for k in
                       ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
                       if k in os.environ},
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "seed": seed,
    }


def fresh_import():
    """Import the gmmcloud CLI in a fresh interpreter, as a new user process does."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    subprocess.run([sys.executable, "-c", "import gmmcloud.cli"], env=env, cwd=ROOT,
                   check=True, capture_output=True, timeout=120)


def set_up(workload, seed: int, workdir: Path, repeats: int = SETUP_REPEATS) -> Setup:
    """Import the program and build the inputs, several times; keep the last.

    A workload with several input sets per run builds set j of seed s from
    input seed s * inputs + j, so runs of different seeds never share one.
    """
    setup = Setup()
    for r in range(repeats):
        start = time.perf_counter()
        fresh_import()
        setup.states = []
        for j in range(workload.inputs):
            target = workdir / f"setup{r}" / str(j)
            target.mkdir(parents=True)
            setup.states.append(workload.setup(seed * workload.inputs + j, target))
        setup.seconds.append(time.perf_counter() - start)
    return setup


def run_op(workload, state, hooks, index: int = 0, gauge: Gauge | None = None) -> Op:
    """One timed operation with the given hooks installed (none when
    untraced) or under the gauge, then its check. The gauge's samples
    inside the operation are taken out of its time."""
    rec = Recorder()
    output, error = None, None
    with rec.installed(hooks):
        if gauge:
            gauge.start()
        start = time.perf_counter()
        try:
            with rec.span("op"):
                output = workload.run(state, rec)
        except Exception:  # a failing operation is counted, not fatal
            error = traceback.format_exc()
        end = time.perf_counter()
        if gauge:
            gauge.stop()
    seconds = end - start - (gauge.inside(start, end) if gauge else 0.0)
    reference = gauge.reference() if gauge else None
    if error is None:
        try:
            workload.check(state, output)
        except Exception:
            error = traceback.format_exc()
    if error is not None:
        print(f"bench: {workload.name} operation failed:\n{error}", file=sys.stderr)
    return Op(seconds, error, rec.spans, output, rec.absent_sites, index, reference=reference)


def measure(workload, states: list, seconds: float, trace: bool) -> list[Op]:
    """Passes over the input sets within `seconds`, at least one.

    Another pass starts only if one more of the last one's length still
    fits, so a run lasts about `seconds` whatever the operation's length.
    Traced operations run with the hooks, untraced ones under the gauge.
    """
    hooks = HOOKS if trace else ()
    gauge = None if trace else Gauge()
    start = time.perf_counter()
    ops = []
    cycle = 0
    while not ops or time.perf_counter() - start + sum(
            op.seconds for op in ops if op.cycle == cycle - 1) <= seconds:
        for index, state in enumerate(states):
            op = run_op(workload, state, hooks, index, gauge)
            op.cycle = cycle
            ops.append(op)
        cycle += 1
    return ops


def passes(ops: list[Op]) -> list[list[Op]]:
    """The operations grouped by pass over the input sets."""
    grouped = {}
    for op in ops:
        grouped.setdefault(op.cycle, []).append(op)
    return list(grouped.values())


def end_to_end(workload, setup: Setup, ops: list[Op]) -> tuple[dict, dict]:
    """The gated metrics, and the workload's own metrics for the record.

    nll_per_point and the workload's own metrics come from the outputs of
    the first successful operation on each input set (nll_per_point: on
    each of the first NLL_INPUT_SETS), after it returned.
    """
    from workloads import nll_per_point

    good = [op for op in ops if op.ok]
    cycles = [c for c in passes(ops) if all(op.ok for op in c)] or passes(ops)
    metrics = {
        "setup_s": {"value": statistics.median(setup.seconds), "unit": "s"},
        "run_rel": {"value": statistics.median(sum(op.relative for op in c) for c in cycles),
                    "unit": "ratio"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                        "unit": "MB"},
        "success_rate": {"value": len(good) / len(ops), "unit": "ratio"},
    }
    first = sorted({op.index: op for op in reversed(good)}.values(), key=lambda op: op.index)
    fitted = [pair for op in first[:NLL_INPUT_SETS]
              for pair in workload.fitted(setup.states[op.index], op.output)]
    metrics["nll_per_point"] = (
        {"value": nll_per_point(fitted), "unit": "nat"} if fitted else
        missing("nat", "no successful operation"))
    extra = {
        "run_s": {"value": statistics.median(sum(op.seconds for op in c) for c in cycles),
                  "unit": "s"},
        "reference_ms": {"value": 1000.0 * statistics.median(op.reference for op in ops),
                         "unit": "ms"},
        "error_rate": {"value": (len(ops) - len(good)) / len(ops), "unit": "ratio"},
    }
    quality = [workload.quality(setup.states[op.index], op.output) for op in first]
    for name, metric in (quality[0].items() if quality else ()):
        values = [q[name]["value"] for q in quality]
        extra[name] = (metric if None in values else
                       dict(metric, value=statistics.fmean(values)))
    return metrics, extra


def _median_ms(fn) -> float:
    times = []
    while len(times) < STEP_MIN_REPEATS or sum(times) < STEP_MIN_SECONDS:
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return 1000.0 * statistics.median(times)


def step_metrics(workload, op: Op) -> dict:
    """Public e_step and m_step timed on the workload's own cloud and fit."""
    from gmmcloud import em

    n, k = workload.step_fit
    fit = next((s for s in op.spans if s.name == "em.fit_em" and "model" in s.info
                and s.info["k"] == k and len(s.info["cloud"]) == n), None)
    if fit is None:
        return {name: missing(unit, f"no fit with N={n}, K={k} in the traced operation")
                for name, unit in STEP_METRICS}
    cloud, model = fit.info["cloud"], fit.info["model"]
    resp = em.e_step(cloud, model)
    return {
        "em.e_step_ms": {"value": _median_ms(lambda: em.e_step(cloud, model)), "unit": "ms"},
        "em.m_step_ms": {"value": _median_ms(lambda: em.m_step(cloud, resp)), "unit": "ms"},
    }


def tracing_overhead(ops: list[Op]) -> float:
    """Seconds the hooks added to each operation, on average: the hooked
    calls it made times the measured cost of one hooked call around an
    empty function (build_ensemble's hook also catches warnings)."""
    catching = {hook.span for hook in HOOKS if hook.count_dropped}
    hooked = {hook.span for hook in HOOKS}
    cost = {True: call_overhead(True), False: call_overhead(False)}
    return statistics.fmean(
        sum(cost[s.name in catching] for s in op.spans if s.name in hooked) for op in ops)


def per_layer(workload, ops: list[Op]) -> dict:
    """Per-layer metrics: the mean over the first traced operation of each
    input set, so that counts repeat exactly between runs and a costly
    call on one input set still shows."""
    good = [op for op in ops[:workload.inputs] if op.ok]
    if len(good) < workload.inputs:
        units = {m.name: m.unit for m in SPAN_METRICS} | dict(STEP_METRICS + (OVERHEAD_METRIC,))
        return {name: missing(units[name], "a traced operation of the first cycle failed")
                for name in METRIC_NAMES}
    per_op = [span_metrics(op.spans, workload.layers, workload.name) for op in good]
    metrics = {}
    for name, first in per_op[0].items():
        values = [m[name]["value"] for m in per_op]
        if None in values or len(set(values)) == 1:
            metrics[name] = first
        else:
            metrics[name] = {"value": statistics.fmean(values), "unit": first["unit"]}
    metrics.update(step_metrics(workload, good[0]))
    name, unit = OVERHEAD_METRIC
    metrics[name] = {"value": tracing_overhead(good), "unit": unit}
    return metrics


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        parser.error("--seed and --seconds must be >= 0")
    return args


def load_program() -> str | None:
    """Import gmmcloud from this checkout's src/; an error message if absent."""
    if not (SRC / "gmmcloud" / "__init__.py").is_file():
        return f"no gmmcloud sources under {SRC}; run from the root of a checkout"
    sys.path.insert(0, str(SRC))
    import gmmcloud
    if Path(gmmcloud.__file__).resolve().parent != SRC / "gmmcloud":
        return f"imported gmmcloud from {gmmcloud.__file__}, not from {SRC}"
    return None


def main(argv=None) -> int:
    args = parse_args(argv)
    problem = load_program()
    if problem:
        print(f"bench: {problem}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}, expected one of "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    workdir = ROOT / ".bench_work" / f"{workload.name}-{args.seed}-{os.getpid()}"
    try:
        setup = set_up(workload, args.seed, workdir)
        ops = measure(workload, setup.states, args.seconds, bool(args.trace))
        if args.trace:
            metrics, extra = per_layer(workload, ops), {}
        else:
            metrics, extra = end_to_end(workload, setup, ops)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    failed = sum(1 for op in ops if not op.ok)
    record = {
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": environment(args.seed),
        "setup_s": setup.seconds, "op_s": [op.seconds for op in ops],
        "reference_s": [op.reference for op in ops],
        "workload_metrics": extra,
        "absent_hook_sites": sorted({site for op in ops for site in op.absent_sites}),
    }
    print(json.dumps({"record": record}))
    print(json.dumps({"correct": failed == 0, "attempted": len(ops), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
