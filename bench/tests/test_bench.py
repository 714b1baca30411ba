"""Tests of the benchmark itself: metric names, spans, missing hooks, and a
smoke run of every workload on tiny inputs.

    PYTHONPATH=src python -m pytest bench/tests -q
"""

import concurrent.futures
import dataclasses
import functools
import json
import multiprocessing
import pickle
import re
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import compare
import gauge
import layers
import run
import workloads
from spans import HOOKS, Hook, Recorder, Span, self_times

BENCH = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

TINY = {
    "paper_pipeline": dict(bases=1, n_points=80, ks=(1, 2), options=("--counts", "2,2",
                                                                     "--seeds", "0")),
    "large_fit": dict(n_points=2000),
    "interpolate": dict(n_points=100),
}
TINY_STEP_FIT = {"paper_pipeline": (80, 2), "large_fit": (2000, 8), "interpolate": (100, 8)}


def tiny(name):
    workload = workloads.WORKLOADS[name]
    return dataclasses.replace(workload, setup=functools.partial(workload.setup, **TINY[name]),
                               step_fit=TINY_STEP_FIT[name])


def test_metric_names_are_plain_and_match_the_code():
    names = [m["name"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]]
    assert all(NAME.match(n) for n in names)
    assert len(names) == len(set(names))
    assert [m["name"] for m in BENCHMARK["per_layer"]] == list(layers.METRIC_NAMES)
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)


def test_self_time_subtracts_the_union_of_children():
    spans = [Span("root", 0.0, 10.0), Span("a", 1.0, 3.0, parent=0),
             Span("b", 2.0, 5.0, parent=0), Span("c", 6.0, 7.0, parent=0),
             Span("d", 2.5, 3.0, parent=2)]
    assert self_times(spans) == pytest.approx([5.0, 2.0, 2.5, 1.0, 0.5])


def test_hooks_restore_every_attribute():
    import gmmcloud.pipeline
    import gmmcloud.selection
    before = (gmmcloud.selection.fit_em, gmmcloud.pipeline.build_ensemble)
    with Recorder().installed(HOOKS):
        assert gmmcloud.selection.fit_em is not before[0]
    assert (gmmcloud.selection.fit_em, gmmcloud.pipeline.build_ensemble) == before


def test_missing_hook_reads_missing_not_zero():
    rec = Recorder()
    ghost = Hook("em.fit_em", (("gmmcloud.selection", "no_such_function"),))
    with rec.installed((ghost,)):
        with rec.span("op"):
            pass
    assert rec.absent_sites == ["gmmcloud.selection.no_such_function"]
    metrics = layers.span_metrics(rec.spans, frozenset({"em.fit_em"}), "demo")
    assert metrics["em.iterations"]["value"] is None
    assert "never fired" in metrics["em.iterations"]["missing"]
    # a layer the workload is not predicted to call reads zero
    assert metrics["geodesics.match_s"] == {"value": 0, "unit": "s"}


def test_hooked_function_pickles_to_its_site_for_a_process_pool():
    import gmmcloud.pipeline
    from gmmcloud import shapes
    cloud = shapes.make_bent_tube(shapes.tube_spec_for_class(shapes.DEMENTED, 60), 0)
    with Recorder().installed(HOOKS):
        hooked = gmmcloud.pipeline.build_ensemble
        assert pickle.loads(pickle.dumps(hooked)) is hooked
        context = multiprocessing.get_context("spawn")
        with concurrent.futures.ProcessPoolExecutor(1, mp_context=context) as pool:
            ensemble, _ = pool.submit(hooked, cloud, (1, 2)).result(timeout=120)
    assert ensemble.members


def test_untraced_operation_runs_unhooked():
    import gmmcloud.pipeline
    import gmmcloud.selection
    original = (gmmcloud.selection.fit_em, gmmcloud.pipeline.build_ensemble)
    seen = []

    def probe(state, rec):
        seen.append((gmmcloud.selection.fit_em, gmmcloud.pipeline.build_ensemble))

    workload = dataclasses.replace(tiny("interpolate"), run=probe,
                                   check=lambda state, output: None)
    run.measure(workload, [None], 0, trace=False)
    assert seen == [original]


def test_passes_cover_every_input_set():
    workload = dataclasses.replace(tiny("interpolate"), run=lambda state, rec: state,
                                   check=lambda state, output: None)
    ops = run.measure(workload, ["a", "b", "c"], 0, trace=False)
    assert [(op.cycle, op.index) for op in ops] == [(0, 0), (0, 1), (0, 2)]
    assert [[op.output for op in p] for p in run.passes(ops)] == [["a", "b", "c"]]
    assert all(op.reference > 0 and op.relative == op.seconds / op.reference for op in ops)


def test_gauge_samples_during_the_operation_and_restores_the_handler():
    before = signal.getsignal(signal.SIGPROF)
    g = gauge.Gauge(period=0.01)
    g.start()
    t0, cpu = time.perf_counter(), time.process_time()
    while time.process_time() < cpu + 0.3 and time.perf_counter() < t0 + 5.0:
        sum(range(1000))
    t1 = time.perf_counter()
    g.stop()
    assert signal.getsignal(signal.SIGPROF) == before
    assert signal.getitimer(signal.ITIMER_PROF) == (0.0, 0.0)
    inside = [s for s in g.samples if s[0] >= t0 and s[1] <= t1]
    # one sample before, one after, and some between the two clock reads
    assert len(g.samples) >= len(inside) + 2 and inside
    assert 0 < g.inside(t0, t1) < t1 - t0 and g.reference() > 0


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_tiny_workload_runs(name, tmp_path):
    workload = tiny(name)
    setup = run.set_up(workload, 3, tmp_path, repeats=1)
    ops = run.measure(workload, setup.states, 0, trace=False)
    assert all(op.ok for op in ops), [op.error for op in ops]
    gated, _ = run.end_to_end(workload, setup, ops)
    assert sorted(gated) == sorted(m["name"] for m in BENCHMARK["end_to_end"])
    assert all(m["value"] > 0 for m in gated.values())

    ops = run.measure(workload, setup.states, 0, trace=True)
    assert all(op.ok for op in ops), [op.error for op in ops]
    assert [op.index for op in ops] == list(range(workload.inputs))
    spans = ops[0].spans
    for i, span in enumerate(spans):
        assert span.start <= span.end
        if span.parent is not None:
            parent = spans[span.parent]
            assert span.parent < i and parent.start <= span.start <= span.end <= parent.end
    assert all(t >= 0.0 for t in self_times(spans))
    metrics = run.per_layer(workload, ops)
    assert set(metrics) == set(layers.METRIC_NAMES)
    assert all(m["value"] is not None for m in metrics.values()), metrics
    assert metrics["em.fits"]["value"] > 0
    assert metrics["trace.overhead_s"]["value"] > 0


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    result = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "large_fit", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert result.returncode != 0
    assert result.stdout == ""


def _run(seed, **values):
    return {"workload": "w", "seed": seed, "trace": 0, "environment": {},
            "metrics": {k: {"value": v} for k, v in values.items()}}


def test_compare_verdicts():
    parent = [_run(s, run_s=10.0 + 0.1 * s) for s in range(10)]
    faster = [_run(s, run_s=8.0 + 0.1 * s) for s in range(10)]
    slower = [_run(s, run_s=13.0 + 0.1 * s) for s in range(10)]
    same = [_run(s, run_s=10.05 + 0.1 * s) for s in range(10)]
    bench = {"end_to_end": [{"name": "run_s", "better": "lower", "bound": 0.1}],
             "per_layer": []}
    assert compare.compare(parent, faster, bench)[0]["verdict"] == "better"
    assert compare.compare(parent, slower, bench)[0]["verdict"] == "worse"
    assert compare.compare(parent, same, bench)[0]["verdict"] == "within bound"
    noisy = [_run(s, run_s=10.0 * (1 + s % 2)) for s in range(10)]
    assert compare.compare(noisy, same, bench)[0]["verdict"] == "unresolved"
    gone = [_run(s, run_s=None) for s in range(10)]
    assert compare.compare(parent, gone, bench)[0]["verdict"] == "missing"
