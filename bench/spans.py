"""Spans around gmmcloud's public functions, recorded from outside the package.

The benchmark never edits `src/`. To see inside an operation it replaces a
public function at the module attributes its callers look up (for example
`gmmcloud.selection.fit_em`, which `build_ensemble` calls, or
`gmmcloud.pipeline.build_ensemble`), records one span per call, and puts
every attribute back when the operation ends. Spans live in memory; the
per-layer metrics are derived from them after the operation. Only traced
runs install hooks.

A wrapper pickles as a reference to the attribute it replaces, so a
process pool can still ship a hooked function to its workers. A worker
then runs either the original function (a fresh interpreter) or a copy
of the wrapper whose spans stay in the worker (a forked one): calls made
in workers leave no span in this process.
"""

from __future__ import annotations

import importlib
import math
import os
import statistics
import time
import warnings
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    """One call: name, start and end on the perf_counter clock, parent index."""

    name: str
    start: float
    end: float = math.nan
    parent: int | None = None
    info: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _path_size(path) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


def _fit_info(info, args, kwargs, result):
    info["cloud"] = args[0]
    info["k"] = args[1]
    info["model"] = result.model
    info["iterations"] = result.iterations
    info["converged"] = result.converged


def _build_info(info, args, kwargs, result):
    _, table = result
    info["candidates"] = len(table.rows) + info.get("dropped", 0)
    info["kept"] = sum(1 for row in table.rows if row.kept)


def _generate_info(info, args, kwargs, result):
    info["points"] = len(result)


def _match_info(info, args, kwargs, result):
    info["k"] = args[0].k


def _read_info(info, args, kwargs, result):
    info["bytes"] = _path_size(args[0])


def _write_info(path_index):
    def record(info, args, kwargs, result):
        info["bytes"] = _path_size(args[path_index])
    return record


@dataclass(frozen=True)
class Hook:
    """A public function, the attributes its callers look it up through,
    and what to keep from each call."""

    span: str
    sites: tuple[tuple[str, str], ...]
    info: object = None
    count_dropped: bool = False


# Every hook of the traced run.
HOOKS = (
    Hook("selection.build_ensemble",
         (("gmmcloud.selection", "build_ensemble"), ("gmmcloud.pipeline", "build_ensemble"),
          ("gmmcloud.cli", "build_ensemble"), ("gmmcloud.geodesics", "build_ensemble")),
         _build_info, count_dropped=True),
    Hook("em.fit_em", (("gmmcloud.selection", "fit_em"),), _fit_info),
    Hook("em.kmeans_init", (("gmmcloud.em", "kmeans_init"),)),
    Hook("sampling.generate_point_cloud",
         (("gmmcloud.pipeline", "generate_point_cloud"),
          ("gmmcloud.geodesics", "generate_point_cloud")), _generate_info),
    Hook("embedding.make_probe_set",
         (("gmmcloud.embedding", "make_probe_set"), ("gmmcloud.pipeline", "make_probe_set"))),
    Hook("embedding.embed", (("gmmcloud.embedding", "embed"), ("gmmcloud.pipeline", "embed"))),
    Hook("embedding.knn_classify",
         (("gmmcloud.embedding", "knn_classify"), ("gmmcloud.pipeline", "knn_classify"))),
    Hook("geodesics.project_to_k", (("gmmcloud.geodesics", "project_to_k"),)),
    Hook("geodesics.match_components", (("gmmcloud.geodesics", "match_components"),),
         _match_info),
    Hook("geodesics.product_geodesic", (("gmmcloud.geodesics", "product_geodesic"),)),
    Hook("io.read", (("gmmcloud.cli", "read_point_cloud"),), _read_info),
    Hook("io.write", (("gmmcloud.cli", "write_point_cloud"),
                      ("gmmcloud.cli", "emit_svg_filmstrip")), _write_info(1)),
    Hook("io.write", (("gmmcloud.cli", "save_model"),), _write_info(0)),
    Hook("shapes.make_bent_tube",
         (("gmmcloud.shapes", "make_bent_tube"), ("gmmcloud.pipeline", "make_bent_tube"))),
    Hook("pipeline.run_generation_classification",
         (("gmmcloud.cli", "run_generation_classification"),)),
)


class Recorder:
    """Records nested spans in one thread; parents come from a call stack."""

    def __init__(self):
        self.spans: list[Span] = []
        self.absent_sites: list[str] = []
        self._stack: list[int] = []

    def _open(self, name: str) -> Span:
        span = Span(name, time.perf_counter(),
                    parent=self._stack[-1] if self._stack else None)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: Span):
        span.end = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        """Record a span around a block of the benchmark's own code."""
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)

    def _wrap(self, hook: Hook, fn, module_name: str, attr: str):
        def wrapper(*args, **kwargs):
            span = self._open(hook.span)
            try:
                if hook.count_dropped:
                    with warnings.catch_warnings(record=True) as caught:
                        warnings.simplefilter("always")
                        result = fn(*args, **kwargs)
                else:
                    result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if hook.count_dropped:
                dropped = [w for w in caught if str(w.message).startswith("candidate K=")]
                span.info["dropped"] = len(dropped)
                for w in caught:
                    warnings.warn_explicit(w.message, w.category, w.filename, w.lineno)
            if hook.info is not None:
                hook.info(span.info, args, kwargs, result)
            return result
        # pickle looks a function up by module and qualified name
        wrapper.__module__, wrapper.__name__, wrapper.__qualname__ = module_name, attr, attr
        return wrapper

    @contextmanager
    def installed(self, hooks):
        """Wrap each hook's sites for the duration of the block, then restore.

        A site whose module or attribute no longer exists is noted in
        absent_sites and skipped; its metrics then read as missing.
        """
        saved = []
        try:
            for hook in hooks:
                for module_name, attr in hook.sites:
                    try:
                        module = importlib.import_module(module_name)
                    except ModuleNotFoundError:
                        module = None
                    fn = getattr(module, attr, None)
                    if fn is None:
                        self.absent_sites.append(f"{module_name}.{attr}")
                        continue
                    saved.append((module, attr, fn))
                    setattr(module, attr, self._wrap(hook, fn, module_name, attr))
            yield self
        finally:
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    out = []
    for i, span in enumerate(spans):
        covered, reach = 0.0, span.start
        for start, end in sorted(children[i]):
            start = max(start, reach)
            end = min(end, span.end)
            if end > start:
                covered += end - start
                reach = end
        out.append(span.seconds - covered)
    return out


def _empty():
    pass


def call_overhead(count_dropped: bool, calls: int = 2000, repeats: int = 5) -> float:
    """Seconds one hooked call adds around an empty function: the median
    over `repeats` batches of `calls` calls, minus the bare calls."""
    rec = Recorder()
    wrapped = rec._wrap(Hook("overhead", (), count_dropped=count_dropped), _empty,
                        __name__, "_empty")
    costs = []
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(calls):
            wrapped()
        middle = time.perf_counter()
        for _ in range(calls):
            _empty()
        costs.append((2 * middle - start - time.perf_counter()) / calls)
    return statistics.median(costs)
