"""Per-layer metrics derived from the spans of one traced operation.

Each metric names the hook spans it is computed from. On a workload that
is predicted to fire one of those hooks, a metric whose hooks never fired
is reported as missing, with the reason, never as zero: a refactor that
removes a call site must not read as an infinite speed-up. On a workload
that is not predicted to call the layer, no call is the measurement and
reads 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from spans import Span, self_times


@dataclass(frozen=True)
class LayerMetric:
    name: str
    unit: str
    hooks: tuple[str, ...]
    compute: Callable[["Spans"], float]


class Spans:
    """The spans of one operation with their self times, queried by name."""

    def __init__(self, spans: list[Span]):
        self.spans = spans
        self._self = self_times(spans)

    def of(self, name):
        return [s for s in self.spans if s.name == name]

    def count(self, name) -> int:
        return len(self.of(name))

    def total(self, name) -> float:
        return sum(s.seconds for s in self.of(name))

    def self_total(self, name) -> float:
        return sum(t for s, t in zip(self.spans, self._self) if s.name == name)

    def info_sum(self, name, key) -> float:
        return sum(s.info.get(key, 0) for s in self.of(name))


FIT = "em.fit_em"
BUILD = "selection.build_ensemble"


def _capped(sp):
    return sum(1 for s in sp.of(FIT) if s.info.get("converged") is False)


def _converged_ratio(sp):
    fits = [s for s in sp.of(FIT) if "converged" in s.info]
    return sum(s.info["converged"] for s in fits) / len(fits)


def _iter_ms(sp):
    return 1000.0 * sp.self_total(FIT) / sp.info_sum(FIT, "iterations")


def _kept_ratio(sp):
    return sp.info_sum(BUILD, "kept") / sp.info_sum(BUILD, "candidates")


def _match_k(sp):
    return max((s.info["k"] for s in sp.of("geodesics.match_components")), default=0)


def _t(name):
    return lambda sp: sp.total(name)


def _self(name):
    return lambda sp: sp.self_total(name)


def _n(name):
    return lambda sp: sp.count(name)


def _sum(name, key):
    return lambda sp: sp.info_sum(name, key)


SPAN_METRICS = (
    LayerMetric("em.fits", "count", (FIT,), _n(FIT)),
    LayerMetric("em.iterations", "count", (FIT,), _sum(FIT, "iterations")),
    LayerMetric("em.capped_fits", "count", (FIT,), _capped),
    LayerMetric("em.converged_ratio", "ratio", (FIT,), _converged_ratio),
    LayerMetric("em.kmeans_init_s", "s", ("em.kmeans_init",), _t("em.kmeans_init")),
    LayerMetric("em.loop_s", "s", (FIT,), _self(FIT)),
    LayerMetric("em.iter_ms", "ms", (FIT,), _iter_ms),
    LayerMetric("selection.self_s", "s", (BUILD,), _self(BUILD)),
    LayerMetric("selection.candidates", "count", (BUILD,), _sum(BUILD, "candidates")),
    LayerMetric("selection.dropped", "count", (BUILD,), _sum(BUILD, "dropped")),
    LayerMetric("selection.kept_ratio", "ratio", (BUILD,), _kept_ratio),
    LayerMetric("sampling.generate_s", "s", ("sampling.generate_point_cloud",),
                _t("sampling.generate_point_cloud")),
    LayerMetric("sampling.points", "count", ("sampling.generate_point_cloud",),
                _sum("sampling.generate_point_cloud", "points")),
    LayerMetric("embedding.probe_set_s", "s", ("embedding.make_probe_set",),
                _t("embedding.make_probe_set")),
    LayerMetric("embedding.embed_s", "s", ("embedding.embed",), _t("embedding.embed")),
    LayerMetric("embedding.embeds", "count", ("embedding.embed",), _n("embedding.embed")),
    LayerMetric("embedding.knn_s", "s", ("embedding.knn_classify",),
                _t("embedding.knn_classify")),
    LayerMetric("geodesics.project_s", "s", ("geodesics.project_to_k",),
                _t("geodesics.project_to_k")),
    LayerMetric("geodesics.match_s", "s", ("geodesics.match_components",),
                _t("geodesics.match_components")),
    LayerMetric("geodesics.geodesic_s", "s", ("geodesics.product_geodesic",),
                _t("geodesics.product_geodesic")),
    LayerMetric("geodesics.match_k", "count", ("geodesics.match_components",), _match_k),
    LayerMetric("io.read_s", "s", ("io.read",), _t("io.read")),
    LayerMetric("io.write_s", "s", ("io.write",), _t("io.write")),
    LayerMetric("io.bytes_read", "B", ("io.read",), _sum("io.read", "bytes")),
    LayerMetric("io.bytes_written", "B", ("io.write",), _sum("io.write", "bytes")),
    LayerMetric("shapes.tube_s", "s", ("shapes.make_bent_tube",), _t("shapes.make_bent_tube")),
    LayerMetric("pipeline.self_s", "s", ("pipeline.run_generation_classification",),
                _self("pipeline.run_generation_classification")),
    LayerMetric("cli.self_s", "s", ("cli.main",), _self("cli.main")),
)

# Measured by the runner rather than read from spans: the public e_step and
# m_step timed on the workload's own cloud and fitted model, and the hooked
# calls times the measured cost of one hooked call.
STEP_METRICS = (("em.e_step_ms", "ms"), ("em.m_step_ms", "ms"))
OVERHEAD_METRIC = ("trace.overhead_s", "s")

METRIC_NAMES = tuple(m.name for m in SPAN_METRICS) + tuple(
    name for name, _ in STEP_METRICS) + (OVERHEAD_METRIC[0],)


def missing(unit: str, reason: str) -> dict:
    return {"value": None, "unit": unit, "missing": reason}


def span_metrics(spans: list[Span], predicted: frozenset, workload: str) -> dict:
    """Every span-derived layer metric of one operation."""
    sp = Spans(spans)
    fired = {s.name for s in spans}
    out = {}
    for metric in SPAN_METRICS:
        if any(h in fired for h in metric.hooks):
            out[metric.name] = {"value": metric.compute(sp), "unit": metric.unit}
        elif any(h in predicted for h in metric.hooks):
            out[metric.name] = missing(metric.unit, (
                f"hook {'/'.join(metric.hooks)} never fired, although {workload} "
                f"is predicted to call it"))
        else:
            out[metric.name] = {"value": 0, "unit": metric.unit}
    return out
