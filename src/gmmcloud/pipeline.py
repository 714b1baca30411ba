"""End-to-end synthetic benchmark: generate clouds per class, refit, and
classify the regenerated clouds against the source models.

The benchmark mirrors a two-class scan corpus with 33 clouds of one
class and 36 of the other. A handful of base tubes per class stand in
for real scans; each base cloud gets an AIC ensemble, new clouds are
sampled from those ensembles, every generated cloud is refitted, and
the refit embeddings are classified 1-NN against the base-model
embeddings. The generated clouds depend only on the base ensembles, so
they are all drawn first and refitted together by build_ensembles.
Probe placement is the only stochastic part that varies between
evaluation rounds, so accuracy is averaged over probe seeds.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .em import FitConfig
from .embedding import ClassificationMetrics, embed, evaluate, knn_classify, make_probe_set
from .sampling import checked_integer, generate_point_cloud, rng_stream
from .selection import build_ensemble, build_ensembles
from .shapes import (DEMENTED, NONDEMENTED, STOCK_N_POINTS, make_bent_tube,
                     tube_spec_for_class)

GENERATED_COUNTS = {DEMENTED: 33, NONDEMENTED: 36}


@dataclass(frozen=True)
class ExperimentConfig:
    base_shapes_per_class: int = 5
    generated_counts: dict = field(default_factory=lambda: dict(GENERATED_COUNTS))
    n_points: int = STOCK_N_POINTS
    candidate_ks: tuple[int, ...] = (2, 4, 8)
    seed: int = 0
    probe_seeds: tuple[int, ...] = (0, 1, 2, 3, 4)

    def __post_init__(self):
        checked_integer("base_shapes_per_class", self.base_shapes_per_class, 1)
        n_points = checked_integer("n_points", self.n_points, 1)
        if set(self.generated_counts) != set(GENERATED_COUNTS):
            raise ValueError(f"generated_counts must count the classes {sorted(GENERATED_COUNTS)}, "
                             f"got {list(self.generated_counts)}")
        for label, count in self.generated_counts.items():
            checked_integer(f"generated_counts[{label!r}]", count, 1)
        if not self.candidate_ks:
            raise ValueError("candidate_ks must not be empty")
        for i, k in enumerate(self.candidate_ks):
            if checked_integer(f"candidate_ks[{i}]", k, 1) > n_points:
                raise ValueError(f"candidate_ks[{i}] must be <= n_points ({n_points}), got {k}")
        if not self.probe_seeds:
            raise ValueError("probe_seeds must not be empty")
        checked_integer("seed", self.seed)
        for i, seed in enumerate(self.probe_seeds):
            checked_integer(f"probe_seeds[{i}]", seed)


@dataclass(frozen=True)
class ExperimentReport:
    per_seed: tuple[ClassificationMetrics, ...]
    probe_seeds: tuple[int, ...]

    @property
    def mean_accuracy(self) -> float:
        return float(np.mean([m.accuracy for m in self.per_seed]))

    @property
    def mean_sensitivity(self) -> float:
        return float(np.mean([m.sensitivity for m in self.per_seed]))

    @property
    def mean_specificity(self) -> float:
        return float(np.mean([m.specificity for m in self.per_seed]))


def run_generation_classification(config: ExperimentConfig = ExperimentConfig()
                                  ) -> ExperimentReport:
    """Run the full generate-refit-classify benchmark once; the seed
    drives the shapes, the fits and the generated clouds."""
    fit = FitConfig(seed=config.seed)
    labels = sorted(config.generated_counts)
    base_clouds = []
    base_ensembles = []
    for ci, label in enumerate(labels):
        spec = tube_spec_for_class(label, n_points=config.n_points)
        for b in range(config.base_shapes_per_class):
            cloud = make_bent_tube(spec, seed=config.seed * 10007 + ci * 101 + b)
            ensemble, _ = build_ensemble(cloud, config.candidate_ks, fit)
            base_clouds.append(cloud)
            base_ensembles.append((ensemble, label))

    generated_clouds = []
    stream_id = 0
    for ci, label in enumerate(labels):
        members = [(e, l) for e, l in base_ensembles if l == label]
        for i in range(config.generated_counts[label]):
            source, _ = members[i % len(members)]
            stream_id += 1
            generated_clouds.append(generate_point_cloud(
                source, config.n_points, rng_stream(config.seed, stream_id), label=label))
    refits = build_ensembles(generated_clouds, config.candidate_ks, fit)
    generated_ensembles = [(ensemble, cloud.label)
                           for cloud, (ensemble, _) in zip(generated_clouds, refits)]

    all_clouds = base_clouds + generated_clouds
    per_seed = []
    for probe_seed in config.probe_seeds:
        probes = make_probe_set(all_clouds, probe_seed)
        train = [(embed(e, probes), label) for e, label in base_ensembles]
        pairs = [
            (label, knn_classify(train, embed(e, probes)))
            for e, label in generated_ensembles
        ]
        per_seed.append(evaluate(pairs, DEMENTED))
    return ExperimentReport(tuple(per_seed), tuple(config.probe_seeds))


def format_report(report: ExperimentReport) -> str:
    lines = []
    for seed, metrics in zip(report.probe_seeds, report.per_seed):
        lines.append(
            f"probe seed {seed}: accuracy {metrics.accuracy:.4f}  "
            f"sensitivity {metrics.sensitivity:.4f}  specificity {metrics.specificity:.4f}")
    lines.append(
        f"mean over {len(report.per_seed)} probe seeds: "
        f"accuracy {report.mean_accuracy:.4f}  "
        f"sensitivity {report.mean_sensitivity:.4f}  "
        f"specificity {report.mean_specificity:.4f}  "
        f"(positive class: {DEMENTED})")
    return "\n".join(lines)
