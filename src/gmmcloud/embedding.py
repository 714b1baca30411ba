"""Density-probe embedding of mixtures on a unit hypersphere, plus 1-NN.

A fixed set of probe locations turns any mixture into a discrete density
profile; normalizing the profile to sum one and taking square roots
places the model on the non-negative orthant of the unit sphere, where
the great-circle angle is the natural distance. With the standard 1000
probes the models live on S^999.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import (
    Gmm,
    GmmEnsemble,
    checked_array,
    gmm_log_density,
    reduce_through_constructor,
    softmax_columns,
)
from .sampling import checked_integer, checked_real, rng_stream

PROBE_COUNT = 1000
INFLATE_FRACTION = 0.05
DEGENERATE_AXIS_PAD = 0.5


@dataclass(frozen=True, eq=False)
class ProbeSet:
    """Probe locations with the box they were drawn from and their seed."""

    probes: np.ndarray
    bounds: np.ndarray
    seed: int

    def __post_init__(self):
        probes = checked_array("probes", self.probes, (None, 3), "(M, 3) with M >= 1")
        bounds = checked_array("bounds", self.bounds, (2, 3), "(2, 3) lo/hi rows")
        if np.any(probes < bounds[0]) or np.any(probes > bounds[1]):
            raise ValueError("every probe must lie inside the bounds")
        seed = checked_integer("seed", self.seed)
        for name, value in (("probes", probes), ("bounds", bounds), ("seed", seed)):
            object.__setattr__(self, name, value)

    __reduce__ = reduce_through_constructor


@dataclass(frozen=True, eq=False)
class SphereEmbedding:
    """Unit vector of square-root normalized probe densities."""

    coords: np.ndarray

    def __post_init__(self):
        coords = checked_array("coords", self.coords, (None,), "a non-empty vector")
        # no entry of a unit vector exceeds 1; larger ones could overflow the norm
        if not np.all((coords >= 0.0) & (coords <= 1.0 + 1e-12)):
            raise ValueError("coords must be finite, >= 0 and <= 1")
        norm = float(np.linalg.norm(coords))
        if abs(norm - 1.0) > 1e-12:
            raise ValueError(f"coords norm is {norm!r}, expected 1")
        object.__setattr__(self, "coords", coords)

    __reduce__ = reduce_through_constructor


def inflated_bounds(clouds, margin_fraction: float = INFLATE_FRACTION) -> np.ndarray:
    """Joint bounding box of the clouds, padded per side by a fraction of
    each axis extent, finite and >= 0. A zero-extent axis is padded half a
    unit per side."""
    margin_fraction = checked_real("margin_fraction", margin_fraction, 0.0)
    points = [c.points for c in clouds]
    if not points:
        raise ValueError("need at least one cloud")
    pts = np.vstack(points)
    lo = pts.min(axis=0)
    hi = pts.max(axis=0)
    extent = hi - lo
    pad = np.where(extent > 0.0, margin_fraction * extent, DEGENERATE_AXIS_PAD)
    return np.array([lo - pad, hi + pad])


def make_probe_set(clouds, seed: int, count: int = PROBE_COUNT) -> ProbeSet:
    """Uniform probe draws over the inflated joint bounding box."""
    count = checked_integer("probe count", count, 1)
    bounds = inflated_bounds(clouds)
    rng = rng_stream(seed)
    probes = bounds[0] + rng.random((count, 3)) * (bounds[1] - bounds[0])
    return ProbeSet(probes, bounds, seed)


def embedding_from_log_densities(log_density: np.ndarray) -> SphereEmbedding:
    """Normalize probe log-densities and map by square root to the sphere."""
    q = np.array(log_density, dtype=float).reshape(-1, 1)
    if not math.isfinite(softmax_columns(q)[0]):
        raise ValueError("probe set does not cover the model support")
    return SphereEmbedding(np.sqrt(q[:, 0]))


def embed(model: Gmm | GmmEnsemble, probes: ProbeSet) -> SphereEmbedding:
    """Embed a mixture, or an ensemble as its flat mixture, through its
    probe density profile."""
    return embedding_from_log_densities(gmm_log_density(probes.probes, model))


def arc_distance(a: SphereEmbedding, b: SphereEmbedding) -> float:
    """Great-circle angle between two embeddings, in the chord form
    2 asin(|a - b| / 2): exactly 0 from an embedding to itself, where
    acos of the dot product resolves angles only to about 1e-8 rad."""
    if a.coords.size != b.coords.size:
        raise ValueError(f"embedding sizes differ: {a.coords.size} vs {b.coords.size}")
    return 2.0 * math.asin(float(np.linalg.norm(a.coords - b.coords)) / 2.0)


def knn_classify(train, query: SphereEmbedding) -> str:
    """Label of the nearest training embedding; ties go to the earliest.

    train: sequence of (SphereEmbedding, label) pairs.
    """
    pairs = list(train)
    if not pairs:
        raise ValueError("need at least one training embedding")
    distances = np.array([arc_distance(emb, query) for emb, _ in pairs])
    return pairs[int(np.argmin(distances))][1]


@dataclass(frozen=True)
class ClassificationMetrics:
    accuracy: float
    sensitivity: float
    specificity: float
    true_positive: int
    false_negative: int
    true_negative: int
    false_positive: int


def evaluate(pairs, positive_label: str) -> ClassificationMetrics:
    """Binary accuracy, sensitivity, and specificity over (true, predicted)
    label pairs, with the positive class named explicitly.

    Sensitivity is the recall of the positive class, specificity the
    recall of the other class. A class absent from the data leaves its
    recall as NaN.
    """
    pairs = list(pairs)
    if not pairs:
        raise ValueError("need at least one (true, predicted) pair")
    labels = {t for t, _ in pairs} | {p for _, p in pairs}
    others = labels - {positive_label}
    if len(others) > 1:
        raise ValueError(f"expected binary labels around {positive_label!r}, got {sorted(labels)}")
    tp = sum(1 for t, p in pairs if t == positive_label and p == positive_label)
    fn = sum(1 for t, p in pairs if t == positive_label and p != positive_label)
    tn = sum(1 for t, p in pairs if t != positive_label and p != positive_label)
    fp = sum(1 for t, p in pairs if t != positive_label and p == positive_label)
    accuracy = (tp + tn) / len(pairs)
    sensitivity = tp / (tp + fn) if tp + fn > 0 else float("nan")
    specificity = tn / (tn + fp) if tn + fp > 0 else float("nan")
    return ClassificationMetrics(accuracy, sensitivity, specificity, tp, fn, tn, fp)
