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
    gmm_log_density,
    reduce_through_constructor,
)
from .sampling import rng_stream

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
        probes = np.array(self.probes, dtype=float)
        bounds = np.array(self.bounds, dtype=float)
        if probes.ndim != 2 or probes.shape[1] != 3 or probes.shape[0] < 1:
            raise ValueError(f"probes must be (M, 3) with M >= 1, got shape {probes.shape}")
        if bounds.shape != (2, 3):
            raise ValueError(f"bounds must be (2, 3) lo/hi rows, got shape {bounds.shape}")
        if not (np.all(np.isfinite(probes)) and np.all(np.isfinite(bounds))):
            raise ValueError("probes and bounds must be finite")
        if np.any(probes < bounds[0]) or np.any(probes > bounds[1]):
            raise ValueError("every probe must lie inside the bounds")
        probes.setflags(write=False)
        bounds.setflags(write=False)
        object.__setattr__(self, "probes", probes)
        object.__setattr__(self, "bounds", bounds)
        object.__setattr__(self, "seed", int(self.seed))

    __reduce__ = reduce_through_constructor

    @property
    def count(self) -> int:
        return self.probes.shape[0]


@dataclass(frozen=True, eq=False)
class SphereEmbedding:
    """Unit vector of square-root normalized probe densities."""

    coords: np.ndarray

    def __post_init__(self):
        coords = np.array(self.coords, dtype=float)
        if coords.ndim != 1 or coords.size < 1:
            raise ValueError(f"coords must be a non-empty vector, got shape {coords.shape}")
        if np.any(coords < 0.0) or not np.all(np.isfinite(coords)):
            raise ValueError("coords must be finite and >= 0")
        norm = float(np.linalg.norm(coords))
        if abs(norm - 1.0) > 1e-12:
            raise ValueError(f"coords norm is {norm!r}, expected 1")
        coords.setflags(write=False)
        object.__setattr__(self, "coords", coords)

    __reduce__ = reduce_through_constructor


def inflated_bounds(clouds, margin_fraction: float = INFLATE_FRACTION) -> np.ndarray:
    """Joint bounding box of the clouds, padded per side by a fraction of
    each axis extent. A zero-extent axis is padded half a unit per side."""
    pts = np.vstack([c.points for c in clouds])
    lo = pts.min(axis=0)
    hi = pts.max(axis=0)
    extent = hi - lo
    pad = np.where(extent > 0.0, margin_fraction * extent, DEGENERATE_AXIS_PAD)
    return np.array([lo - pad, hi + pad])


def make_probe_set(clouds, seed: int, count: int = PROBE_COUNT) -> ProbeSet:
    """Uniform probe draws over the inflated joint bounding box."""
    if count < 1:
        raise ValueError(f"probe count must be >= 1, got {count}")
    bounds = inflated_bounds(clouds)
    rng = rng_stream(seed)
    probes = bounds[0] + rng.random((count, 3)) * (bounds[1] - bounds[0])
    return ProbeSet(probes, bounds, seed)


def embedding_from_log_densities(log_density: np.ndarray) -> SphereEmbedding:
    """Normalize probe log-densities and map by square root to the sphere."""
    logp = np.asarray(log_density, dtype=float)
    peak = float(np.max(logp))
    if not math.isfinite(peak):
        raise ValueError("probe set does not cover the model support")
    q = np.exp(logp - peak)
    q = q / q.sum()
    return SphereEmbedding(np.sqrt(q))


def embed(model: Gmm | GmmEnsemble, probes: ProbeSet) -> SphereEmbedding:
    """Embed a mixture, or an ensemble as its flat mixture, through its
    probe density profile."""
    return embedding_from_log_densities(gmm_log_density(probes.probes, model))


def arc_distance(a: SphereEmbedding, b: SphereEmbedding) -> float:
    """Great-circle angle between two embeddings."""
    if a.coords.size != b.coords.size:
        raise ValueError(f"embedding sizes differ: {a.coords.size} vs {b.coords.size}")
    return math.acos(float(np.clip(a.coords @ b.coords, -1.0, 1.0)))


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
