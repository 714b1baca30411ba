"""Reproducible sampling from mixtures and mixture ensembles.

Randomness flows through RngStream, a thin wrapper around numpy's Philox
counter-based bit generator keyed by (seed, stream_id). Constructing the
same stream twice and issuing the same calls replays the same draws bit
for bit, and distinct stream ids give statistically independent streams
under one seed.
"""

from __future__ import annotations

import numpy as np

from .model import Gmm, GmmEnsemble, PointCloud

PROB_SUM_TOL = 1e-9


class RngStream:
    """Deterministic random stream identified by (seed, stream_id)."""

    def __init__(self, seed: int, stream_id: int = 0):
        self.seed = int(seed)
        self.stream_id = int(stream_id)
        key = np.array([self.seed % 2**64, self.stream_id % 2**64], dtype=np.uint64)
        self._generator = np.random.Generator(np.random.Philox(key=key))

    def __repr__(self):
        return f"RngStream(seed={self.seed}, stream_id={self.stream_id})"

    @property
    def generator(self) -> np.random.Generator:
        return self._generator

    def random(self, size=None):
        return self._generator.random(size)

    def standard_normal(self, size=None):
        return self._generator.standard_normal(size)

    def integers(self, high: int, size=None):
        return self._generator.integers(high, size=size)


def _validated_probs(probs) -> np.ndarray:
    p = np.asarray(probs, dtype=float)
    if p.ndim != 1 or p.size < 1:
        raise ValueError(f"probabilities must be a non-empty 1-D array, got shape {p.shape}")
    if not np.all(np.isfinite(p)) or np.any(p < 0.0):
        raise ValueError("probabilities must be finite and non-negative")
    total = float(p.sum())
    if abs(total - 1.0) > PROB_SUM_TOL:
        raise ValueError(f"probabilities sum to {total!r}, expected 1")
    return p


def sample_categorical(probs, rng: RngStream, size: int | None = None):
    """Draw from a categorical distribution by inverse CDF.

    Returns a single int when size is None, else an int array of the
    requested length.
    """
    p = _validated_probs(probs)
    cdf = np.cumsum(p)
    u = rng.random(size)
    idx = np.minimum(np.searchsorted(cdf, u, side="right"), p.size - 1)
    if size is None:
        return int(idx)
    return idx.astype(int)


def sample_assignments(ensemble: GmmEnsemble, n: int, rng: RngStream):
    """Hierarchical index draws for n points: (member_idx, component_idx).

    First a member k with probability p_k, then one of its components j
    with probability w_kj, vectorized over all n points.
    """
    if n < 1:
        raise ValueError(f"sample count must be >= 1, got {n}")
    member_probs = np.array([m.weight for m in ensemble.members])
    member_idx = sample_categorical(member_probs, rng, size=n)
    u = rng.random(n)
    component_idx = np.empty(n, dtype=int)
    for k, member in enumerate(ensemble.members):
        mask = member_idx == k
        cdf = np.cumsum(member.model.weights)
        component_idx[mask] = np.minimum(
            np.searchsorted(cdf, u[mask], side="right"), member.model.k - 1)
    return member_idx, component_idx


def generate_point_cloud(ensemble: GmmEnsemble, n: int, rng: RngStream,
                         label: str | None = None) -> PointCloud:
    """Sample an n-point cloud from an ensemble.

    Identical ensemble and an identically constructed RngStream yield a
    bit-identical cloud.
    """
    member_idx, component_idx = sample_assignments(ensemble, n, rng)
    z = rng.standard_normal((n, 3))
    models = [member.model for member in ensemble.members]
    # one stack over the components of every member, indexed by member
    # offset plus component index
    offsets = np.cumsum([0] + [model.k for model in models[:-1]])
    means = np.concatenate([model.means for model in models])
    chols = np.linalg.cholesky(np.concatenate([model.covariances for model in models]))
    idx = offsets[member_idx] + component_idx
    out = means[idx] + np.einsum("nij,nj->ni", chols[idx], z)
    return PointCloud(out, label=label)


def mixture_moments(model: Gmm) -> tuple[np.ndarray, np.ndarray]:
    """Analytic mean and covariance of a mixture."""
    w = model.weights
    means = model.means
    covs = model.covariances
    mean = w @ means
    second = np.einsum("k,kij->ij", w, covs)
    second += np.einsum("k,ki,kj->ij", w, means, means)
    return mean, second - np.outer(mean, mean)


def ensemble_moments(ensemble: GmmEnsemble) -> tuple[np.ndarray, np.ndarray]:
    """Analytic mean and covariance of the ensemble mixture sum_k p_k f_k."""
    mean = np.zeros(3)
    second = np.zeros((3, 3))
    for member in ensemble.members:
        m, c = mixture_moments(member.model)
        mean += member.weight * m
        second += member.weight * (c + np.outer(m, m))
    return mean, second - np.outer(mean, mean)
