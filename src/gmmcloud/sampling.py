"""Reproducible sampling from mixtures and mixture ensembles.

Randomness flows through numpy Generators from rng_stream, which keys
numpy's Philox counter-based bit generator by (seed, stream_id).
Building the same stream twice and issuing the same calls replays the
same draws bit for bit, and distinct stream ids give statistically
independent streams under one seed.
"""

from __future__ import annotations

import numpy as np

from .model import Gmm, GmmEnsemble, PointCloud


def rng_stream(seed: int, stream_id: int = 0) -> np.random.Generator:
    """The random stream identified by (seed, stream_id), each taken
    modulo 2**64 as one word of the Philox key."""
    key = np.array([int(seed) % 2**64, int(stream_id) % 2**64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def sample_assignments(ensemble: GmmEnsemble, n: int, rng: np.random.Generator):
    """Hierarchical index draws for n points: (member_idx, component_idx).

    First a member k with probability p_k, then one of its components j
    with probability w_kj, each by inverse CDF and vectorized over all n
    points.
    """
    if n < 1:
        raise ValueError(f"sample count must be >= 1, got {n}")
    members = ensemble.members
    member_cdf = np.cumsum([m.weight for m in members])
    member_idx = np.minimum(np.searchsorted(member_cdf, rng.random(n), side="right"),
                            len(members) - 1)
    u = rng.random(n)
    component_idx = np.empty(n, dtype=int)
    for k, member in enumerate(members):
        mask = member_idx == k
        cdf = np.cumsum(member.model.weights)
        component_idx[mask] = np.minimum(
            np.searchsorted(cdf, u[mask], side="right"), member.model.k - 1)
    return member_idx, component_idx


def generate_point_cloud(ensemble: GmmEnsemble, n: int, rng: np.random.Generator,
                         label: str | None = None) -> PointCloud:
    """Sample an n-point cloud from an ensemble.

    Identical ensemble and an identically built stream yield a
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
