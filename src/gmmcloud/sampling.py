"""Reproducible sampling from mixtures and mixture ensembles.

Randomness flows through numpy Generators from rng_stream, which keys
numpy's Philox counter-based bit generator by (seed, stream_id).
Building the same stream twice and issuing the same calls replays the
same draws bit for bit, and distinct stream ids give statistically
independent streams under one seed. A draw reads the eigendecomposition
that the mixture keeps from its validation (Gmm.factor), so sampling
runs no eigh and validates nothing again.
"""

from __future__ import annotations

import numpy as np

from .model import Gmm, GmmEnsemble, PointCloud, flat_mixture


def rng_stream(seed: int, stream_id: int = 0) -> np.random.Generator:
    """The random stream identified by (seed, stream_id), each taken
    modulo 2**64 as one word of the Philox key."""
    key = np.array([int(seed) % 2**64, int(stream_id) % 2**64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def generate_point_cloud(model: Gmm | GmmEnsemble, n: int, rng: np.random.Generator,
                         label: str | None = None) -> PointCloud:
    """Sample an n-point cloud from a mixture or an ensemble.

    Each point takes component j of the flat mixture (flat_mixture) with
    probability w_j, by inverse CDF over all n points at once, then the
    draw mu_j + q_j diag(sqrt(lam_j)) z through the factor (lam, q) that
    the mixture keeps from its validation (Gmm.factor).
    Identical models and identically built streams give bit-identical clouds.
    """
    if n < 1:
        raise ValueError(f"sample count must be >= 1, got {n}")
    weights, means, _, (lam, q) = flat_mixture(model)
    # a draw at or above the second-to-last cumulative weight takes the
    # last component, also where the flat weights sum to just below one
    idx = np.searchsorted(np.cumsum(weights)[:-1], rng.random(n), side="right")
    z = rng.standard_normal((n, 3))
    out = means[idx] + np.einsum("nij,nj->ni", q[idx], np.sqrt(lam)[idx] * z)
    return PointCloud(out, label=label)
