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

import math

import numpy as np

from .model import Gmm, GmmEnsemble, PointCloud, flat_mixture


def is_integer(value) -> bool:
    """Whether value is an int or a NumPy integer, not a bool: the rule
    for seeds, stream ids, counts and component counts."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def checked_integer(name: str, value, least: int | None = None) -> int:
    """value as an int, if is_integer holds and it is at least least
    (when given); otherwise ValueError naming it."""
    if not is_integer(value):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if least is not None and value < least:
        raise ValueError(f"{name} must be >= {least}, got {value}")
    return int(value)


def is_real(value) -> bool:
    """Whether value is an int, a float or a NumPy integer or float, not
    a bool: the rule for real arguments."""
    return is_integer(value) or isinstance(value, (float, np.floating))


def checked_real(name: str, value, least: float | None = None) -> float:
    """value as a float, if is_real holds, it is finite and it is at
    least least (when given); otherwise ValueError naming it."""
    if not (is_real(value) and math.isfinite(value)):
        raise ValueError(f"{name} must be a finite number, got {value!r}")
    if least is not None and value < least:
        raise ValueError(f"{name} must be >= {least}, got {value}")
    return float(value)


def rng_stream(seed: int, stream_id: int = 0) -> np.random.Generator:
    """The random stream identified by (seed, stream_id), each an integer
    (checked_integer) taken modulo 2**64 as one word of the Philox key."""
    key = np.array([checked_integer("seed", seed) % 2**64,
                    checked_integer("stream id", stream_id) % 2**64], dtype=np.uint64)
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
    n = checked_integer("sample count", n, 1)
    weights, means, (lam, q) = flat_mixture(model)
    # a draw at or above the second-to-last cumulative weight takes the
    # last component, also where the flat weights sum to just below one
    idx = np.searchsorted(np.cumsum(weights)[:-1], rng.random(n), side="right")
    z = rng.standard_normal((n, 3))
    out = means[idx] + np.einsum("nij,nj->ni", q[idx], np.sqrt(lam)[idx] * z)
    return PointCloud(out, label=label)
