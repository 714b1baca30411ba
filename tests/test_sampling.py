"""Random streams, member and Gaussian draws, cloud generation."""

import math

import numpy as np
import pytest

from conftest import assert_moments_close, sample_mixture
from gmmcloud.model import (
    EnsembleMember,
    Gmm,
    GmmEnsemble,
    PointCloud,
)
from gmmcloud.sampling import (
    ensemble_moments,
    generate_point_cloud,
    mixture_moments,
    rng_stream,
    sample_assignments,
)


def uniform_gmm(k, spacing=3.0):
    return Gmm(np.full(k, 1.0 / k), [[spacing * j, 0.0, 0.0] for j in range(k)],
               [np.eye(3)] * k)


# -------------------------------------------------------------- streams


def test_stream_replays_identically():
    a = rng_stream(123, 4).random(10)
    b = rng_stream(123, 4).random(10)
    np.testing.assert_array_equal(a, b)


def test_distinct_streams_differ():
    a = rng_stream(123).random(10)
    b = rng_stream(123, 1).random(10)
    c = rng_stream(124).random(10)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_stream_wraps_large_keys():
    # the Philox key is (seed mod 2**64, stream_id mod 2**64)
    philox = np.random.Philox(key=np.array([5, 3], dtype=np.uint64))
    np.testing.assert_array_equal(rng_stream(2**64 + 5, 3).random(4),
                                  np.random.Generator(philox).random(4))
    np.testing.assert_array_equal(rng_stream(2**64 + 5).random(4), rng_stream(5).random(4))


# ------------------------------------------------------- member draws


def member_draws(probs, seed, n):
    """sample_assignments' member indices for an ensemble whose members
    have the selection probabilities probs."""
    ensemble = GmmEnsemble(tuple(EnsembleMember(p, uniform_gmm(k + 1))
                                 for k, p in enumerate(probs)))
    return sample_assignments(ensemble, n, rng_stream(seed))[0]


def test_categorical_point_mass():
    assert np.all(member_draws([1.0], 0, 100) == 0)


def test_categorical_fair_coin_frequency():
    draws = member_draws([0.5, 0.5], 1, 1_000_000)
    freq = float(np.mean(draws == 0))
    assert 0.498 <= freq <= 0.502


def test_categorical_three_way_frequencies():
    probs = np.array([0.2, 0.3, 0.5])
    n = 1_000_000
    draws = member_draws(probs, 2, n)
    for j, p in enumerate(probs):
        freq = float(np.mean(draws == j))
        sigma = math.sqrt(p * (1.0 - p) / n)
        assert abs(freq - p) < 4.0 * sigma


# ------------------------------------------------------------- gaussian


def single_gaussian(mean, cov):
    return GmmEnsemble.single(Gmm([1.0], [mean], [cov]))


def test_gaussian_draw_moments():
    ensemble = single_gaussian([5.0, 5.0, 5.0], np.eye(3))
    draws = generate_point_cloud(ensemble, 100_000, rng_stream(4)).points
    assert np.max(np.abs(draws.mean(axis=0) - 5.0)) < 0.02


def test_gaussian_draw_variance():
    ensemble = single_gaussian(np.zeros(3), np.diag([4.0, 1.0, 1.0]))
    draws = generate_point_cloud(ensemble, 100_000, rng_stream(5)).points
    var = float(draws[:, 0].var())
    assert 3.8 <= var <= 4.2


# ------------------------------------------------------- cloud sampling


def test_assignment_law_matches_hierarchy():
    # joint (member, component) probabilities are all multiples of 1/8
    ensemble = GmmEnsemble((
        EnsembleMember(0.5, uniform_gmm(2)),
        EnsembleMember(0.5, uniform_gmm(4)),
    ))
    n = 1_000_000
    member_idx, component_idx = sample_assignments(ensemble, n, rng_stream(42))
    for k, member in enumerate(ensemble.members):
        for j, weight in enumerate(member.model.weights):
            p = ensemble.members[k].weight * weight
            freq = float(np.mean((member_idx == k) & (component_idx == j)))
            sigma = math.sqrt(p * (1.0 - p) / n)
            assert abs(freq - p) < 4.0 * sigma, (k, j, freq, p)


def test_assignments_single_member_reduce():
    ensemble = GmmEnsemble.single(uniform_gmm(3))
    member_idx, component_idx = sample_assignments(ensemble, 500, rng_stream(6))
    assert np.all(member_idx == 0)
    assert set(np.unique(component_idx)) <= {0, 1, 2}


def test_assignments_reject_bad_count():
    with pytest.raises(ValueError, match="count"):
        sample_assignments(GmmEnsemble.single(uniform_gmm(1)), 0, rng_stream(0))


def test_generate_is_deterministic_per_stream():
    ensemble = GmmEnsemble.single(uniform_gmm(2))
    one = generate_point_cloud(ensemble, 1, rng_stream(7))
    again = generate_point_cloud(ensemble, 1, rng_stream(7))
    np.testing.assert_array_equal(one.points, again.points)
    assert len(one) == 1
    more = generate_point_cloud(ensemble, 64, rng_stream(7, 1), label="demented")
    assert len(more) == 64
    assert more.label == "demented"


def test_generated_cloud_matches_known_mixture_moments():
    model = Gmm([0.3, 0.7], [[1.0, 0.0, 0.0], [-1.0, 2.0, 0.0]],
                [np.diag([1.0, 2.0, 3.0]), np.eye(3)])
    cloud = generate_point_cloud(GmmEnsemble.single(model), 200_000, rng_stream(8))
    mean, cov = mixture_moments(model)
    assert float(np.linalg.norm(cloud.points.mean(axis=0) - mean)) < 0.02
    diff = cloud.points - cloud.points.mean(axis=0)
    sample_cov = diff.T @ diff / len(cloud)
    assert float(np.linalg.norm(sample_cov - cov)) < 0.05


def test_regenerated_tube_matches_training_moments(fitted_tube):
    cloud, model = fitted_tube
    regen = generate_point_cloud(GmmEnsemble.single(model), 5000, rng_stream(9))
    assert_moments_close(regen.points, cloud.points, rel=0.05)


# --------------------------------------------------------------- moments


def test_mixture_moments_against_oracle_sampling():
    model = Gmm([0.3, 0.7], [[1.0, 0.0, 0.0], [-1.0, 2.0, 0.0]],
                [np.diag([1.0, 2.0, 3.0]), np.eye(3)])
    mean, cov = mixture_moments(model)
    rng = np.random.default_rng(51)
    pts = sample_mixture(rng, 200_000, model.weights, model.means, model.covariances)
    assert float(np.linalg.norm(pts.mean(axis=0) - mean)) < 0.02
    diff = pts - pts.mean(axis=0)
    assert float(np.linalg.norm(diff.T @ diff / pts.shape[0] - cov)) < 0.05


def test_ensemble_moments_blend_members():
    ensemble = GmmEnsemble((
        EnsembleMember(0.25, uniform_gmm(1)),
        EnsembleMember(0.75, uniform_gmm(2, spacing=4.0)),
    ))
    mean, cov = ensemble_moments(ensemble)
    # oracle: expand the ensemble into one flat mixture and reuse the
    # single-mixture moment formula
    members = ensemble.members
    flat = Gmm(np.concatenate([m.weight * m.model.weights for m in members]),
               np.concatenate([m.model.means for m in members]),
               np.concatenate([m.model.covariances for m in members]))
    flat_mean, flat_cov = mixture_moments(flat)
    np.testing.assert_allclose(mean, flat_mean, atol=1e-12)
    np.testing.assert_allclose(cov, flat_cov, atol=1e-12)
