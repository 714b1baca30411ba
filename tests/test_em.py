"""k-means initialization, E/M steps, and full EM fits."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import (
    RECOVERY_COVS,
    RECOVERY_MEANS,
    RECOVERY_WEIGHTS,
    best_match,
    recovery_cloud,
    sample_mixture,
)
from gmmcloud.em import (
    FitConfig,
    FitError,
    Responsibilities,
    e_step,
    fit_em,
    kmeans_init,
    m_step,
)
from gmmcloud.model import (
    Gmm,
    GmmEnsemble,
    PointCloud,
    covariance_floor,
    gmm_log_likelihood,
)
from gmmcloud.sampling import RngStream, generate_point_cloud


def two_blob_cloud(n_per_blob=50, sigma=0.05, seed=2):
    rng = np.random.default_rng(seed)
    a = rng.normal(scale=sigma, size=(n_per_blob, 3))
    b = np.array([10.0, 10.0, 10.0]) + rng.normal(scale=sigma, size=(n_per_blob, 3))
    return PointCloud(np.vstack([a, b])), a, b


# -------------------------------------------------------------- config


def test_fit_config_defaults():
    config = FitConfig()
    assert config.max_iterations == 200
    assert config.rel_tolerance == 1e-6
    assert config.kmeans_restarts == 4


@pytest.mark.parametrize("kwargs", [
    dict(max_iterations=0),
    dict(rel_tolerance=0.0),
    dict(rel_tolerance=-1e-6),
    dict(kmeans_restarts=0),
])
def test_fit_config_rejects_bad_values(kwargs):
    with pytest.raises(ValueError):
        FitConfig(**kwargs)


def test_responsibilities_validation():
    Responsibilities(np.array([[0.5, 0.5], [1.0, 0.0]]))
    with pytest.raises(ValueError, match="sum"):
        Responsibilities(np.array([[0.6, 0.5]]))
    with pytest.raises(ValueError):
        Responsibilities(np.array([[1.2, -0.2]]))


# ------------------------------------------------------------- k-means


def test_kmeans_degenerate_single_cluster():
    cloud = PointCloud(np.ones((3, 3)))
    model = kmeans_init(cloud, 1, seed=0)
    assert model.weights[0] == 1.0
    np.testing.assert_allclose(model.means[0], np.ones(3), atol=1e-15)
    np.testing.assert_allclose(model.covariances[0], 1e-12 * np.eye(3), atol=1e-24)


def test_kmeans_two_blobs_exact_split():
    cloud, a, b = two_blob_cloud()
    model = kmeans_init(cloud, 2, seed=1, restarts=4)
    assert sorted(model.weights.tolist()) == [0.5, 0.5]
    blob_means = np.array([a.mean(axis=0), b.mean(axis=0)])
    perm = best_match(model.means, blob_means)
    matched = model.means[list(perm)]
    # separation guarantees the centroids are the per-blob sample means
    np.testing.assert_allclose(matched, blob_means, atol=1e-9)
    standard_error = 0.05 / math.sqrt(50)
    centers = np.array([[0.0, 0.0, 0.0], [10.0, 10.0, 10.0]])
    assert np.max(np.abs(matched - centers)) < 3.0 * standard_error


def test_kmeans_one_point_per_cluster():
    rng = np.random.default_rng(4)
    pts = rng.normal(size=(6, 3))
    cloud = PointCloud(pts)
    model = kmeans_init(cloud, 6, seed=0)
    eps = covariance_floor(pts)
    for weight, cov in zip(model.weights, model.covariances):
        assert weight == 1.0 / 6.0
        np.testing.assert_allclose(cov, eps * np.eye(3), rtol=1e-9, atol=1e-18)
    np.testing.assert_allclose(np.sort(model.means, axis=0), np.sort(pts, axis=0),
                               atol=1e-15)


def test_kmeans_rejects_more_components_than_points():
    cloud = PointCloud(np.zeros((2, 3)))
    with pytest.raises(ValueError, match="more components than points"):
        kmeans_init(cloud, 3, seed=0)
    with pytest.raises(ValueError):
        kmeans_init(cloud, 0, seed=0)


# -------------------------------------------------------------- E step


def test_e_step_single_component_is_certain():
    cloud = PointCloud(np.random.default_rng(0).normal(size=(20, 3)))
    model = Gmm([1.0], np.zeros((1, 3)), np.eye(3)[None])
    resp = e_step(cloud, model)
    assert np.array_equal(resp.gamma, np.ones((20, 1)))
    assert resp.underflow_rows == 0


def test_e_step_identical_components_split_evenly():
    cloud = PointCloud(np.random.default_rng(1).normal(size=(15, 3)))
    model = Gmm([0.5, 0.5], [[1.0, -2.0, 0.5]] * 2, [np.diag([1.0, 2.0, 0.5])] * 2)
    resp = e_step(cloud, model)
    np.testing.assert_allclose(resp.gamma, 0.5, atol=1e-15)


def test_e_step_equidistant_point():
    model = Gmm([0.5, 0.5], [[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]], [np.eye(3)] * 2)
    resp = e_step(PointCloud(np.array([[0.0, 5.0, -3.0]])), model)
    np.testing.assert_allclose(resp.gamma, [[0.5, 0.5]], atol=1e-12)


def test_e_step_underflow_goes_uniform():
    model = Gmm([0.5, 0.5], [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]], [np.eye(3)] * 2)
    cloud = PointCloud(np.array([[0.0, 0.0, 0.0], [1e200, 0.0, 0.0]]))
    resp = e_step(cloud, model)
    assert resp.underflow_rows == 1
    np.testing.assert_allclose(resp.gamma[1], [0.5, 0.5], atol=0)
    np.testing.assert_allclose(resp.gamma.sum(axis=1), 1.0, atol=1e-9)


@given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 4))
def test_e_step_rows_sum_to_one(seed, k):
    rng = np.random.default_rng(seed)
    cloud = PointCloud(rng.normal(scale=3.0, size=(rng.integers(1, 40), 3)))
    w = rng.dirichlet(np.ones(k))
    # draw order per component: its mean, then its covariance
    means, covs = zip(*((rng.normal(scale=2.0, size=3), np.diag(rng.uniform(0.2, 2.0, size=3)))
                        for _ in range(k)))
    model = Gmm(w, means, covs)
    resp = e_step(cloud, model)
    assert np.max(np.abs(resp.gamma.sum(axis=1) - 1.0)) < 1e-9
    assert np.all(resp.gamma >= 0.0) and np.all(resp.gamma <= 1.0)


# -------------------------------------------------------------- M step


def test_m_step_all_ones_is_single_gaussian_mle():
    rng = np.random.default_rng(3)
    pts = rng.normal(scale=2.0, size=(40, 3))
    cloud = PointCloud(pts)
    model = m_step(cloud, Responsibilities(np.ones((40, 1))))
    assert model.weights[0] == 1.0
    np.testing.assert_allclose(model.means[0], pts.mean(axis=0), atol=1e-12)
    diff = pts - pts.mean(axis=0)
    np.testing.assert_allclose(model.covariances[0], diff.T @ diff / 40, atol=1e-12)


def test_m_step_hard_assignment_gives_cluster_moments():
    cloud, a, b = two_blob_cloud()
    gamma = np.zeros((100, 2))
    gamma[:50, 0] = 1.0
    gamma[50:, 1] = 1.0
    model = m_step(cloud, Responsibilities(gamma))
    for weight, mean, cov, members in zip(model.weights, model.means, model.covariances,
                                          (a, b)):
        assert weight == 0.5
        np.testing.assert_allclose(mean, members.mean(axis=0), atol=1e-12)
        diff = members - members.mean(axis=0)
        np.testing.assert_allclose(cov, diff.T @ diff / 50, atol=1e-12)


def test_m_step_soft_responsibilities_match_weighted_moments():
    rng = np.random.default_rng(8)
    pts = rng.normal(scale=2.0, size=(10, 3))
    gamma = rng.dirichlet(np.ones(2), size=10)
    model = m_step(PointCloud(pts), Responsibilities(gamma))
    for j in range(model.k):
        mass = gamma[:, j].sum()
        assert math.isclose(model.weights[j], mass / 10.0, rel_tol=1e-12)
        mean = gamma[:, j] @ pts / mass
        np.testing.assert_allclose(model.means[j], mean, atol=1e-12)
        diff = pts - mean
        cov = (gamma[:, j][:, None] * diff).T @ diff / mass
        np.testing.assert_allclose(model.covariances[j], cov, atol=1e-12)


def test_m_step_reseeds_collapsed_component():
    rng = np.random.default_rng(13)
    pts = rng.normal(size=(12, 3))
    pts[4] = [9.0, -9.0, 9.0]  # clearly the worst-explained point
    gamma = np.zeros((12, 2))
    gamma[:, 0] = 1.0
    model = m_step(PointCloud(pts), Responsibilities(gamma))
    assert math.isclose(float(model.weights.sum()), 1.0, abs_tol=1e-12)
    assert model.weights[1] > 0.0
    np.testing.assert_allclose(model.means[1], pts[4], atol=1e-12)
    data_cov = np.cov(pts.T, ddof=0)
    np.testing.assert_allclose(model.covariances[1], data_cov, atol=1e-10)


def test_m_step_shape_mismatch():
    with pytest.raises(ValueError, match="points"):
        m_step(PointCloud(np.zeros((3, 3))), Responsibilities(np.ones((2, 1))))


@given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 4))
def test_m_step_weights_sum_to_one(seed, k):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 30))
    pts = rng.normal(scale=2.0, size=(n, 3))
    gamma = rng.dirichlet(np.ones(k), size=n)
    model = m_step(PointCloud(pts), Responsibilities(gamma))
    assert abs(math.fsum(model.weights.tolist()) - 1.0) < 1e-12


# ------------------------------------------------------------- full EM


def test_fit_recovers_two_component_mixture():
    cloud = recovery_cloud(n=5000, seed=11)
    result = fit_em(cloud, 2, FitConfig(seed=0))
    assert result.converged
    perm = best_match(result.model.means, RECOVERY_MEANS)
    for j, p in enumerate(perm):
        model = result.model
        assert float(np.linalg.norm(model.means[p] - RECOVERY_MEANS[j])) < 0.1
        assert abs(model.weights[p] - RECOVERY_WEIGHTS[j]) < 0.03
        assert float(np.linalg.norm(model.covariances[p] - RECOVERY_COVS[j])) < 0.15


def test_fit_is_self_consistent():
    rng = np.random.default_rng(19)
    pts = sample_mixture(rng, 800, RECOVERY_WEIGHTS, RECOVERY_MEANS, RECOVERY_COVS)
    first = fit_em(PointCloud(pts), 2, FitConfig(seed=0))
    regen = generate_point_cloud(GmmEnsemble.single(first.model), 2000, RngStream(5, 0))
    refit = fit_em(regen, 2, FitConfig(seed=0))
    per_point_gap = abs(gmm_log_likelihood(regen, refit.model)
                        - gmm_log_likelihood(regen, first.model)) / len(regen)
    assert per_point_gap < 0.05


def test_fit_single_component_is_sample_moments():
    rng = np.random.default_rng(23)
    pts = rng.normal(scale=1.5, size=(60, 3))
    result = fit_em(PointCloud(pts), 1, FitConfig(seed=0))
    assert result.converged
    assert result.iterations <= 2
    np.testing.assert_allclose(result.model.means[0], pts.mean(axis=0), atol=1e-10)
    diff = pts - pts.mean(axis=0)
    np.testing.assert_allclose(result.model.covariances[0], diff.T @ diff / 60, atol=1e-10)


def test_fit_trace_is_monotone():
    cloud = recovery_cloud(n=600, seed=29)
    for k in (1, 2, 4):
        result = fit_em(cloud, k, FitConfig(seed=1))
        trace = np.array(result.log_likelihood_trace)
        assert trace.size == result.iterations
        assert np.all(np.diff(trace) >= -1e-8)


def test_fit_is_permutation_equivariant():
    rng = np.random.default_rng(31)
    pts = sample_mixture(rng, 200, RECOVERY_WEIGHTS, RECOVERY_MEANS, RECOVERY_COVS)
    config = FitConfig(seed=7)
    direct = fit_em(PointCloud(pts), 3, config)
    shuffled = fit_em(PointCloud(pts[rng.permutation(200)]), 3, config)
    np.testing.assert_array_equal(direct.model.weights, shuffled.model.weights)
    np.testing.assert_array_equal(direct.model.means, shuffled.model.means)
    np.testing.assert_array_equal(direct.model.covariances, shuffled.model.covariances)


def test_fit_rejects_bad_component_counts():
    cloud = PointCloud(np.zeros((4, 3)))
    with pytest.raises(ValueError, match="more components than points"):
        fit_em(cloud, 5, FitConfig(seed=0))
    with pytest.raises(ValueError):
        fit_em(cloud, 0, FitConfig(seed=0))


def test_fit_error_type_exists():
    assert issubclass(FitError, RuntimeError)
