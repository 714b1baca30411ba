"""k-means initialization, E/M steps, and full EM fits."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import (
    RECOVERY_COVS,
    RECOVERY_MEANS,
    RECOVERY_WEIGHTS,
    best_match,
    loop_fit,
    loop_gamma,
    loop_log_densities,
    loop_log_sum_exp_rows,
    loop_m_step,
    recovery_cloud,
    sample_mixture,
)
from gmmcloud import em
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
    PointCloud,
    centred_features,
    covariance_floor,
    feature_log_densities,
    gmm_log_likelihood,
    log_sum_exp_columns,
)
from gmmcloud.sampling import generate_point_cloud, rng_stream
from gmmcloud.shapes import make_bent_tube, tube_spec_for_class


def two_blob_cloud(n_per_blob=50, sigma=0.05, seed=2):
    rng = np.random.default_rng(seed)
    a = rng.normal(scale=sigma, size=(n_per_blob, 3))
    b = np.array([10.0, 10.0, 10.0]) + rng.normal(scale=sigma, size=(n_per_blob, 3))
    return PointCloud(np.vstack([a, b])), a, b


# -------------------------------------------------------------- config


def test_fit_config_defaults():
    config = FitConfig()
    assert em.MAX_ITERATIONS == 200
    assert config.rel_tolerance == 1e-6
    assert em.KMEANS_RESTARTS == 4


@pytest.mark.parametrize("kwargs", [
    dict(rel_tolerance=0.0),
    dict(rel_tolerance=-1e-6),
    dict(rel_tolerance=float("nan")),
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
    model = kmeans_init(cloud, 2, seed=1)
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


def lloyd_reference(pts, centers):
    """Lloyd iterations in their plain form, an (N, K, 3) broadcast and one
    boolean mask per cluster, which em._lloyd must reproduce bit for bit.
    Also returns how many empty clusters stole a point."""
    n, k = pts.shape[0], centers.shape[0]
    assign = np.full(n, -1)
    steals = 0
    for _ in range(em.MAX_LLOYD_ITERATIONS):
        d2 = np.sum((pts[:, None, :] - centers[None, :, :]) ** 2, axis=2)
        new_assign = np.argmin(d2, axis=1)
        counts = np.bincount(new_assign, minlength=k)
        for empty in np.flatnonzero(counts == 0):
            dist_own = d2[np.arange(n), new_assign]
            donors = counts[new_assign] > 1
            pool = np.flatnonzero(donors) if np.any(donors) else np.arange(n)
            moved = pool[int(np.argmax(dist_own[pool]))]
            counts[new_assign[moved]] -= 1
            new_assign[moved] = empty
            counts[empty] += 1
            steals += 1
        if np.array_equal(new_assign, assign):
            break
        assign = new_assign
        for j in range(k):
            members = pts[assign == j]
            if members.shape[0] > 0:
                centers[j] = members.mean(axis=0)
    d2 = np.sum((pts - centers[assign]) ** 2, axis=1)
    return centers, assign, float(d2.sum()), steals


def assert_lloyd_matches_reference(pts, k, seed):
    """em._lloyd and the reference agree bit for bit from one k-means++
    start; returns the reference's steal count."""
    pts = em._sorted_points(pts)
    start = em._kmeans_pp_centers(pts, k, rng_stream(seed))
    centers, assign, wcss = em._lloyd(pts, start.copy())
    ref_centers, ref_assign, ref_wcss, steals = lloyd_reference(pts, start.copy())
    assert centers.tobytes() == ref_centers.tobytes()
    np.testing.assert_array_equal(assign, ref_assign)
    assert wcss.hex() == ref_wcss.hex()
    return steals


def tube_points(seed, n_points=600):
    label = "demented" if seed % 2 else "nondemented"
    return make_bent_tube(tube_spec_for_class(label, n_points=n_points), seed).points


def duplicate_points(distinct, copies):
    rng = np.random.default_rng(distinct)
    return np.repeat(rng.normal(size=(distinct, 3)), copies, axis=0)


STEAL_CASES = [(6, 10, 40), (3, 4, 11), (5, 5, 25)]


@pytest.mark.parametrize("k", [1, 2, 8, 32])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_lloyd_is_bit_identical_to_reference(seed, k):
    assert_lloyd_matches_reference(tube_points(seed), k, seed)


def test_lloyd_is_bit_identical_to_reference_at_larger_n():
    assert_lloyd_matches_reference(tube_points(1, n_points=6000), 8, 1)


@pytest.mark.parametrize("distinct, copies, k", STEAL_CASES)
def test_lloyd_matches_reference_when_clusters_steal(distinct, copies, k):
    # duplicate points make k-means++ repeat centers, which leaves
    # clusters empty until they steal a point
    pts = duplicate_points(distinct, copies)
    steals = sum(assert_lloyd_matches_reference(pts, k, seed) for seed in range(3))
    assert steals > 0


def test_lloyd_breaks_exact_ties_to_the_lowest_index(monkeypatch):
    centers = np.array([[1.0, 0, 0], [-1.0, 0, 0], [0, 1.0, 0], [0, -1.0, 0]])
    # the origin is equidistant from all four centres, the others from two;
    # the last four sit on the centres, so no cluster is empty
    pts = np.vstack([[[0.0, 0, 0], [0.5, 0.5, 0], [-0.5, -0.5, 0], [-0.5, 0.5, 0],
                      [0.5, -0.5, 0]], centers])
    d2 = np.sum((pts[:, None, :] - centers[None, :, :]) ** 2, axis=2)
    ties = np.sum(d2 == d2.min(axis=1, keepdims=True), axis=1)
    assert ties.tolist() == [4, 2, 2, 2, 2, 1, 1, 1, 1]
    # one iteration returns the first assignment
    monkeypatch.setattr(em, "MAX_LLOYD_ITERATIONS", 1)
    _, assign, _ = em._lloyd(pts, centers.copy())
    assert assign.tolist() == [0, 0, 1, 1, 0, 0, 1, 2, 3]
    np.testing.assert_array_equal(assign, np.argmin(d2, axis=1))
    _, ref_assign, _, _ = lloyd_reference(pts, centers.copy())
    np.testing.assert_array_equal(assign, ref_assign)


def kmeans_pp_reference(pts, k, rng):
    """k-means++ seeding in its row form, np.sum((pts - c) ** 2, axis=1),
    which em._kmeans_pp_centers must reproduce bit for bit."""
    n = pts.shape[0]
    centers = np.empty((k, 3))
    centers[0] = pts[int(rng.integers(n))]
    d2 = np.sum((pts - centers[0]) ** 2, axis=1)
    for j in range(1, k):
        total = float(d2.sum())
        if total > 0.0:
            cdf = np.cumsum(d2) / total
            idx = min(int(np.searchsorted(cdf, rng.random(), side="right")), n - 1)
        else:
            idx = int(rng.integers(n))
        centers[j] = pts[idx]
        d2 = np.minimum(d2, np.sum((pts - centers[j]) ** 2, axis=1))
    return centers


def assert_kmeans_pp_matches_reference(pts, k):
    pts = em._sorted_points(pts)
    for seed in range(3):
        rng, ref_rng = rng_stream(seed), rng_stream(seed)
        centers = em._kmeans_pp_centers(pts, k, rng)
        assert centers.tobytes() == kmeans_pp_reference(pts, k, ref_rng).tobytes()
        # both consumed the same draws
        assert rng.random() == ref_rng.random()


@pytest.mark.parametrize("k", [1, 2, 8, 32])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_kmeans_pp_is_bit_identical_to_row_form(seed, k):
    assert_kmeans_pp_matches_reference(tube_points(seed), k)


@pytest.mark.parametrize("distinct, copies, k", STEAL_CASES)
def test_kmeans_pp_matches_row_form_on_duplicate_points(distinct, copies, k):
    assert_kmeans_pp_matches_reference(duplicate_points(distinct, copies), k)


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


@pytest.mark.parametrize("dead_rows", [False, True])
@pytest.mark.parametrize("k", [1, 3, 8, 32])
@pytest.mark.parametrize("seed", [0, 1])
def test_gamma_matches_masked_bits(seed, k, dead_rows):
    # (K, N) layout: one row per component, one column per point
    rng = np.random.default_rng(seed)
    lwd = np.ascontiguousarray(rng.normal(scale=50.0, size=(500, k)).T)
    if k > 1:
        lwd[0] = -np.inf  # a zero-weight component, every column still live
    if dead_rows:
        lwd[:, ::7] = -np.inf
    norm = log_sum_exp_columns(lwd)
    dead = ~np.isfinite(norm)
    live = ~dead
    masked = np.empty_like(lwd)
    masked[:, live] = np.exp(lwd[:, live] - norm[live])
    masked[:, dead] = 1.0 / k
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        gamma, underflow = em._gamma_from_log_densities(lwd, norm)
    assert underflow == (72 if dead_rows else 0)
    assert gamma.tobytes() == masked.tobytes()


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


# --------------------------------------------- moment form vs loop form
#
# The moment form expands (x - mu)^T P (x - mu), so it loses digits as the
# quadratic form grows next to its value. The covariance floor, 1e-6 of
# the data variance, caps P, so on centred points the loss stays within
# about 1e6 ulps of a log-density; the M-step moments lose far less.

ULP = np.finfo(float).eps
LOG_DENSITY_TOL = 1e6 * ULP  # per unit of 1 + |log-density|
MOMENT_TOL = 1e4 * ULP  # relative, on weights, means and covariances
FIT_LL_TOL = 1e7 * ULP  # relative, on a whole fit's final log-likelihood


@pytest.mark.parametrize("n, k", [(600, 2), (600, 8), (600, 32), (6000, 8)])
def test_moment_core_matches_loop_oracle(n, k):
    cloud = make_bent_tube(tube_spec_for_class("demented", n_points=n), seed=3)
    model = fit_em(cloud, k, FitConfig(seed=0)).model
    pts = em._sorted_points(cloud.points)
    centre = pts.mean(axis=0)
    args = (model.weights, model.means - centre, model.covariances)
    oracle = loop_log_densities(pts - centre, *args)
    got = feature_log_densities(centred_features(pts, centre), *args)
    assert np.all(np.abs(got.T - oracle) <= LOG_DENSITY_TOL * (1.0 + np.abs(oracle)))

    gamma = loop_gamma(oracle, loop_log_sum_exp_rows(oracle))
    eps = covariance_floor(pts)
    weights, means, covs = em._m_step_arrays(centred_features(pts, centre),
                                             np.ascontiguousarray(gamma.T), eps)
    ref_weights, ref_means, ref_covs = loop_m_step(pts - centre, gamma, eps)
    spread = math.sqrt(float(np.trace(np.cov(pts.T))))
    assert np.all(np.abs(weights - ref_weights) <= MOMENT_TOL * ref_weights)
    assert np.all(np.abs(means - ref_means) <= MOMENT_TOL * spread)
    gap = np.linalg.norm(covs - ref_covs, axis=(1, 2))
    assert np.all(gap <= MOMENT_TOL * np.linalg.norm(ref_covs, axis=(1, 2)))


def far_cloud(name):
    """Clouds whose scale is small next to their distance from the origin
    or from the rest of the cloud, where the moment form cancels most."""
    tube = make_bent_tube(tube_spec_for_class("demented", n_points=600), seed=0).points
    rng = np.random.default_rng(0)
    if name == "tube_at_1e6":
        return 1e-3 * tube + 1e6
    if name == "tube_at_1e8":
        return 1e-3 * tube + 1e8
    if name == "tight_cluster_at_1e4":
        return np.vstack([rng.normal(size=(540, 3)),
                          1e4 + rng.normal(scale=1e-4, size=(60, 3))])
    return np.vstack([tube, [[1e5, 1e5, 1e5]]])


@pytest.mark.parametrize("k", [2, 8])
@pytest.mark.parametrize("name", ["tube_at_1e6", "tube_at_1e8", "tight_cluster_at_1e4",
                                  "tube_and_far_point"])
def test_fit_far_from_origin_matches_loop_oracle(name, k):
    cloud = PointCloud(far_cloud(name))
    try:
        result = fit_em(cloud, k, FitConfig(seed=0))
    except FitError:
        return  # a clear failure is allowed, a wrong fit is not
    pts = em._sorted_points(cloud.points)
    centre = pts.mean(axis=0)
    start = kmeans_init(cloud, k, seed=0)
    trace = loop_fit(pts - centre, (start.weights, start.means - centre, start.covariances),
                     covariance_floor(pts))
    assert result.iterations == len(trace)
    final = result.log_likelihood_trace[-1]
    assert abs(final - trace[-1]) <= FIT_LL_TOL * abs(trace[-1])


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
    regen = generate_point_cloud(first.model, 2000, rng_stream(5))
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


def test_fit_runs_at_most_max_iterations_m_steps(monkeypatch):
    calls = []
    m_step_arrays = em._m_step_arrays

    def counted(*args):
        calls.append(None)
        return m_step_arrays(*args)

    monkeypatch.setattr(em, "_m_step_arrays", counted)
    cloud = make_bent_tube(tube_spec_for_class("demented", n_points=600), seed=0)
    result = fit_em(cloud, 8, FitConfig(rel_tolerance=1e-300, seed=0))
    assert len(calls) <= em.MAX_ITERATIONS
    assert result.converged or len(calls) == em.MAX_ITERATIONS
    assert result.iterations == len(result.log_likelihood_trace) <= len(calls)
    assert np.all(np.diff(result.log_likelihood_trace) >= -1e-8)


def squarem_states(weights, covariance_scales):
    """Three EM states with fixed means: the given weights and multiples
    of the identity as covariances."""
    means = np.zeros((2, 3))
    return [(np.array(w), means, np.stack([s * np.eye(3)] * 2))
            for w, s in zip(weights, covariance_scales)]


def test_extrapolate_takes_a_feasible_step():
    states = squarem_states([[0.5, 0.5], [0.45, 0.55], [0.42, 0.58]], [1.0, 1.1, 1.15])
    # |r|^2 = 2 * 0.05^2 + 6 * 0.1^2, |v|^2 = 2 * 0.02^2 + 6 * 0.05^2
    alpha, _ = em._extrapolate(*states, step_max=4.0)
    assert alpha == pytest.approx(math.sqrt(0.065 / 0.0158))
    alpha, moved = em._extrapolate(*states, step_max=2.0)
    assert alpha == 2.0
    # theta0 + 4 r + 4 v
    np.testing.assert_allclose(moved[0], [0.38, 0.62])
    np.testing.assert_allclose(moved[2], np.stack([1.2 * np.eye(3)] * 2))
    # a step no longer than 1 is theta2 itself: nothing to extrapolate
    assert em._extrapolate(*states, step_max=1.0) == (1.0, None)


def test_extrapolate_rejects_negative_weights():
    # v = 0, so alpha = step_max and theta' = theta0 + 2 alpha r
    states = squarem_states([[0.5, 0.5], [0.4, 0.6], [0.3, 0.7]], [1.0, 1.0, 1.0])
    alpha, moved = em._extrapolate(*states, step_max=4.0)
    assert alpha == 4.0 and moved is None


def test_extrapolate_rejects_non_spd_covariances():
    states = squarem_states([[0.5, 0.5]] * 3, [1.0, 0.9, 0.8])
    alpha, moved = em._extrapolate(*states, step_max=16.0)
    assert alpha == 16.0 and moved is None


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
