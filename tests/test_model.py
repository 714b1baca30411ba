"""Core types and density evaluation against analytic oracles."""

import dataclasses
import math
import warnings
import pickle

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.linalg import solve_triangular
from scipy.special import logsumexp

from conftest import (
    near_singular_spd,
    random_gmm,
    random_rotation,
    random_spd,
    sample_mixture,
    unit_gmm,
)
from gmmcloud.em import Responsibilities
from gmmcloud.embedding import SphereEmbedding, embed, make_probe_set
from gmmcloud.geodesics import spd_geodesic
from gmmcloud.model import (
    LOG_TWO_PI,
    DegenerateCovarianceError,
    EnsembleMember,
    Gmm,
    GmmEnsemble,
    WEIGHT_SUM_TOL,
    PointCloud,
    covariance_floor,
    ensemble_log_density,
    floor_spd,
    gmm_log_density,
    gmm_log_likelihood,
    softmax_columns,
    weighted_log_densities,
)
from gmmcloud.sampling import generate_point_cloud, rng_stream

STANDARD_PEAK = (2.0 * math.pi) ** -1.5


def gaussian_log_density(points, mean, cov):
    """Log density of N(mean, cov) at each row of points, one Gaussian
    through its Cholesky factor: the per-component reference for the
    stacked densities of gmmcloud.model."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    chol = np.linalg.cholesky(cov)
    diff = pts - np.asarray(mean, dtype=float)
    y = solve_triangular(chol, diff.T, lower=True)
    maha = np.einsum("ij,ij->j", y, y)
    log_det = 2.0 * float(np.sum(np.log(np.diag(chol))))
    return -0.5 * (3.0 * LOG_TWO_PI + log_det + maha)


def gmm_density(x, model):
    """Mixture density at a single point, sum_j w_j f_j(x), summed one
    component at a time."""
    x = np.asarray(x, dtype=float).reshape(1, 3)
    return float(math.fsum(
        w * float(np.exp(gaussian_log_density(x, m, c)[0]))
        for w, m, c in zip(model.weights.tolist(), model.means, model.covariances)
    ))


def density(x, mean, cov):
    """Density of N(mean, cov) at the single point x."""
    return float(np.exp(gaussian_log_density(np.reshape(x, (1, 3)), mean, cov)[0]))


def univariate(x, mu, var):
    return math.exp(-0.5 * (x - mu) ** 2 / var) / math.sqrt(2.0 * math.pi * var)


# ---------------------------------------------------------------- types


def test_point_cloud_holds_points_and_label():
    cloud = PointCloud(np.array([[0.0, 0.0, 0.0], [1.0, 2.0, 3.0]]), label="demented")
    assert cloud.n == 2
    assert len(cloud) == 2
    assert cloud.label == "demented"
    assert not cloud.points.flags.writeable


@pytest.mark.parametrize("bad", [
    np.zeros((0, 3)),
    np.zeros((4, 2)),
    np.zeros(3),
    np.array([[0.0, np.nan, 0.0]]),
    np.array([[0.0, np.inf, 0.0]]),
])
def test_point_cloud_rejects_bad_input(bad):
    with pytest.raises(ValueError):
        PointCloud(bad)


def test_component_rejects_negative_weight():
    with pytest.raises(ValueError, match="weight"):
        Gmm([-0.1, 1.1], np.zeros((2, 3)), np.stack([np.eye(3)] * 2))


def test_component_allows_zero_weight():
    assert unit_gmm((0.0, 1.0), np.zeros((2, 3))).weights[0] == 0.0


def test_component_symmetrizes_tiny_asymmetry():
    cov = np.eye(3)
    cov[0, 1] = 1e-13
    model = Gmm([1.0], np.zeros((1, 3)), cov[None])
    assert np.array_equal(model.covariances[0], model.covariances[0].T)


def test_component_rejects_large_asymmetry():
    cov = np.eye(3)
    cov[0, 1] = 1e-6
    with pytest.raises(DegenerateCovarianceError, match="asymmetry"):
        Gmm([1.0], np.zeros((1, 3)), cov[None])


def test_component_rejects_non_spd_with_eigenvalue():
    with pytest.raises(DegenerateCovarianceError, match="degenerate covariance"):
        Gmm([1.0], np.zeros((1, 3)), np.diag([1.0, 1.0, 0.0])[None])


def test_gmm_requires_normalized_weights():
    pair = ((0, 0, 0), (1, 0, 0))
    good = unit_gmm((0.5, 0.5), pair)
    assert good.k == 2
    with pytest.raises(ValueError, match="sum"):
        unit_gmm((0.5, 0.6), pair)


def test_gmm_weight_tolerance_is_tight():
    eps = 2e-9
    pair = ((0, 0, 0), (1, 0, 0))
    with pytest.raises(ValueError):
        unit_gmm((0.5, 0.5 + eps), pair)
    unit_gmm((0.5, 0.5 + 4e-10), pair)


def stacked_arrays(k=3):
    weights = np.full(k, 1.0 / k)
    means = np.arange(3.0 * k).reshape(k, 3)
    covs = np.stack([np.diag([1.0, 2.0, 3.0])] * k)
    return weights, means, covs


def test_gmm_from_arrays_matches_components():
    weights, means, covs = stacked_arrays()
    model = Gmm(weights, means, covs)
    assert model.k == 3
    for arr, expected in ((model.weights, weights), (model.means, means),
                          (model.covariances, covs)):
        np.testing.assert_array_equal(arr, expected)
        assert not arr.flags.writeable


def _not_spd_at_one(covs):
    covs = covs.copy()
    covs[1] = np.diag([1.0, 0.0, 1.0])
    return covs


@pytest.mark.parametrize("change, error, match", [
    (lambda w, m, c: (w, m[:, :2], c), ValueError, "means"),
    (lambda w, m, c: (w, m, c[:-1]), ValueError, "covariances"),
    (lambda w, m, c: (w + 2.0 * WEIGHT_SUM_TOL, m, c), ValueError, "sum"),
    (lambda w, m, c: (w, m, _not_spd_at_one(c)), DegenerateCovarianceError,
     r"degenerate covariance.*\(component 1\)"),
], ids=["means-k-by-2", "covariances-k-minus-1", "weight-sum", "one-not-spd"])
def test_gmm_from_arrays_rejects_bad_input(change, error, match):
    with pytest.raises(error, match=match):
        Gmm(*change(*stacked_arrays()))


def test_gmm_array_views():
    model = random_gmm(np.random.default_rng(0), 3)
    assert model.weights.shape == (3,)
    assert model.means.shape == (3, 3)
    assert model.covariances.shape == (3, 3, 3)
    assert math.isclose(float(model.weights.sum()), 1.0, abs_tol=1e-12)


# one small instance of each frozen type that holds arrays
ARRAY_TYPES = pytest.mark.parametrize("make", [
    lambda: random_gmm(np.random.default_rng(0), 3),
    lambda: PointCloud(np.eye(3), label="demented"),
    lambda: make_probe_set([PointCloud(np.eye(3))], seed=0, count=8),
    lambda: SphereEmbedding(np.full(4, 0.5)),
    lambda: Responsibilities(np.array([[0.25, 0.75], [1.0, 0.0]]), 1),
], ids=["Gmm", "PointCloud", "ProbeSet", "SphereEmbedding", "Responsibilities"])


@ARRAY_TYPES
def test_pickle_round_trip_keeps_arrays_read_only(make):
    original = make()
    copy = pickle.loads(pickle.dumps(original))
    assert type(copy) is type(original)
    for f in dataclasses.fields(original):
        got, expected = getattr(copy, f.name), getattr(original, f.name)
        if isinstance(expected, np.ndarray):
            np.testing.assert_array_equal(got, expected)
            assert not got.flags.writeable, f.name
        else:
            assert got == expected


@ARRAY_TYPES
def test_array_types_hash_and_compare_by_identity(make):
    a, b = make(), make()
    assert isinstance(hash(a), int)
    assert {a: 1}[a] == 1
    assert (a == a) is True
    assert (a == b) is False
    assert (a != b) is True


def test_ensembles_hash_through_their_members():
    model = random_gmm(np.random.default_rng(0), 3)
    member = EnsembleMember(1.0, model)
    ensemble = GmmEnsemble((member,))
    assert hash(member) == hash(EnsembleMember(1.0, model))
    assert hash(ensemble) == hash(GmmEnsemble((EnsembleMember(1.0, model),)))
    assert ensemble == GmmEnsemble((EnsembleMember(1.0, model),))
    other = random_gmm(np.random.default_rng(0), 3)
    assert (ensemble == GmmEnsemble((EnsembleMember(1.0, other),))) is False


def test_ensemble_requires_distinct_component_counts():
    m1 = unit_gmm()
    m2 = unit_gmm((0.5, 0.5), ((0, 0, 0), (1, 0, 0)))
    GmmEnsemble((EnsembleMember(0.3, m1), EnsembleMember(0.7, m2)))
    with pytest.raises(ValueError, match="distinct"):
        GmmEnsemble((EnsembleMember(0.3, m1), EnsembleMember(0.7, m1)))


def test_ensemble_requires_positive_normalized_weights():
    m1 = unit_gmm()
    with pytest.raises(ValueError):
        EnsembleMember(0.0, m1)
    with pytest.raises(ValueError, match="sum"):
        GmmEnsemble((EnsembleMember(0.5, m1),))


# ------------------------------------------------------------- densities


def test_standard_density_at_mean():
    d = density(np.zeros(3), np.zeros(3), np.eye(3))
    assert math.isclose(d, STANDARD_PEAK, rel_tol=1e-13)
    assert abs(d - 0.0634936) < 1e-7


def test_standard_density_at_unit_displacement():
    d = density(np.array([1.0, 0.0, 0.0]), np.zeros(3), np.eye(3))
    assert math.isclose(d, STANDARD_PEAK * math.exp(-0.5), rel_tol=1e-13)
    assert abs(d - 0.0385108) < 1e-7


def test_diagonal_density_matches_univariate_product():
    d = density(np.array([1.0, 2.0, 3.0]), np.array([0.0, 1.0, 1.0]), np.diag([1.0, 2.0, 4.0]))
    oracle = univariate(1, 0, 1) * univariate(2, 1, 2) * univariate(3, 1, 4)
    assert math.isclose(d, oracle, rel_tol=1e-13)


def test_density_rejects_degenerate_covariance():
    with pytest.raises(DegenerateCovarianceError, match="degenerate covariance"):
        weighted_log_densities(np.zeros((1, 3)), np.ones(1), np.zeros((1, 3)),
                               np.diag([1.0, 1.0, 0.0])[None])


def test_density_rejects_nan_covariance():
    # np.linalg.cholesky does not raise on a NaN; a NaN eigenvalue is not > 0
    covs = np.stack([np.eye(3)] * 2)
    covs[1, 0, 0] = np.nan
    with pytest.raises(DegenerateCovarianceError,
                       match=r"^covariance must be finite \(component 1\)$"):
        weighted_log_densities(np.zeros((4, 3)), np.array([0.5, 0.5]), np.zeros((2, 3)), covs)


@pytest.mark.parametrize("seed", range(4))
def test_near_singular_covariance_is_rejected_or_usable(seed):
    # the eigenvalues that validate a covariance are the ones its
    # consumers use: a mixture Gmm accepts scores, embeds, samples and
    # walks the geodesic from the identity without NaN, and one it rejects
    # names the component
    rng = np.random.default_rng(seed)
    points = rng.normal(size=(50, 3))
    probes = make_probe_set([PointCloud(points)], seed=0, count=64)
    for case in range(60):
        covs = np.stack([np.eye(3), near_singular_spd(rng)])
        try:
            model = Gmm([0.5, 0.5], np.zeros((2, 3)), covs)
        except DegenerateCovarianceError as exc:
            assert str(exc).endswith("(component 1)"), str(exc)
            continue
        assert not np.isnan(gmm_log_density(points, model)).any()
        assert not np.isnan(embed(model, probes).coords).any()
        assert not np.isnan(generate_point_cloud(model, 100, rng_stream(case)).points).any()
        assert np.all(np.isfinite(spd_geodesic(np.eye(3), model.covariances[1], 0.5)))


def test_rotation_invariance():
    rng = np.random.default_rng(7)
    for _ in range(20):
        rot = random_rotation(rng)
        mean = rng.normal(size=3)
        cov = random_spd(rng)
        x = rng.normal(size=3)
        d = density(x, mean, cov)
        d_rot = density(rot @ x, rot @ mean, rot @ cov @ rot.T)
        assert math.isclose(d, d_rot, rel_tol=1e-10)


def test_single_component_mixture_reduces():
    model = unit_gmm()
    x = np.array([0.3, -0.2, 1.1])
    assert gmm_density(x, model) == density(x, model.means[0], model.covariances[0])


def test_symmetric_two_component_mixture():
    model = unit_gmm((0.5, 0.5), ((1.0, 0.0, 0.0), (-1.0, 0.0, 0.0)))
    d = gmm_density(np.zeros(3), model)
    assert math.isclose(d, STANDARD_PEAK * math.exp(-0.5), rel_tol=1e-13)
    assert abs(d - 0.0385108) < 1e-7


def test_mixture_density_matches_termwise_sum():
    rng = np.random.default_rng(3)
    model = random_gmm(rng, 3)
    for _ in range(10):
        x = rng.normal(scale=3.0, size=3)
        oracle = math.fsum(w * density(x, m, c) for w, m, c in
                           zip(model.weights, model.means, model.covariances))
        assert math.isclose(gmm_density(x, model), oracle, rel_tol=1e-12)


@given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 5))
def test_mixture_density_is_permutation_invariant(seed, k):
    rng = np.random.default_rng(seed)
    model = random_gmm(rng, k)
    perm = rng.permutation(k)
    shuffled = Gmm(model.weights[perm], model.means[perm], model.covariances[perm])
    x = rng.normal(scale=3.0, size=3)
    assert gmm_density(x, model) == gmm_density(x, shuffled)


def test_log_likelihood_of_point_at_mean():
    cloud = PointCloud(np.zeros((1, 3)))
    ll = gmm_log_likelihood(cloud, unit_gmm())
    assert math.isclose(ll, -1.5 * math.log(2.0 * math.pi), rel_tol=1e-13)
    assert abs(ll - (-2.7568)) < 1e-4


def test_log_likelihood_doubles_for_duplicated_cloud():
    model = random_gmm(np.random.default_rng(5), 2)
    single = PointCloud(np.array([[0.5, -1.0, 2.0]]))
    doubled = PointCloud(np.vstack([single.points, single.points]))
    # one point goes through BLAS gemv, two through gemm, which may round
    # differently in the last bit
    assert math.isclose(gmm_log_likelihood(doubled, model),
                        2.0 * gmm_log_likelihood(single, model), rel_tol=1e-12)
    rng = np.random.default_rng(6)
    cloud = PointCloud(rng.normal(size=(60, 3)))
    twice = PointCloud(np.vstack([cloud.points, cloud.points]))
    assert math.isclose(gmm_log_likelihood(twice, model),
                        2.0 * gmm_log_likelihood(cloud, model), rel_tol=1e-12)


def test_log_likelihood_matches_naive_summation():
    rng = np.random.default_rng(9)
    model = random_gmm(rng, 3, spread=2.0)
    pts = sample_mixture(rng, 100, model.weights, model.means, model.covariances)
    cloud = PointCloud(pts)
    naive = math.fsum(math.log(gmm_density(x, model)) for x in pts)
    assert abs(gmm_log_likelihood(cloud, model) - naive) < 1e-9


def test_log_likelihood_survives_far_outlier():
    cloud = PointCloud(np.array([[0.0, 0.0, 0.0], [50.0, 0.0, 0.0]]))
    ll = gmm_log_likelihood(cloud, unit_gmm())
    assert math.isfinite(ll)
    assert math.isclose(ll, -3.0 * math.log(2.0 * math.pi) - 0.5 * 2500.0, rel_tol=1e-12)


def test_mixture_integrates_to_one():
    # Monte Carlo over a box holding 5 sigma of every component.
    rng = np.random.default_rng(17)
    model = random_gmm(rng, 3, spread=2.0)
    radii = 5.0 * np.sqrt(np.linalg.eigvalsh(model.covariances)[:, -1])
    lo = (model.means - radii[:, None]).min(axis=0)
    hi = (model.means + radii[:, None]).max(axis=0)
    draws = lo + rng.random((2_000_000, 3)) * (hi - lo)
    volume = float(np.prod(hi - lo))
    estimate = float(np.mean(np.exp(gmm_log_density(draws, model)))) * volume
    assert abs(estimate - 1.0) < 0.02


# ----------------------------------------------------- log-space helpers


def log_sum_exp_columns(matrix):
    """The log-sum-exps softmax_columns returns, computed on a copy."""
    return softmax_columns(np.array(matrix, dtype=float))


@given(seed=st.integers(0, 2**32 - 1))
def test_log_sum_exp_matches_scipy(seed):
    rng = np.random.default_rng(seed)
    rows = rng.normal(scale=200.0, size=(8, 4))
    np.testing.assert_allclose(log_sum_exp_columns(rows.T), logsumexp(rows, axis=1),
                               rtol=1e-12)


def masked_log_sum_exp_columns(matrix):
    """The column log-sum-exp evaluated only on the columns with a finite
    peak, summed component by component, the order of a (K, N) C-order sum."""
    peak = np.max(matrix, axis=0)
    finite = np.isfinite(peak)
    out = np.full(matrix.shape[1], -np.inf)
    shifted = np.exp(matrix[:, finite] - peak[finite])
    out[finite] = peak[finite] + np.log(sum(shifted[1:], start=shifted[0]))
    return out


@pytest.mark.parametrize("dead_rows", [False, True])
@pytest.mark.parametrize("k", [1, 3, 8, 32])
@pytest.mark.parametrize("seed", [0, 1])
def test_log_sum_exp_matches_masked_bits(seed, k, dead_rows):
    # (K, N) layout: one row per component, one column per point
    rng = np.random.default_rng(seed)
    cols = np.ascontiguousarray(rng.normal(scale=200.0, size=(500, k)).T)
    if k > 1:
        cols[0] = -np.inf  # a zero-weight component, every column still live
    if dead_rows:
        cols[:, ::7] = -np.inf
    # at a zero peak the log-sum-exp is log(sum) alone, so the order of the
    # sum shows in the last bits
    peak = np.max(cols, axis=0)
    live = np.isfinite(peak)
    zero_peak = cols.copy()
    zero_peak[:, live] -= peak[live]
    for case in (cols, zero_peak):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = log_sum_exp_columns(case)
        assert out.tobytes() == masked_log_sum_exp_columns(case).tobytes()


def test_log_sum_exp_handles_dead_rows():
    cols = np.array([[math.log(2.0), -np.inf], [-np.inf, -np.inf]]).T
    out = log_sum_exp_columns(cols)
    assert math.isclose(out[0], math.log(2.0), rel_tol=1e-15)
    assert out[1] == -np.inf


def test_ensemble_log_density_blends_members():
    rng = np.random.default_rng(21)
    m1 = random_gmm(rng, 1)
    m2 = random_gmm(rng, 2)
    ensemble = GmmEnsemble((EnsembleMember(0.25, m1), EnsembleMember(0.75, m2)))
    x = rng.normal(size=(5, 3))
    oracle = np.log(0.25 * np.exp(gmm_log_density(x, m1))
                    + 0.75 * np.exp(gmm_log_density(x, m2)))
    np.testing.assert_allclose(ensemble_log_density(x, ensemble), oracle, rtol=1e-12)


# ------------------------------------------------------------ flooring


def test_covariance_floor_tracks_data_scale():
    rng = np.random.default_rng(1)
    pts = rng.normal(size=(200, 3))
    eps = covariance_floor(pts)
    assert math.isclose(eps, 1e-6 * float(pts.var(axis=0).sum()) / 3.0, rel_tol=1e-12)
    scaled = covariance_floor(100.0 * pts)
    assert math.isclose(scaled, 1e4 * eps, rel_tol=1e-12)


def test_covariance_floor_degenerate_data():
    assert covariance_floor(np.ones((5, 3))) == 1e-12
    assert covariance_floor(np.zeros((1, 3))) == 1e-12


def test_floor_spd_clamps_eigenvalues():
    floored, (factor_lam, q) = floor_spd(np.diag([4.0, 1e-18, 0.0]), 1e-6)
    lam = np.linalg.eigvalsh(floored)
    assert lam.min() >= 1e-6 * (1.0 - 1e-12)
    assert math.isclose(lam.max(), 4.0, rel_tol=1e-12)
    assert np.array_equal(floored, floored.T)
    assert np.all(factor_lam >= 1e-6)
    np.testing.assert_allclose(q.T @ q, np.eye(3), rtol=0.0, atol=1e-15)
