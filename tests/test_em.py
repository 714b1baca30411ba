"""k-means initialization, E/M steps, and full EM fits."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from conftest import (
    FLOOR_TEST_TOL,
    RECOVERY_COVS,
    RECOVERY_MEANS,
    RECOVERY_WEIGHTS,
    assert_precisions_match,
    best_match,
    counted_steps,
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
    e_step,
    fit_em,
    kmeans_init,
    m_step,
)
from gmmcloud.embedding import embed, make_probe_set
from gmmcloud.geodesics import interpolate_point_clouds, product_geodesic
from gmmcloud.model import (
    SECOND_MOMENT_ROWS,
    Gmm,
    PointCloud,
    centred_features,
    covariance_floor,
    factor_precisions,
    feature_log_densities,
    gmm_log_density,
    softmax_columns,
)
from gmmcloud.sampling import generate_point_cloud, rng_stream
from gmmcloud.selection import aic_score
from gmmcloud.shapes import make_bent_tube, tube_spec_for_class


def two_blob_cloud(n_per_blob=50, sigma=0.05, seed=2):
    rng = np.random.default_rng(seed)
    a = rng.normal(scale=sigma, size=(n_per_blob, 3))
    b = np.array([10.0, 10.0, 10.0]) + rng.normal(scale=sigma, size=(n_per_blob, 3))
    return PointCloud(np.vstack([a, b])), a, b


# -------------------------------------------------------------- config


def test_fit_config_defaults():
    assert FitConfig() == FitConfig(seed=0)
    assert em.MAX_ITERATIONS == 200
    assert em.REL_TOLERANCE == 1e-6
    assert em.KMEANS_RESTARTS == 4


@pytest.mark.parametrize("seed", [1.9, "1", True, None])
def test_fit_config_seed_must_be_an_integer(seed):
    # int(seed) would give each of these exactly the fit of an integer seed
    with pytest.raises(ValueError, match="seed must be an integer"):
        FitConfig(seed=seed)
    assert FitConfig(seed=np.int64(3)).seed == 3


# ------------------------------------------------------------- k-means


def test_kmeans_degenerate_single_cluster():
    codes, = kmeans_init(np.ones((3, 3)), [1], seed=0)
    assert codes.tolist() == [0, 0, 0]


def test_kmeans_two_blobs_exact_split():
    cloud, _, _ = two_blob_cloud()
    codes, = kmeans_init(cloud.points, [2], seed=1)
    # the points are the stacked blobs, 50 of each
    assert codes.tolist() == [codes[0]] * 50 + [1 - codes[0]] * 50


def test_kmeans_one_point_per_cluster():
    pts = np.random.default_rng(4).normal(size=(6, 3))
    assert sorted(kmeans_init(pts, [6], seed=0)[0].tolist()) == list(range(6))


def kmeans_pp_reference(pts, k, rng):
    """k-means++ seeding in its row form, np.sum((pts - c) ** 2, axis=1),
    which em._kmeans_pp_seeds and em._nearest_seed_codes must reproduce
    bit for bit: the seeds, their partition and the potential, the final
    d2.sum(), or the FitError when the points run out before the K-th
    seed."""
    n = pts.shape[0]
    centers = np.empty((k, 3))
    centers[0] = pts[int(rng.integers(n))]
    d2 = np.sum((pts - centers[0]) ** 2, axis=1)
    for j in range(1, k):
        total = float(d2.sum())
        if total == 0.0:
            raise FitError(f"K={k} needs {k} distinct points, the cloud has {j}")
        idx = int(np.searchsorted(np.cumsum(d2) / total, rng.random(), side="right"))
        if idx == n:
            idx = int(np.flatnonzero(d2)[-1])
        centers[j] = pts[idx]
        d2 = np.minimum(d2, np.sum((pts - centers[j]) ** 2, axis=1))
    return centers, float(d2.sum())


def partition_reference(pts, centers):
    """Nearest-centre partition in its plain form, an (N, K, 3) broadcast
    and argmin."""
    d2 = np.sum((pts[:, None, :] - centers[None, :, :]) ** 2, axis=2)
    return np.argmin(d2, axis=1)


def kmeans_init_reference(pts, k, seed):
    """kmeans_init in its plain form: the row-form seedings, the first of
    the lowest potential and the plain partition."""
    seedings = [kmeans_pp_reference(pts, k, rng_stream(seed, r))
                for r in range(em.KMEANS_RESTARTS)]
    potentials = [potential for _, potential in seedings]
    return partition_reference(pts, seedings[potentials.index(min(potentials))][0])


def assert_kmeans_init_matches_reference(pts, k, seed):
    """kmeans_init and the reference give the same codes on the sorted
    points fit_em seeds from."""
    pts = em._sorted_points(pts)
    codes, = kmeans_init(pts, [k], seed)
    assert codes.tolist() == kmeans_init_reference(pts, k, seed).tolist()
    return codes


def tube_points(seed, n_points=600):
    label = "demented" if seed % 2 else "nondemented"
    return make_bent_tube(tube_spec_for_class(label, n_points=n_points), seed).points


def duplicate_points(distinct, copies):
    rng = np.random.default_rng(distinct)
    return np.repeat(rng.normal(size=(distinct, 3)), copies, axis=0)


# (distinct points, copies of each, K): K above the distinct count, so
# k-means++ runs out of new positions before the K-th seed
SHORT_CASES = [(6, 10, 40), (3, 4, 11), (5, 5, 25)]


@pytest.mark.parametrize("k", [1, 2, 8, 32])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_kmeans_init_is_bit_identical_to_reference(seed, k):
    assert_kmeans_init_matches_reference(tube_points(seed), k, seed)


def test_kmeans_init_is_bit_identical_to_reference_at_larger_n():
    assert_kmeans_init_matches_reference(tube_points(1, n_points=6000), 8, 1)


@given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 12), extra=st.integers(0, 6))
def test_kmeans_init_matches_reference_on_repeated_points(seed, k, extra):
    # m >= K distinct positions on an integer grid, where exact distance
    # ties abound, each repeated 1-5 times and shuffled
    rng = np.random.default_rng(seed)
    m = k + extra
    grid = np.stack(np.unravel_index(rng.choice(125, size=m, replace=False), (5, 5, 5)), 1)
    pts = np.repeat(grid.astype(float), rng.integers(1, 6, size=m), axis=0)
    pts = pts[rng.permutation(pts.shape[0])]
    codes = assert_kmeans_init_matches_reference(pts, k, seed)
    assert np.all(np.bincount(codes, minlength=k) > 0)


@pytest.mark.parametrize("distinct, copies, k", SHORT_CASES)
def test_kmeans_init_matches_reference_up_to_the_distinct_count(distinct, copies, k):
    # clouds of repeated positions: every K up to the distinct count matches
    # the reference bit for bit, and at K above it both refuse with the
    # same error instead of leaving a cluster empty
    pts = duplicate_points(distinct, copies)
    for seed in range(3):
        for fewer in range(1, distinct + 1):
            assert_kmeans_init_matches_reference(pts, fewer, seed)
        result, = kmeans_init(pts, [k], seed)
        assert isinstance(result, FitError)
        with pytest.raises(FitError) as expected:
            kmeans_init_reference(em._sorted_points(pts), k, seed)
        assert str(result) == str(expected.value)


# the candidate Ks of an interpolate or fit command on 600-point tubes
ALL_KS = (1, 2, 4, 8, 16, 32)


@pytest.mark.parametrize("seed", range(4))
def test_kmeans_init_gives_each_of_many_ks_its_one_k_codes(seed):
    # one seeding per restart to the largest K serves every K: the draw
    # of K seeds is a prefix of the longer draw from the same stream
    pts = em._sorted_points(tube_points(seed))
    for k, codes in zip(ALL_KS, kmeans_init(pts, ALL_KS, seed)):
        assert codes.tolist() == kmeans_init(pts, [k], seed)[0].tolist()
        assert codes.tolist() == kmeans_init_reference(pts, k, seed).tolist()


@pytest.mark.parametrize("distinct, copies, k", SHORT_CASES)
def test_kmeans_init_of_many_ks_fails_only_the_ks_above_the_distinct_count(
        distinct, copies, k):
    pts = em._sorted_points(duplicate_points(distinct, copies))
    ks = [1, 2, distinct - 1, distinct, distinct + 1, k]
    for seed in range(4):
        for one, result in zip(ks, kmeans_init(pts, ks, seed)):
            if one <= distinct:
                assert result.tolist() == kmeans_init(pts, [one], seed)[0].tolist()
                assert result.tolist() == kmeans_init_reference(pts, one, seed).tolist()
            else:
                assert isinstance(result, FitError)
                assert str(result) == (
                    f"K={one} needs {one} distinct points, the cloud has {distinct}")


@pytest.mark.parametrize("distinct, copies, k", SHORT_CASES)
def test_kmeans_init_leaves_no_zero_weight_component(distinct, copies, k):
    # K up to the distinct count puts one position in each cluster; above
    # it there is no start without an empty cluster, so kmeans_init refuses
    pts = duplicate_points(distinct, copies)
    for seed in range(3):
        codes, = kmeans_init(pts, [distinct], seed)
        assert np.bincount(codes, minlength=distinct).tolist() == [copies] * distinct
        short, = kmeans_init(pts, [k], seed)
        assert isinstance(short, FitError)
        assert str(short) == f"K={k} needs {k} distinct points, the cloud has {distinct}"


@pytest.mark.parametrize("distinct, copies, k", SHORT_CASES)
def test_fit_em_names_k_and_the_distinct_count_when_points_run_out(distinct, copies, k):
    cloud = PointCloud(duplicate_points(distinct, copies))
    for seed in range(3):
        with pytest.raises(FitError, match=f"^K={k} needs {k} distinct points, "
                                           f"the cloud has {distinct}$"):
            fit_em(cloud, k, FitConfig(seed=seed))


def test_fit_em_fails_on_a_start_with_a_zero_weight_component(monkeypatch):
    # an empty cluster has no mass in the start's M-step
    cloud, _, _ = two_blob_cloud()
    codes = np.repeat([0, 1], 50)
    monkeypatch.setattr(em, "kmeans_init", lambda points, ks, seed: [codes for _ in ks])
    with pytest.raises(FitError, match="^fit failed at iteration 0: component 2 collapsed"):
        fit_em(cloud, 3, FitConfig(seed=0))


def kmeans_pp_partition(pts, k, rng):
    """One k-means++ seeding's codes and potential: its seeds, partitioned
    the way kmeans_init partitions the winning seeding."""
    seeds, potentials = em._kmeans_pp_seeds(pts, k, rng)
    return em._nearest_seed_codes(pts, seeds), potentials[-1]


class EdgeDraws:
    """Stand-in generator for k-means++: the last index first, then the
    largest double below 1."""

    def integers(self, n):
        return n - 1

    def random(self):
        return 1.0 - 2.0 ** -53


def test_kmeans_pp_draw_past_the_rounded_cdf_end_takes_the_last_point_off_the_seeds():
    pts = em._sorted_points(np.random.default_rng(1).normal(size=(50, 3)))
    pts[-1] = pts[-2]  # the first seed, the last point, has a twin before it
    d2 = np.sum((pts - pts[-1]) ** 2, axis=1)
    assert float((np.cumsum(d2) / d2.sum())[-1]) < EdgeDraws().random()
    codes, _ = kmeans_pp_partition(pts, 2, EdgeDraws())
    # the second seed is pts[-3], the last point off the first seed
    assert codes[-3] == 1 and codes[-2:].tolist() == [0, 0]
    np.testing.assert_array_equal(codes, partition_reference(pts, pts[[-1, -3]]))


class TieDraws:
    """Stand-in generator for k-means++ on the nine-point tie cloud: the
    first seed is point 5, and each draw falls in the cdf step of the next
    of points 6, 7 and 8 (the step [7/15, 11/15), then [3/7, 5/7), then
    [3/5, 1))."""

    def __init__(self):
        self.draws = [0.6, 0.5, 0.8]

    def integers(self, n):
        return 5

    def random(self):
        return self.draws.pop(0)


def test_nearest_seed_partition_breaks_exact_ties_to_the_lowest_index():
    centers = np.array([[1.0, 0, 0], [-1.0, 0, 0], [0, 1.0, 0], [0, -1.0, 0]])
    # the origin is equidistant from all four centres, the others from two;
    # the last four sit on the centres, so no cluster is empty
    pts = np.vstack([[[0.0, 0, 0], [0.5, 0.5, 0], [-0.5, -0.5, 0], [-0.5, 0.5, 0],
                      [0.5, -0.5, 0]], centers])
    d2 = np.sum((pts[:, None, :] - centers[None, :, :]) ** 2, axis=2)
    ties = np.sum(d2 == d2.min(axis=1, keepdims=True), axis=1)
    assert ties.tolist() == [4, 2, 2, 2, 2, 1, 1, 1, 1]
    draws = TieDraws()
    seeds, potentials = em._kmeans_pp_seeds(pts, 4, draws)
    assert draws.draws == [] and seeds == [5, 6, 7, 8]
    codes = em._nearest_seed_codes(pts, seeds)
    # the seeding's own codes keep the first of equal minima
    assert codes.tolist() == [0, 0, 1, 1, 0, 0, 1, 2, 3]
    np.testing.assert_array_equal(codes, np.argmin(d2, axis=1))
    assert potentials[-1] == float(d2.min(axis=1).sum())


def assert_kmeans_pp_matches_reference(pts, k):
    """The seeding and its row form agree bit for bit: the seeds, their
    partition and the potential of every prefix. Where the row form
    raises FitError, the seeding stops short of K at the distinct count
    it names. Returns how many of the three seeds fell short."""
    pts = em._sorted_points(pts)
    short = 0
    for seed in range(3):
        rng, ref_rng = rng_stream(seed), rng_stream(seed)
        seeds, potentials = em._kmeans_pp_seeds(pts, k, rng)
        try:
            ref_centers, ref_potential = kmeans_pp_reference(pts, k, ref_rng)
        except FitError as exc:
            assert len(seeds) < k
            assert str(exc) == f"K={k} needs {k} distinct points, the cloud has {len(seeds)}"
            short += 1
        else:
            assert pts[seeds].tobytes() == ref_centers.tobytes()
            codes = em._nearest_seed_codes(pts, seeds)
            assert codes.tolist() == partition_reference(pts, ref_centers).tolist()
            assert potentials[-1].hex() == ref_potential.hex()
        # both consumed the same draws
        assert rng.random() == ref_rng.random()
        assert len(potentials) == len(seeds)
        for j, potential in enumerate(potentials, start=1):
            assert potential.hex() == kmeans_pp_reference(pts, j, rng_stream(seed))[1].hex()
    return short


@pytest.mark.parametrize("k", [1, 2, 8, 32])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_kmeans_pp_is_bit_identical_to_row_form(seed, k):
    assert assert_kmeans_pp_matches_reference(tube_points(seed), k) == 0


@pytest.mark.parametrize("distinct, copies, k", SHORT_CASES)
def test_kmeans_pp_matches_row_form_on_duplicate_points(distinct, copies, k):
    pts = duplicate_points(distinct, copies)
    assert assert_kmeans_pp_matches_reference(pts, k) == 3
    assert assert_kmeans_pp_matches_reference(pts, distinct) == 0


# -------------------------------------------------------------- E step


def test_e_step_single_component_is_certain():
    cloud = PointCloud(np.random.default_rng(0).normal(size=(20, 3)))
    model = Gmm([1.0], np.zeros((1, 3)), np.eye(3)[None])
    assert np.array_equal(e_step(cloud, model), np.ones((20, 1)))


def test_e_step_identical_components_split_evenly():
    cloud = PointCloud(np.random.default_rng(1).normal(size=(15, 3)))
    model = Gmm([0.5, 0.5], [[1.0, -2.0, 0.5]] * 2, [np.diag([1.0, 2.0, 0.5])] * 2)
    np.testing.assert_allclose(e_step(cloud, model), 0.5, atol=1e-15)


def test_e_step_equidistant_point():
    model = Gmm([0.5, 0.5], [[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]], [np.eye(3)] * 2)
    gamma = e_step(PointCloud(np.array([[0.0, 5.0, -3.0]])), model)
    np.testing.assert_allclose(gamma, [[0.5, 0.5]], atol=1e-12)


def test_e_step_underflow_goes_uniform():
    model = Gmm([0.5, 0.5], [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]], [np.eye(3)] * 2)
    cloud = PointCloud(np.array([[0.0, 0.0, 0.0], [1e200, 0.0, 0.0]]))
    gamma = e_step(cloud, model)
    np.testing.assert_allclose(gamma[1], [0.5, 0.5], atol=0)
    np.testing.assert_allclose(gamma.sum(axis=1), 1.0, atol=1e-9)


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
    peak = np.max(lwd, axis=0)
    dead = ~np.isfinite(peak)
    live = ~dead
    masked = np.empty_like(lwd)
    shifted = np.exp(lwd[:, live] - peak[live])
    # summed component by component, the order of a (K, N) C-order sum
    masked[:, live] = shifted / sum(shifted[1:], start=shifted[0])
    masked[:, dead] = 1.0 / k
    gamma = lwd.copy()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        log_sum = softmax_columns(gamma)
    assert np.count_nonzero(~np.isfinite(log_sum)) == (72 if dead_rows else 0)
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
    gamma = e_step(cloud, model)
    assert np.max(np.abs(gamma.sum(axis=1) - 1.0)) < 1e-9
    assert np.all(gamma >= 0.0) and np.all(gamma <= 1.0)


# -------------------------------------------------------------- M step


def test_m_step_all_ones_is_single_gaussian_mle():
    rng = np.random.default_rng(3)
    pts = rng.normal(scale=2.0, size=(40, 3))
    cloud = PointCloud(pts)
    model = m_step(cloud, np.ones((40, 1)))
    assert model.weights[0] == 1.0
    np.testing.assert_allclose(model.means[0], pts.mean(axis=0), atol=1e-12)
    diff = pts - pts.mean(axis=0)
    np.testing.assert_allclose(model.covariances[0], diff.T @ diff / 40, atol=1e-12)


def test_m_step_hard_assignment_gives_cluster_moments():
    cloud, a, b = two_blob_cloud()
    gamma = np.zeros((100, 2))
    gamma[:50, 0] = 1.0
    gamma[50:, 1] = 1.0
    model = m_step(cloud, gamma)
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
    model = m_step(PointCloud(pts), gamma)
    for j in range(model.k):
        mass = gamma[:, j].sum()
        assert math.isclose(model.weights[j], mass / 10.0, rel_tol=1e-12)
        mean = gamma[:, j] @ pts / mass
        np.testing.assert_allclose(model.means[j], mean, atol=1e-12)
        diff = pts - mean
        cov = (gamma[:, j][:, None] * diff).T @ diff / mass
        np.testing.assert_allclose(model.covariances[j], cov, atol=1e-12)


def test_m_step_rejects_collapsed_component():
    pts = np.random.default_rng(13).normal(size=(12, 3))
    gamma = np.zeros((12, 3))
    gamma[:, 0] = 1.0
    with pytest.raises(ValueError, match="^component 1 collapsed"):
        m_step(PointCloud(pts), gamma)


def test_m_step_shape_mismatch():
    with pytest.raises(ValueError, match=r"^responsibilities must be a \(3, K\) array with "
                                         r"K >= 1, got shape \(2, 1\)$"):
        m_step(PointCloud(np.zeros((3, 3))), np.ones((2, 1)))


def test_responsibilities_validation():
    cloud = PointCloud(np.eye(3)[:2])
    m_step(cloud, np.array([[0.5, 0.5], [1.0, 0.0]]))
    one = PointCloud(np.zeros((1, 3)))
    with pytest.raises(ValueError, match="^responsibility rows must sum to 1$"):
        m_step(one, np.array([[0.6, 0.5]]))
    with pytest.raises(ValueError, match=r"^responsibilities must lie in \[0, 1\]$"):
        m_step(one, np.array([[1.2, -0.2]]))
    for gamma in (np.ones(3), np.ones((0, 2)), np.ones((2, 0)), np.ones((1, 1, 1))):
        with pytest.raises(ValueError, match=r"^responsibilities must be a \(2, K\) array"):
            m_step(cloud, gamma)


@given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 4))
def test_m_step_weights_sum_to_one(seed, k):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 30))
    pts = rng.normal(scale=2.0, size=(n, 3))
    gamma = rng.dirichlet(np.ones(k), size=n)
    model = m_step(PointCloud(pts), gamma)
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


def assert_moments_match_loop_form(got, ref, pts):
    """M-step state within MOMENT_TOL of the loop form's arrays: weights
    relative, means relative to the cloud's spread, covariances in
    relative Frobenius norm; and the precisions and log-determinants its
    E-step reads are its covariances' (assert_precisions_match)."""
    (weights, means, covs, precision, log_det), (ref_weights, ref_means, ref_covs) = got, ref
    spread = math.sqrt(float(np.trace(np.cov(pts.T))))
    assert np.all(np.abs(weights - ref_weights) <= MOMENT_TOL * ref_weights)
    assert np.all(np.abs(means - ref_means) <= MOMENT_TOL * spread)
    gap = np.linalg.norm(covs - ref_covs, axis=(1, 2))
    assert np.all(gap <= MOMENT_TOL * np.linalg.norm(ref_covs, axis=(1, 2)))
    assert_precisions_match(precision, log_det, covs)


def state_and_precisions(m_step_result):
    """The parts of the one EM state in an _m_step_arrays result, then
    the precisions and log-determinants its E-step reads."""
    state, (_, _, precision, log_det), failed = m_step_result
    assert failed == {}
    return tuple(part[0] for part in state) + (precision[0], log_det[0])


def m_step_one(phi, gamma, eps):
    """em._m_step_arrays on a batch of one fit: state_and_precisions."""
    return state_and_precisions(em._m_step_arrays(phi[None], gamma[None], np.array([eps])))


def one_hot(codes, k):
    """(N, K) responsibilities of a hard partition."""
    return (codes[:, None] == np.arange(k)).astype(float)


@pytest.mark.parametrize("n, k", [(600, 2), (600, 8), (600, 32), (6000, 8)])
def test_moment_core_matches_loop_oracle(n, k):
    cloud = make_bent_tube(tube_spec_for_class("demented", n_points=n), seed=3)
    model = fit_em(cloud, k, FitConfig(seed=0)).model
    pts = em._sorted_points(cloud.points)
    centre = pts.mean(axis=0)
    args = (model.weights, model.means - centre)
    oracle = loop_log_densities(pts - centre, *args, model.covariances)
    got = feature_log_densities(centred_features(pts, centre), *args,
                                *factor_precisions(*model.factor))
    assert np.all(np.abs(got.T - oracle) <= LOG_DENSITY_TOL * (1.0 + np.abs(oracle)))

    gamma = loop_gamma(oracle, loop_log_sum_exp_rows(oracle))
    eps = covariance_floor(pts)
    assert_moments_match_loop_form(
        m_step_one(centred_features(pts, centre), np.ascontiguousarray(gamma.T), eps),
        loop_m_step(pts - centre, gamma, eps), pts)


@pytest.mark.parametrize("n, k, seed", [(600, 1, 0), (600, 2, 1), (600, 8, 2), (600, 32, 0),
                                        (6000, 8, 1)])
def test_fit_start_is_the_loop_m_step_on_the_partition(monkeypatch, n, k, seed):
    # the first M-step of a fit is its start
    starts = []
    m_step_arrays = em._m_step_arrays

    def recorded(*args):
        starts.append(m_step_arrays(*args))
        return starts[-1]

    monkeypatch.setattr(em, "_m_step_arrays", recorded)
    pts = tube_points(seed, n_points=n)
    fit_em(PointCloud(pts), k, FitConfig(seed=seed))
    pts = em._sorted_points(pts)
    codes = assert_kmeans_init_matches_reference(pts, k, seed)
    assert_moments_match_loop_form(
        state_and_precisions(starts[0]),
        loop_m_step(pts - pts.mean(axis=0), one_hot(codes, k), covariance_floor(pts)), pts)


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
    eps = covariance_floor(pts)
    start = loop_m_step(pts - centre, one_hot(kmeans_init(pts, [k], seed=0)[0], k), eps)
    trace = loop_fit(pts - centre, start, eps)
    assert result.iterations == len(trace)
    final = result.log_likelihood_trace[-1]
    assert abs(final - trace[-1]) <= FIT_LL_TOL * abs(trace[-1])


# --------------------------------------------- closed-form precisions
#
# An EM map computes each covariance's precision and log-determinant in
# closed form (em._closed_form) and runs floor_spd's eigh only on the
# matrices that fail the floor test, S - eps I positive definite.


def random_spd(rng, k):
    """(k, 3, 3) symmetric positive definite matrices: random rotations
    of eigenvalues 1 >= l2 >= l3 with condition numbers up to 1e7, the
    floor's, half of them with l2 within 3x of l3, at scales 1e-3 to 1e3."""
    q, _ = np.linalg.qr(rng.normal(size=(k, 3, 3)))
    small = 10.0 ** -rng.uniform(0.0, 7.0, size=k)
    middle = np.where(rng.random(k) < 0.5, small * rng.uniform(1.0, 3.0, size=k),
                      small ** rng.uniform(0.0, 1.0, size=k))
    lam = np.stack([np.ones(k), middle, small], axis=-1) * 10.0 ** rng.uniform(-3, 3, size=(k, 1))
    covs = (q * lam[:, None, :]) @ q.swapaxes(1, 2)
    return 0.5 * (covs + covs.swapaxes(1, 2))


@pytest.mark.parametrize("seed", range(4))
def test_closed_form_precisions_match_inv_and_slogdet(seed):
    # within PRECISION_TOL times the condition number, which the cofactor
    # expansion of the determinant along a row misses by up to 1e5 when
    # two eigenvalues are small
    rng = np.random.default_rng(seed)
    covs = random_spd(rng, 512).reshape(16, 32, 3, 3)
    # floors from 1 to 1e3 below each fit's smallest eigenvalue
    eps = np.linalg.eigvalsh(covs)[..., 0].min(axis=-1) / 10.0 ** rng.uniform(0, 3, size=16)
    for shift in (1.0, 0.0):
        precision, log_det, failing = em._closed_form(covs, eps, shift)
        assert failing is None
        assert_precisions_match(precision, log_det, covs)


@pytest.mark.parametrize("seed", range(4))
def test_the_shift_zero_test_agrees_with_the_sign_of_eigvalsh(seed):
    # random rotations of eigenvalues of either sign, the smallest in
    # magnitude down to 1e-16 of the largest, at scales 1e-3 to 1e3;
    # checked only where eigvalsh's sign of the smallest eigenvalue is
    # beyond rounding, |lam_min| > FLOOR_TEST_TOL * |S|_2
    rng = np.random.default_rng(seed)
    shape = (16, 32)
    q, _ = np.linalg.qr(rng.normal(size=shape + (3, 3)))
    lam = 10.0 ** rng.uniform(-16.0, 0.0, size=shape + (3,)) * 10.0 ** rng.uniform(
        -3.0, 3.0, size=shape + (1,))
    lam *= np.where(rng.random(shape + (3,)) < 0.3, -1.0, 1.0)
    covs = (q * lam[..., None, :]) @ q.swapaxes(-1, -2)
    covs = 0.5 * (covs + covs.swapaxes(-1, -2))
    eps = 10.0 ** rng.uniform(-6.0, 0.0, size=shape[0]) * np.abs(lam).max(axis=(1, 2))
    _, _, failing = em._closed_form(covs, eps, 0.0)
    failing = np.zeros(shape, dtype=bool) if failing is None else failing
    eigenvalues = np.linalg.eigvalsh(covs)
    lowest, norm = eigenvalues[..., 0], np.abs(eigenvalues).max(axis=-1)
    checked = np.abs(lowest) > FLOOR_TEST_TOL * norm
    assert checked.mean() > 0.9
    assert 0.2 < (lowest[checked] <= 0.0).mean() < 0.8
    assert np.array_equal(failing[checked], lowest[checked] <= 0.0)


def scatter_matrices(seed, n, k, rank):
    """The unfloored (K, 3, 3) covariances of an M-step, by its formula,
    for n points with normal coordinates, on a line or a plane for rank 1
    or 2, and Dirichlet responsibilities; and the points."""
    rng = np.random.default_rng(seed)
    pts = rng.normal(scale=2.0, size=(n, 3))
    if rank < 3:
        basis, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        pts = rng.normal(size=3) + (pts @ basis[:, :rank]) @ basis[:, :rank].T
    gamma = rng.dirichlet(np.ones(k), size=n)
    moments = gamma.T @ centred_features(pts, pts.mean(axis=0)).T
    scaled = moments / moments[:, :1]
    means = scaled[:, 1:4]
    return scaled[:, SECOND_MOMENT_ROWS] - means[:, :, None] * means[:, None, :], pts


@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 30), k=st.integers(1, 4),
       rank=st.integers(1, 3), shift=st.floats(-1e-9, 1e-9))
@example(seed=947, n=2, k=1, rank=3, shift=0.0)
def test_the_floor_test_passes_no_matrix_below_the_floor(seed, n, k, rank, shift):
    # at the cloud's own floor, and at floors within 1e-9 of each
    # matrix's smallest eigenvalue, where a test of S alone would pass a
    # singular matrix by rounding
    covs, pts = scatter_matrices(seed, n, k, rank)
    lam = np.linalg.eigvalsh(covs)
    floors = [covariance_floor(pts)] + [(1.0 + shift) * x for x in lam[:, 0] if x > 0.0]
    for eps in floors:
        _, _, failing = em._closed_form(covs[None], np.array([eps]), 1.0)
        ok = np.ones(k, dtype=bool) if failing is None else ~failing[0]
        assert np.all(lam[ok, 0] >= eps - FLOOR_TEST_TOL * lam[ok, -1])


def test_the_floor_binds_on_the_two_point_cloud():
    # the M-step covariance of test_m_step_weights_sum_to_one's seed 947
    # at K = 1 is singular, and eigvalsh puts its smallest eigenvalue at
    # -1.1e-16; the floor test fails it, so floor_spd floors it
    rng = np.random.default_rng(947)
    n = int(rng.integers(2, 30))
    pts = rng.normal(scale=2.0, size=(n, 3))
    covs, _ = scatter_matrices(947, n, 1, 3)
    assert n == 2 and np.linalg.eigvalsh(covs)[0, 0] < 0.0
    _, _, failing = em._closed_form(covs[None], np.array([covariance_floor(pts)]), 1.0)
    assert failing.tolist() == [[True]]
    lam = np.linalg.eigvalsh(m_step(PointCloud(pts), np.ones((n, 1))).covariances)
    assert lam[0, 0] >= covariance_floor(pts) - FLOOR_TEST_TOL * lam[0, -1]


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
    per_point_gap = abs(gmm_log_density(regen.points, refit.model).sum()
                        - gmm_log_density(regen.points, first.model).sum()) / len(regen)
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
    monkeypatch.setattr(em, "REL_TOLERANCE", 1e-300)
    cloud = make_bent_tube(tube_spec_for_class("demented", n_points=600), seed=0)
    result = fit_em(cloud, 8, FitConfig(seed=0))
    maps = len(calls) - 1  # the first M-step is the start's
    assert maps <= em.MAX_ITERATIONS
    assert result.converged or maps == em.MAX_ITERATIONS
    assert result.iterations == len(result.log_likelihood_trace) <= maps
    assert np.all(np.diff(result.log_likelihood_trace) >= -1e-8)


def test_fit_evaluates_each_state_once(monkeypatch):
    # one E-step per M-step, the start's included, and one per SQUAREM
    # candidate; a rejected candidate leaves theta2's responsibilities
    # in place rather than recomputing them
    counts = counted_steps(monkeypatch)
    cloud = make_bent_tube(tube_spec_for_class("demented", n_points=600), seed=0)
    fit_em(cloud, 8, FitConfig(seed=0))
    assert counts["candidates"] > 0
    assert counts["e"] == counts["m"] + counts["candidates"]


def test_fit_scoring_sampling_and_geodesics_factor_only_by_eigh(monkeypatch):
    # an EM map runs no eigh where the floor binds nowhere, as at K = 8
    # here: a fit's one eigh validates its final Gmm, which keeps it to
    # score, sample and interpolate; once built, only a new mixture runs
    # eigh again
    cloud = make_bent_tube(tube_spec_for_class("demented", n_points=600), seed=0)
    other = make_bent_tube(tube_spec_for_class("nondemented", n_points=200), seed=1)
    probes = make_probe_set([cloud], seed=0)

    def forbidden(*args, **kwargs):
        raise AssertionError("Cholesky, inverse or eigvalsh called")

    for name in ("cholesky", "inv", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, forbidden)
    eigh = np.linalg.eigh
    calls = []

    def counted_eigh(*args, **kwargs):
        calls.append(None)
        return eigh(*args, **kwargs)

    def eigh_calls(result):
        """result and the eigh calls made since the last count"""
        count = len(calls)
        calls.clear()
        return result, count

    monkeypatch.setattr(np.linalg, "eigh", counted_eigh)
    (model, n), (target, m) = (eigh_calls(fit_em(c, 8, FitConfig(seed=0)).model)
                               for c in (cloud, other))
    assert n == m == 1
    log_density, n = eigh_calls(gmm_log_density(cloud.points, model))
    assert np.all(np.isfinite(log_density)) and n == 0
    gamma, n = eigh_calls(e_step(cloud, model))
    assert gamma.shape == (600, 8) and n == 0
    embedding, n = eigh_calls(embed(model, probes))
    assert np.all(np.isfinite(embedding.coords)) and n == 0
    aic, n = eigh_calls(aic_score(cloud, model))
    assert math.isfinite(aic) and n == 0
    sample, n = eigh_calls(generate_point_cloud(model, 100, rng_stream(0)))
    assert len(sample) == 100 and n == 0
    # the one eigh validates the new mixture at t
    mid, n = eigh_calls(product_geodesic(model, target, 0.5))
    assert mid.k == 8 and n == 1
    result = interpolate_point_clouds(cloud, other, ts=(0.0, 0.5), n_out=50,
                                      candidate_ks=(1, 2))
    assert len(result.frames) == 2


def test_an_em_map_runs_eigh_only_on_the_matrices_the_floor_binds(monkeypatch):
    # at K = 32 the floor binds on a few covariances of this tube's fit:
    # eigh receives those, none above the floor, and last the final
    # Gmm's covariances
    cloud = make_bent_tube(tube_spec_for_class("demented", n_points=600), seed=5)
    eps = covariance_floor(em._sorted_points(cloud.points))
    eigh, floor = np.linalg.eigh, em._floor
    received, bound = [], []

    def recorded_eigh(a, *args, **kwargs):
        received.append(np.array(a))
        return eigh(a, *args, **kwargs)

    def recorded_floor(covs, floors, binding, *args):
        bound.append(int(binding.sum()))
        return floor(covs, floors, binding, *args)

    monkeypatch.setattr(np.linalg, "eigh", recorded_eigh)
    monkeypatch.setattr(em, "_floor", recorded_floor)
    model = fit_em(cloud, 32, FitConfig(seed=0)).model
    *maps, last = received
    assert len(maps) == len(bound) and sum(bound) > 0
    assert [len(m) for m in maps] == bound
    lam = np.linalg.eigvalsh(np.concatenate(maps))
    assert np.all(lam[:, 0] <= eps + FLOOR_TEST_TOL * lam[:, -1])
    np.testing.assert_array_equal(last, model.covariances)


def test_fit_sorts_floors_and_builds_features_once(monkeypatch):
    counts = {}

    def counted(name):
        real = getattr(em, name)

        def wrapper(*args):
            counts[name] = counts.get(name, 0) + 1
            return real(*args)
        return wrapper

    for name in ("_sorted_points", "covariance_floor", "centred_features"):
        monkeypatch.setattr(em, name, counted(name))
    fit_em(make_bent_tube(tube_spec_for_class("demented", n_points=600), seed=0), 8,
           FitConfig(seed=0))
    assert counts == {"_sorted_points": 1, "covariance_floor": 1, "centred_features": 1}


def squarem_states(weights, covariance_scales):
    """Three EM states (weights, means, covariances) of two components
    with fixed means: the given weights and multiples of the identity as
    covariances."""
    return [(np.array(w, dtype=float), np.zeros((2, 3)), np.array([s * np.eye(3)] * 2))
            for w, s in zip(weights, covariance_scales)]


def batch_of(*fits):
    """The three EM states of a batch of fits, each fit given by its
    three states: every part stacked over the fits."""
    return [tuple(np.stack(parts) for parts in zip(*states)) for states in zip(*fits)]


def extrapolate_one(states, step_max):
    """em._extrapolate on a batch of one fit, at floor 1: its step alpha
    and the parts of its extrapolated state, or None."""
    alpha, rows, parts = em._extrapolate(*batch_of(states), [step_max], np.ones(1))
    return alpha[0], (tuple(part[0] for part in parts) if len(rows) else None)


def test_extrapolate_takes_a_feasible_step():
    states = squarem_states([[0.5, 0.5], [0.45, 0.55], [0.42, 0.58]], [1.0, 1.1, 1.15])
    # |r|^2 = 2 * 0.05^2 + 6 * 0.1^2, |v|^2 = 2 * 0.02^2 + 6 * 0.05^2
    alpha, _ = extrapolate_one(states, step_max=4.0)
    assert alpha == pytest.approx(math.sqrt(0.065 / 0.0158))
    alpha, moved = extrapolate_one(states, step_max=2.0)
    assert alpha == 2.0
    # theta0 + 4 r + 4 v: weights (0.38, 0.62), covariances 1.2 I, whose
    # precision entries are 1 / 1.2 on the diagonal and 0 off it
    weights, means, precision, log_det = moved
    np.testing.assert_allclose(weights, [0.38, 0.62])
    np.testing.assert_array_equal(means, np.zeros((2, 3)))
    np.testing.assert_allclose(precision, [[1 / 1.2] * 3 + [0.0] * 3] * 2, atol=1e-15)
    np.testing.assert_allclose(log_det, [3.0 * math.log(1.2)] * 2)
    # a step no longer than 1 is theta2 itself: nothing to extrapolate
    assert extrapolate_one(states, step_max=1.0) == (1.0, None)


def test_extrapolate_rejects_negative_weights():
    # v = 0, so alpha = step_max and theta' = theta0 + 2 alpha r
    states = squarem_states([[0.5, 0.5], [0.4, 0.6], [0.3, 0.7]], [1.0, 1.0, 1.0])
    alpha, moved = extrapolate_one(states, step_max=4.0)
    assert alpha == 4.0 and moved is None


def test_extrapolate_rejects_non_spd_covariances():
    states = squarem_states([[0.5, 0.5]] * 3, [1.0, 0.9, 0.8])
    alpha, moved = extrapolate_one(states, step_max=16.0)
    assert alpha == 16.0 and moved is None


def test_extrapolate_rejects_nan_covariances():
    # a NaN makes |v| NaN, so alpha = step_max, and fails every test
    states = squarem_states([[0.5, 0.5], [0.45, 0.55], [0.42, 0.58]], [1.0, 1.1, 1.15])
    states[2][2][1, 0, 0] = np.nan
    assert extrapolate_one(states, step_max=4.0) == (4.0, None)


def test_extrapolate_decides_fit_by_fit_in_a_batch():
    # the four cases above as one batch: each fit gets its own step and
    # feasibility, the same as alone, and only the feasible one moves
    cases = [(squarem_states([[0.5, 0.5], [0.45, 0.55], [0.42, 0.58]], [1.0, 1.1, 1.15]), 2.0),
             (squarem_states([[0.5, 0.5], [0.4, 0.6], [0.3, 0.7]], [1.0, 1.0, 1.0]), 4.0),
             (squarem_states([[0.5, 0.5]] * 3, [1.0, 0.9, 0.8]), 16.0),
             (squarem_states([[0.5, 0.5], [0.45, 0.55], [0.42, 0.58]], [1.0, 1.1, 1.15]), 1.0)]
    batch = batch_of(*(states for states, _ in cases))
    alpha, rows, parts = em._extrapolate(*batch, [cap for _, cap in cases], np.ones(4))
    assert alpha == [extrapolate_one(states, cap)[0] for states, cap in cases]
    assert rows.tolist() == [0]
    _, moved = extrapolate_one(*cases[0])
    for got, want in zip(parts, moved):
        assert len(got) == 1
        assert got[0].tobytes() == want.tobytes()


@pytest.mark.parametrize("bad", [
    np.full((3, 3), np.nan),
    # trace 1 and determinant 3 > 0, yet two eigenvalues are -1
    np.diag([3.0, -1.0, -1.0]),
    # singular: the scatter of points on a line
    np.outer([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]),
], ids=["nan", "indefinite", "rank-1"])
def test_extrapolate_rejects_a_non_finite_or_indefinite_covariance(bad):
    # the same covariance in the three states makes the extrapolated one
    # that covariance: its state is infeasible like any other, and the
    # other fit of the batch moves as it does alone
    good = squarem_states([[0.5, 0.5], [0.45, 0.55], [0.42, 0.58]], [1.0, 1.1, 1.15])
    states = squarem_states([[0.5, 0.5], [0.45, 0.55], [0.42, 0.58]], [1.0, 1.1, 1.15])
    for state in states:
        state[2][1] = bad
    batch = batch_of(states, good)
    alpha, rows, parts = em._extrapolate(*batch, [2.0, 2.0], np.ones(2))
    assert alpha[1] == 2.0 and rows.tolist() == [1]
    assert extrapolate_one(states, 2.0)[1] is None
    _, moved = extrapolate_one(good, 2.0)
    for got, want in zip(parts, moved):
        assert len(got) == 1
        assert got[0].tobytes() == want.tobytes()


@pytest.mark.parametrize("case", ["distinct", "tied x", "signed zeros", "duplicates"])
def test_sorted_points_are_in_lexsort_order(case):
    # sorting on x alone gives the lexicographic order only without ties
    # in x, and -0.0 == 0.0 is a tie that y must break
    rng = np.random.default_rng(12)
    pts = rng.normal(size=(300, 3))
    if case == "tied x":
        pts[:, 0] = rng.integers(0, 6, size=300)
    elif case == "signed zeros":
        pts[::3, 0] = rng.choice([0.0, -0.0], size=100)
    elif case == "duplicates":
        pts = np.repeat(pts[:30], 10, axis=0)[rng.permutation(300)]
    expected = pts[np.lexsort((pts[:, 2], pts[:, 1], pts[:, 0]))]
    assert em._sorted_points(pts).tobytes() == expected.tobytes()


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
