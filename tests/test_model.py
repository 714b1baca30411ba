"""Core types and density evaluation against analytic oracles."""

import dataclasses
import math
import warnings
import pickle
import re

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
from gmmcloud.em import m_step
from gmmcloud.embedding import ProbeSet, SphereEmbedding, embed, make_probe_set
from gmmcloud.geodesics import product_geodesic
from gmmcloud.model import (
    ABSOLUTE_COV_FLOOR,
    EXP_FLOOR,
    LOG_TWO_PI,
    DegenerateCovarianceError,
    EnsembleMember,
    Gmm,
    GmmEnsemble,
    WEIGHT_SUM_TOL,
    PointCloud,
    checked_array,
    covariance_floor,
    ensemble_log_density,
    floor_spd,
    gmm_log_density,
    softmax_columns,
)
from gmmcloud.sampling import generate_point_cloud, rng_stream
from gmmcloud.shapes import add_outliers

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
    # covariances come as a (K, 3, 3) stack, a single matrix too
    for shape in ((3, 3), (2, 2), (3,), (2, 3, 4), (1, 1, 3, 3)):
        with pytest.raises(ValueError, match=re.escape(
                f"covariances must have shape (1, 3, 3), got {shape}")):
            Gmm([1.0], np.zeros((1, 3)), np.ones(shape))


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
    (lambda w, m, c: (w[None], m, c), ValueError, r"weights must be a non-empty \(K,\)"),
    (lambda w, m, c: (w[:0], m[:0], c[:0]), ValueError, r"weights must be a non-empty \(K,\)"),
    (lambda w, m, c: (w, m[:, :2], c), ValueError, "means"),
    (lambda w, m, c: (w, np.where(m == 4.0, np.inf, m), c), ValueError, "means must be finite"),
    (lambda w, m, c: (w, m, c[:-1]), ValueError, "covariances"),
    (lambda w, m, c: (w + 2.0 * WEIGHT_SUM_TOL, m, c), ValueError, "sum"),
    (lambda w, m, c: (w, m, _not_spd_at_one(c)), DegenerateCovarianceError,
     r"degenerate covariance.*\(component 1\)"),
], ids=["weights-2d", "weights-empty", "means-k-by-2", "means-inf", "covariances-k-minus-1",
        "weight-sum", "one-not-spd"])
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
], ids=["Gmm", "PointCloud", "ProbeSet", "SphereEmbedding"])


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
    if isinstance(original, Gmm):
        # the factor is no field: the copy's constructor computes it again
        for got, expected in zip(copy.factor, original.factor, strict=True):
            np.testing.assert_array_equal(got, expected)
            assert not got.flags.writeable


@ARRAY_TYPES
def test_array_types_hash_and_compare_by_identity(make):
    a, b = make(), make()
    assert isinstance(hash(a), int)
    assert {a: 1}[a] == 1
    assert (a == a) is True
    assert (a == b) is False
    assert (a != b) is True


def test_checked_array_returns_a_read_only_float_copy():
    value = np.array([[1, 2, 3]])
    arr = checked_array("points", value, (None, 3), "an (N, 3) array")
    assert arr.dtype == float and not arr.flags.writeable
    value[0, 0] = 7
    np.testing.assert_array_equal(arr, [[1.0, 2.0, 3.0]])


_UNIT_BOX = np.array([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]])
_TWO_COVS = np.stack([np.eye(3)] * 2)

# every site that takes an array through checked_array: (the argument's
# name, a valid value, a call that passes a value in its place)
ARRAY_SITES = {
    "PointCloud.points": ("points", np.eye(3), PointCloud),
    "Gmm.weights": ("weights", np.array([0.5, 0.5]),
                    lambda w: Gmm(w, np.zeros((2, 3)), _TWO_COVS)),
    "Gmm.means": ("means", np.zeros((2, 3)),
                  lambda m: Gmm(np.array([0.5, 0.5]), m, _TWO_COVS)),
    "ProbeSet.probes": ("probes", np.full((4, 3), 0.5), lambda p: ProbeSet(p, _UNIT_BOX, 0)),
    "ProbeSet.bounds": ("bounds", _UNIT_BOX, lambda b: ProbeSet(np.full((4, 3), 0.5), b, 0)),
    "SphereEmbedding.coords": ("coords", np.full(4, 0.5), SphereEmbedding),
    "m_step.responsibilities": ("responsibilities", np.array([[0.5, 0.5], [1.0, 0.0]]),
                                lambda g: m_step(PointCloud(np.eye(3)[:2]), g)),
    "add_outliers.bounds": ("bounds", _UNIT_BOX,
                            lambda b: add_outliers(PointCloud(np.eye(3)), 0.5, b, 0)),
}


def _with_first(value, entry):
    out = value.copy()
    out.flat[0] = entry
    return out


def _ragged(value):
    """value as nested lists whose first row is one entry short, or whose
    first entry is a list"""
    out = value.tolist()
    out[0] = out[0][:-1] if value.ndim > 1 else [out[0]]
    return out


# each bad value made from a site's valid one, and the message it gets
BAD_ARRAYS = {
    "nan": (lambda v: _with_first(v, np.nan), "finite$"),
    "inf": (lambda v: _with_first(v, -np.inf), "finite$"),
    "extra-axis": (lambda v: v[None], r".+, got shape \(1, "),
    "zero-length": (lambda v: v[:0], r".+, got shape \(0"),
    # no entry is read as a number unless it is one: not True as 1.0, nor
    # "0.5" as 0.5
    "bool": (lambda v: v != 0.0, "numbers, got dtype bool$"),
    "string": (lambda v: v.astype(str), "numbers, got dtype <U"),
    "object": (lambda v: v.astype(object), "numbers, got dtype object$"),
    # not NumPy's "inhomogeneous shape", which names no field
    "ragged": (_ragged, "a rectangular array of numbers$"),
}


@pytest.mark.parametrize("bad", BAD_ARRAYS)
@pytest.mark.parametrize("site", ARRAY_SITES)
def test_every_array_site_refuses_a_bad_array_by_name(site, bad):
    name, good, call = ARRAY_SITES[site]
    call(good)
    change, message = BAD_ARRAYS[bad]
    with pytest.raises(ValueError, match=rf"^{name} must be {message}"):
        call(change(good))


@pytest.mark.parametrize("bad", ["bool", "string", "object", "ragged"])
def test_gmm_refuses_covariances_that_are_not_numbers(bad):
    # the covariances pass checked_spd, not checked_array, by the same
    # conversion
    change, message = BAD_ARRAYS[bad]
    with pytest.raises(ValueError, match=rf"^covariances must be {message}"):
        Gmm([0.5, 0.5], np.zeros((2, 3)), change(_TWO_COVS))


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
    with pytest.raises(ValueError, match="an ensemble needs at least one member"):
        GmmEnsemble(())


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
    # densities read the factor a Gmm keeps, so the mixture is where the
    # covariance is rejected
    with pytest.raises(DegenerateCovarianceError, match="degenerate covariance"):
        Gmm(np.ones(1), np.zeros((1, 3)), np.diag([1.0, 1.0, 0.0])[None])


def test_density_rejects_nan_covariance():
    # np.linalg.cholesky does not raise on a NaN; a NaN eigenvalue is not > 0
    covs = np.stack([np.eye(3)] * 2)
    covs[1, 0, 0] = np.nan
    with pytest.raises(DegenerateCovarianceError,
                       match=r"^covariance must be finite \(component 1\)$"):
        Gmm(np.array([0.5, 0.5]), np.zeros((2, 3)), covs)


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
        walk = product_geodesic(unit_gmm([0.5, 0.5], np.zeros((2, 3))), model, 0.5)
        assert np.all(np.isfinite(walk.covariances))


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
    ll = gmm_log_density(np.zeros((1, 3)), unit_gmm()).sum()
    assert math.isclose(ll, -1.5 * math.log(2.0 * math.pi), rel_tol=1e-13)
    assert abs(ll - (-2.7568)) < 1e-4


def test_log_likelihood_doubles_for_duplicated_cloud():
    model = random_gmm(np.random.default_rng(5), 2)
    single = np.array([[0.5, -1.0, 2.0]])
    doubled = np.vstack([single, single])
    # one point goes through BLAS gemv, two through gemm, which may round
    # differently in the last bit
    assert math.isclose(gmm_log_density(doubled, model).sum(),
                        2.0 * gmm_log_density(single, model).sum(), rel_tol=1e-12)
    rng = np.random.default_rng(6)
    cloud = rng.normal(size=(60, 3))
    twice = np.vstack([cloud, cloud])
    assert math.isclose(gmm_log_density(twice, model).sum(),
                        2.0 * gmm_log_density(cloud, model).sum(), rel_tol=1e-12)


def test_log_likelihood_matches_naive_summation():
    rng = np.random.default_rng(9)
    model = random_gmm(rng, 3, spread=2.0)
    pts = sample_mixture(rng, 100, model.weights, model.means, model.covariances)
    naive = math.fsum(math.log(gmm_density(x, model)) for x in pts)
    assert abs(gmm_log_density(pts, model).sum() - naive) < 1e-9


def test_log_likelihood_survives_far_outlier():
    ll = gmm_log_density(np.array([[0.0, 0.0, 0.0], [50.0, 0.0, 0.0]]), unit_gmm()).sum()
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


# Shifted values at and about the floor, where exp is subnormal (below
# -708.4), the smallest subnormal (-745) and 0.
FLOOR_EDGES = (EXP_FLOOR, np.nextafter(EXP_FLOOR, -np.inf), np.nextafter(EXP_FLOOR, 0.0),
               -708.0, -708.5, -745.0, -746.0, -1e4)


def floor_crossing_table(seed, scale, k):
    """A (K, N) table of normal draws at the scale, with a zero-weight row
    and dead columns. When K > 1 its first columns peak at exactly 0 and
    hold one of FLOOR_EDGES each, so their shifted values are exact."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(len(FLOOR_EDGES) + 1, 300))
    table = np.ascontiguousarray(rng.normal(scale=scale, size=(n, k)).T)
    dead = rng.random(n) < 0.1
    dead[:len(FLOOR_EDGES)] = False
    table[:, dead] = -np.inf
    if k > 1:
        table[0] = -np.inf
        table[:, :len(FLOOR_EDGES)] = FLOOR_EDGES
        table[-1, :len(FLOOR_EDGES)] = 0.0
    return table


@given(seed=st.integers(0, 2**32 - 1), scale=st.floats(1.0, 2000.0), k=st.integers(1, 40))
def test_log_sum_exp_keeps_its_bits_past_the_exp_floor(seed, scale, k):
    table = floor_crossing_table(seed, scale, k)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = log_sum_exp_columns(table)
    assert out.tobytes() == masked_log_sum_exp_columns(table).tobytes()


@given(seed=st.integers(0, 2**32 - 1), scale=st.floats(1.0, 2000.0), k=st.integers(1, 40))
def test_responsibilities_are_exactly_zero_below_the_exp_floor(seed, scale, k):
    table = floor_crossing_table(seed, scale, k)
    peak = np.max(table, axis=0)
    live = np.isfinite(peak)
    shifted = table[:, live] - peak[live]
    terms = np.exp(shifted)
    expected = np.empty_like(table)
    # every term in the sum, subnormals too, in the order of a (K, N) C-order sum
    expected[:, live] = np.where(shifted < EXP_FLOOR, 0.0,
                                 terms / sum(terms[1:], start=terms[0]))
    expected[:, ~live] = 1.0 / k
    gamma = table.copy()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        softmax_columns(gamma)
    assert gamma.tobytes() == expected.tobytes()
    assert not np.any((gamma != 0.0) & (gamma < np.finfo(float).tiny))


def test_softmax_columns_takes_an_empty_batch_and_an_embedding_column():
    empty = np.empty((0, 8, 600))
    column = np.array([[-3.0], [0.0], [EXP_FLOOR], [-701.0], [-800.0], [-np.inf]])
    with warnings.catch_warnings(), np.errstate(all="raise"):
        warnings.simplefilter("error")
        assert softmax_columns(empty).shape == (0, 600)
        log_sum = softmax_columns(column)
    assert log_sum.shape == (1,) and math.isfinite(log_sum[0])
    assert np.all(column[:3] > 0.0) and np.all(column[3:] == 0.0)


def test_a_dead_component_scores_draws_and_embeds_as_its_live_one_alone():
    # a zero weight gives its row -inf; the dead component's parameters
    # change no bit, and the one-row product of the live component alone
    # differs only in BLAS rounding (gemv against gemm)
    rng = np.random.default_rng(5)
    live_mean, live_cov = np.array([1.0, 2.0, 3.0]), random_spd(rng, 0.5)
    dead = Gmm([0.0, 1.0], [[40.0, -3.0, 2.0], live_mean], [random_spd(rng), live_cov])
    other_dead = Gmm([0.0, 1.0], [[-7.0, 0.0, 0.0], live_mean], [9.0 * np.eye(3), live_cov])
    alone = Gmm([1.0], [live_mean], [live_cov])
    x = live_mean + 3.0 * rng.normal(size=(600, 3))
    score = gmm_log_density(x, dead)
    assert np.all(np.isfinite(score))
    np.testing.assert_array_equal(score, gmm_log_density(x, other_dead))
    np.testing.assert_array_max_ulp(score, gmm_log_density(x, alone), maxulp=8)
    drawn = generate_point_cloud(dead, 1000, rng_stream(3))
    np.testing.assert_array_equal(drawn.points,
                                  generate_point_cloud(alone, 1000, rng_stream(3)).points)
    probes = make_probe_set([drawn], seed=0)
    coords = embed(dead, probes).coords
    assert np.all(np.isfinite(coords))
    np.testing.assert_allclose(coords, embed(alone, probes).coords, rtol=1e-12)


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
    # one point has variance 0 wherever it lies
    assert covariance_floor(np.array([[1.5, -2.0, 3e8]])) == ABSOLUTE_COV_FLOOR


def test_floor_spd_clamps_eigenvalues():
    floored, (factor_lam, q) = floor_spd(np.diag([4.0, 1e-18, 0.0]), 1e-6)
    lam = np.linalg.eigvalsh(floored)
    assert lam.min() >= 1e-6 * (1.0 - 1e-12)
    assert math.isclose(lam.max(), 4.0, rel_tol=1e-12)
    assert np.array_equal(floored, floored.T)
    assert np.all(factor_lam >= 1e-6)
    np.testing.assert_allclose(q.T @ q, np.eye(3), rtol=0.0, atol=1e-15)
