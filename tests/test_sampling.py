"""Random streams, member and Gaussian draws, cloud generation."""

import math
import re

import numpy as np
import pytest

from conftest import (
    assert_moments_close,
    drawn_indices,
    grid_ensemble,
    mixture_moments,
    sample_mixture,
)
from gmmcloud.em import FitConfig, fit_em
from gmmcloud.embedding import embed, make_probe_set
from gmmcloud.geodesics import interpolate_point_clouds, project_to_k
from gmmcloud.model import (
    EnsembleMember,
    Gmm,
    GmmEnsemble,
    PointCloud,
)
from gmmcloud.sampling import generate_point_cloud, rng_stream
from gmmcloud.selection import (akaike_weights, build_ensemble, build_ensembles,
                                default_candidate_ks)
from gmmcloud.shapes import TubeSpec, make_bent_tube, tube_spec_for_class


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


@pytest.mark.parametrize("seed", [1.9, "1", True, None, np.float64(1.0), np.bool_(True)])
def test_stream_seed_must_be_an_integer(seed):
    # int(seed) would key each of these as a valid seed
    with pytest.raises(ValueError, match=re.escape(f"seed must be an integer, got {seed!r}")):
        rng_stream(seed)


def test_stream_takes_numpy_integer_seeds():
    for seed in (np.int64(7), np.uint8(7)):
        np.testing.assert_array_equal(rng_stream(seed, 2).random(4), rng_stream(7, 2).random(4))


# ---------------------------------------------------- integer arguments

SMALL_TUBE = make_bent_tube(tube_spec_for_class("demented", n_points=40), seed=0)
OTHER_TUBE = make_bent_tube(tube_spec_for_class("nondemented", n_points=40), seed=1)

# every integer argument beside the seeds, each checked by
# sampling.checked_integer: (the name its message gives, a call that
# passes the argument on and returns a value whose repr shows its bits
# and types)
INTEGER_ARGUMENTS = {
    "stream_id": ("stream id", lambda v: rng_stream(0, v).random(3).tolist()),
    "fit_em_k": ("component count", lambda v: fit_em(SMALL_TUBE, v).model.means.tolist()),
    "build_ensemble_ks": ("component count",
                          lambda v: build_ensemble(SMALL_TUBE, (v,))[1].rows),
    "build_ensembles_ks": ("component count",
                           lambda v: build_ensembles([SMALL_TUBE], (1, v))[0][1].rows),
    "akaike_weights_k": ("component count", lambda v: akaike_weights([(v, 1.0)]).rows),
    "default_candidate_ks_n": ("point count", default_candidate_ks),
    "project_to_k": ("target component count",
                     lambda v: project_to_k(uniform_gmm(3), v).means.tolist()),
    "generate_point_cloud_n": ("sample count", lambda v: generate_point_cloud(
        uniform_gmm(2), v, rng_stream(0)).points.tolist()),
    "make_probe_set_count": ("probe count",
                             lambda v: make_probe_set([SMALL_TUBE], 0, v).probes.tolist()),
    "interpolate_n_out": ("output cloud size", lambda v: interpolate_point_clouds(
        SMALL_TUBE, OTHER_TUBE, ts=(0.5,), n_out=v, candidate_ks=(1,)
    ).frames[0].points.tolist()),
    "tube_n_points": ("n_points", lambda v: make_bent_tube(
        TubeSpec(10.0, 1.0, 1.0, 0.1, v), seed=0).points.tolist()),
}


@pytest.mark.parametrize("value", [2.5, True, np.float64(2.0), np.bool_(True), "2"])
@pytest.mark.parametrize("argument", sorted(INTEGER_ARGUMENTS))
def test_integer_arguments_refuse_what_is_not_an_integer(argument, value):
    # int() or a bare comparison took each of these as a count or a K, or
    # failed later with NumPy's TypeError
    name, call = INTEGER_ARGUMENTS[argument]
    with pytest.raises(ValueError, match=re.escape(f"{name} must be an integer, got {value!r}")):
        call(value)


@pytest.mark.parametrize("kind", [np.int64, np.uint8])
@pytest.mark.parametrize("argument", sorted(INTEGER_ARGUMENTS))
def test_integer_arguments_take_numpy_integers(argument, kind):
    _, call = INTEGER_ARGUMENTS[argument]
    assert repr(call(kind(2))) == repr(call(2))


# ------------------------------------------------------- member draws


def member_draws(probs, seed, n):
    """Member indices of n draws from an ensemble whose members have the
    selection probabilities probs."""
    ensemble = grid_ensemble(probs, [np.full(k + 1, 1.0 / (k + 1)) for k in range(len(probs))])
    return drawn_indices(ensemble, n, seed)[0]


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
    return Gmm([1.0], [mean], [cov])


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
    ensemble = grid_ensemble((0.5, 0.5), (np.full(2, 0.5), np.full(4, 0.25)))
    n = 1_000_000
    member_idx, component_idx = drawn_indices(ensemble, n, 42)
    for k, member in enumerate(ensemble.members):
        for j, weight in enumerate(member.model.weights):
            p = ensemble.members[k].weight * weight
            freq = float(np.mean((member_idx == k) & (component_idx == j)))
            sigma = math.sqrt(p * (1.0 - p) / n)
            assert abs(freq - p) < 4.0 * sigma, (k, j, freq, p)


def test_assignments_single_member_reduce():
    ensemble = grid_ensemble((1.0,), (np.full(3, 1.0 / 3.0),))
    member_idx, component_idx = drawn_indices(ensemble, 500, 6)
    assert np.all(member_idx == 0)
    assert set(np.unique(component_idx)) == {0, 1, 2}
    # a one-member ensemble draws the very points of its mixture
    model = ensemble.members[0].model
    np.testing.assert_array_equal(
        generate_point_cloud(ensemble, 500, rng_stream(6)).points,
        generate_point_cloud(model, 500, rng_stream(6)).points)


def test_assignments_reject_bad_count():
    for model in (uniform_gmm(1), GmmEnsemble((EnsembleMember(1.0, uniform_gmm(1)),))):
        with pytest.raises(ValueError, match="count"):
            generate_point_cloud(model, 0, rng_stream(0))


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_ensemble_with_weight_sums_at_tolerance_samples_and_embeds(sign):
    # member and component weights each sum 0.9e-9 off one, as the
    # constructors allow, so the flat weights sum about 1.8e-9 off: more
    # than a single Gmm accepts
    off = sign * 0.9e-9
    ensemble = GmmEnsemble((
        EnsembleMember(0.25 + off / 2, uniform_gmm(1)),
        EnsembleMember(0.75 + off / 2, Gmm([0.5 + off / 2, 0.5 + off / 2],
                                           [[0.0, 3.0, 0.0], [3.0, 3.0, 0.0]],
                                           [np.eye(3)] * 2)),
    ))
    flat_total = math.fsum(m.weight * w for m in ensemble.members for w in m.model.weights)
    assert abs(flat_total - 1.0) > 1e-9
    cloud = generate_point_cloud(ensemble, 1000, rng_stream(3))
    assert len(cloud) == 1000
    probe_set = make_probe_set([cloud], seed=0, count=50)
    assert embed(ensemble, probe_set).coords.size == 50


def test_generate_is_deterministic_per_stream():
    ensemble = GmmEnsemble((EnsembleMember(1.0, uniform_gmm(2)),))
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
    cloud = generate_point_cloud(model, 200_000, rng_stream(8))
    mean, cov = mixture_moments(model)
    assert float(np.linalg.norm(cloud.points.mean(axis=0) - mean)) < 0.02
    diff = cloud.points - cloud.points.mean(axis=0)
    sample_cov = diff.T @ diff / len(cloud)
    assert float(np.linalg.norm(sample_cov - cov)) < 0.05


def test_regenerated_tube_matches_training_moments(fitted_tube):
    cloud, model = fitted_tube
    regen = generate_point_cloud(model, 5000, rng_stream(9))
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
    mean, cov = mixture_moments(ensemble)
    # oracle: the law of total mean and covariance over the members
    oracle_mean, oracle_second = np.zeros(3), np.zeros((3, 3))
    for member in ensemble.members:
        m, c = mixture_moments(member.model)
        oracle_mean += member.weight * m
        oracle_second += member.weight * (c + np.outer(m, m))
    np.testing.assert_allclose(mean, oracle_mean, atol=1e-12)
    np.testing.assert_allclose(cov, oracle_second - np.outer(oracle_mean, oracle_mean),
                               atol=1e-12)
