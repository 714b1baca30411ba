"""Product-manifold geodesic laws, projection, matching, and interpolation."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import (
    assert_moments_close,
    mixture_moments,
    near_singular_spd,
    random_gmm,
    random_spd,
    spd_distance,
    sphere_distance,
    unit_gmm,
)
from gmmcloud.embedding import arc_distance, embed, make_probe_set
from gmmcloud.geodesics import (
    DEFAULT_TS,
    dominant_member,
    interpolate_point_clouds,
    match_components,
    product_geodesic,
    project_to_k,
    reorder_components,
    sphere_geodesic,
    spd_geodesic,
)
from gmmcloud.model import (
    DegenerateCovarianceError,
    EnsembleMember,
    Gmm,
    GmmEnsemble,
    PointCloud,
)
from gmmcloud.shapes import make_bent_tube, tube_spec_for_class


def random_unit_nonneg(rng, k):
    v = np.abs(rng.normal(size=k)) + 1e-3
    return v / np.linalg.norm(v)


# ---------------------------------------------------- square-root weights


def test_sqrt_weight_map():
    # sqrt weights (1/2, sqrt(3)/2) and (sqrt(3)/2, 1/2) sit at 60 and 30
    # degrees on the circle; the path between them is the arc, so the
    # weights at t are (cos^2, sin^2) of 60 - 30 t degrees
    a = unit_gmm([0.25, 0.75], np.zeros((2, 3)))
    b = unit_gmm([0.75, 0.25], np.ones((2, 3)))
    for t in (0.25, 0.5, 0.75):
        angle = math.radians(60.0 - 30.0 * t)
        np.testing.assert_allclose(product_geodesic(a, b, t).weights,
                                   [math.cos(angle) ** 2, math.sin(angle) ** 2], atol=1e-15)


def test_uniform_weights_map_to_uniform_sphere_point():
    k = 4
    a = unit_gmm(np.full(k, 0.25), [[float(j), 0.0, 0.0] for j in range(k)])
    b = unit_gmm(np.full(k, 0.25), [[0.0, float(j), 0.0] for j in range(k)])
    np.testing.assert_allclose(product_geodesic(a, b, 0.4).weights, 0.25, atol=1e-15)


def test_zero_weight_component_survives_round_trip():
    a = unit_gmm([1.0, 0.0], [[0.0, 0.0, 0.0], [5.0, 0.0, 0.0]])
    b = unit_gmm([1.0, 0.0], [[0.0, 1.0, 0.0], [5.0, 1.0, 0.0]])
    model = product_geodesic(a, b, 0.5)
    assert model.k == 2
    assert model.weights[0] == 1.0
    assert model.weights[1] == 0.0
    half = unit_gmm([0.5, 0.5], np.zeros((2, 3)))
    np.testing.assert_allclose(product_geodesic(half, half, 0.5).weights, 0.5, atol=1e-15)


# ----------------------------------------------------------- projection


def test_project_identity():
    model = random_gmm(np.random.default_rng(3), 4)
    same = project_to_k(model, 4)
    assert same.k == 4
    np.testing.assert_allclose(same.weights, model.weights, atol=1e-15)
    np.testing.assert_allclose(same.means, model.means, atol=1e-15)
    np.testing.assert_allclose(same.covariances, model.covariances, atol=1e-15)


def test_project_merge_formula():
    m1, m2 = np.array([1.0, 0.0, 0.0]), np.array([0.0, 2.0, 0.0])
    s1, s2 = np.diag([1.0, 2.0, 3.0]), np.eye(3)
    merged = project_to_k(Gmm([0.5, 0.5], [m1, m2], [s1, s2]), 1)
    assert merged.weights[0] == 1.0
    np.testing.assert_allclose(merged.means[0], 0.5 * (m1 + m2), atol=1e-15)
    d = m1 - m2
    expected = 0.5 * (s1 + s2) + 0.25 * np.outer(d, d)
    np.testing.assert_allclose(merged.covariances[0], expected, atol=1e-14)


def test_project_preserves_mixture_moments():
    rng = np.random.default_rng(5)
    model = random_gmm(rng, 6)
    mean_before, cov_before = mixture_moments(model)
    for k_target in (4, 2, 1):
        reduced = project_to_k(model, k_target)
        assert reduced.k == k_target
        mean_after, cov_after = mixture_moments(reduced)
        np.testing.assert_allclose(mean_after, mean_before, atol=1e-10)
        np.testing.assert_allclose(cov_after, cov_before, atol=1e-10)


def test_project_merges_nearest_pair_first():
    model = unit_gmm([0.25, 0.25, 0.5], [[0.0, 0.0, 0.0], [0.1, 0.0, 0.0], [50.0, 0.0, 0.0]])
    reduced = project_to_k(model, 2)
    means = np.sort(reduced.means[:, 0])
    np.testing.assert_allclose(means, [0.05, 50.0], atol=1e-12)


def test_project_rejects_bad_targets():
    model = random_gmm(np.random.default_rng(6), 2)
    with pytest.raises(ValueError):
        project_to_k(model, 0)
    with pytest.raises(ValueError, match="project"):
        project_to_k(model, 3)


# ------------------------------------------------------------- matching


def test_match_identity_and_reversal():
    model = random_gmm(np.random.default_rng(7), 4)
    np.testing.assert_array_equal(match_components(model, model), np.arange(4))
    reversed_model = Gmm(model.weights[::-1], model.means[::-1], model.covariances[::-1])
    np.testing.assert_array_equal(match_components(model, reversed_model),
                                  np.array([3, 2, 1, 0]))


@pytest.mark.parametrize("k", [3, 9])
def test_match_equals_brute_force(k):
    # both sizes go through the assignment solver; k = 9 is about the
    # largest the brute-force oracle below enumerates quickly
    rng = np.random.default_rng(8 + k)
    a = random_gmm(rng, k)
    b = random_gmm(rng, k)
    cost = np.sum((a.means[:, None, :] - b.means[None, :, :]) ** 2, axis=2)
    rows = cost.tolist()
    best_cost = min(
        math.fsum(rows[i][j] for i, j in enumerate(perm))
        for perm in itertools.permutations(range(k))
    )
    got = match_components(a, b)
    assert math.isclose(float(cost[np.arange(k), got].sum()), best_cost, rel_tol=1e-10)


def test_match_requires_equal_counts():
    rng = np.random.default_rng(10)
    with pytest.raises(ValueError, match="differ"):
        match_components(random_gmm(rng, 2), random_gmm(rng, 3))


def test_reorder_components():
    model = random_gmm(np.random.default_rng(11), 3)
    swapped = reorder_components(model, [2, 0, 1])
    for got, original in ((swapped.weights, model.weights), (swapped.means, model.means),
                          (swapped.covariances, model.covariances)):
        np.testing.assert_array_equal(got, original[[2, 0, 1]])
    with pytest.raises(ValueError, match="permutation"):
        reorder_components(model, [0, 0, 1])


# ---------------------------------------------------------- sphere slot


def test_sphere_geodesic_endpoints():
    rng = np.random.default_rng(12)
    w1, w2 = random_unit_nonneg(rng, 4), random_unit_nonneg(rng, 4)
    np.testing.assert_allclose(sphere_geodesic(w1, w2, 0.0), w1, atol=1e-14)
    np.testing.assert_allclose(sphere_geodesic(w1, w2, 1.0), w2, atol=1e-14)


def test_sphere_geodesic_quarter_circle_midpoint():
    mid = sphere_geodesic(np.array([1.0, 0.0]), np.array([0.0, 1.0]), 0.5)
    np.testing.assert_allclose(mid, np.full(2, 1.0 / math.sqrt(2.0)), atol=1e-15)


@given(seed=st.integers(0, 2**32 - 1), t=st.floats(0.0, 1.0))
def test_sphere_geodesic_stays_unit_and_additive(seed, t):
    rng = np.random.default_rng(seed)
    w1, w2 = random_unit_nonneg(rng, 5), random_unit_nonneg(rng, 5)
    out = sphere_geodesic(w1, w2, t)
    assert abs(float(np.linalg.norm(out)) - 1.0) < 1e-12
    theta = sphere_distance(w1, w2)
    # arccos is ill-conditioned next to the start point, so only check
    # additivity once the arc is long enough to measure
    if t * theta > 1e-3:
        assert abs(sphere_distance(w1, out) - t * theta) < 1e-10


def test_sphere_geodesic_degenerate_pair():
    w = random_unit_nonneg(np.random.default_rng(13), 3)
    np.testing.assert_allclose(sphere_geodesic(w, w, 0.37), w, atol=1e-12)


def test_sphere_geodesic_input_checks():
    w = np.array([1.0, 0.0])
    with pytest.raises(ValueError, match="unit"):
        sphere_geodesic(np.array([2.0, 0.0]), w, 0.5)
    with pytest.raises(ValueError, match="0, 1"):
        sphere_geodesic(w, w, 1.5)
    with pytest.raises(ValueError, match=">= 0"):
        sphere_geodesic(np.array([1.0, 0.0]), np.array([-1.0, 0.0]), 0.5)


# ------------------------------------------------------------- SPD slot


def test_spd_geodesic_endpoints():
    rng = np.random.default_rng(14)
    s1, s2 = random_spd(rng), random_spd(rng)
    np.testing.assert_allclose(spd_geodesic(s1, s2, 0.0), s1, atol=1e-10)
    np.testing.assert_allclose(spd_geodesic(s1, s2, 1.0), s2, atol=1e-10)


def test_spd_geometric_mean_of_commuting_pair():
    mid = spd_geodesic(np.eye(3), np.diag([4.0, 1.0, 1.0]), 0.5)
    np.testing.assert_allclose(mid, np.diag([2.0, 1.0, 1.0]), atol=1e-12)


def test_spd_commuting_pair_matches_scalar_powers():
    a = np.array([2.0, 0.5, 1.0])
    b = np.array([8.0, 4.5, 0.2])
    for t in (0.25, 0.5, 0.75):
        out = spd_geodesic(np.diag(a), np.diag(b), t)
        np.testing.assert_allclose(out, np.diag(a ** (1 - t) * b ** t), atol=1e-10)


def test_spd_geodesic_additivity():
    rng = np.random.default_rng(15)
    s1, s2 = random_spd(rng), random_spd(rng)
    total = spd_distance(s1, s2)
    for s in (0.25, 0.5, 0.75):
        gamma = spd_geodesic(s1, s2, s)
        assert abs(spd_distance(s1, gamma) - s * total) < 1e-8


def test_spd_gl_invariance():
    rng = np.random.default_rng(16)
    for _ in range(20):
        a = rng.normal(size=(3, 3))
        s1, s2 = random_spd(rng), random_spd(rng)
        t = float(rng.uniform())
        direct = a @ spd_geodesic(s1, s2, t) @ a.T
        congruent = spd_geodesic(a @ s1 @ a.T, a @ s2 @ a.T, t)
        rel = np.linalg.norm(direct - congruent) / np.linalg.norm(direct)
        assert rel < 1e-8


def test_spd_outputs_stay_positive():
    rng = np.random.default_rng(17)
    s1 = random_spd(rng, scale=1e-3)
    s2 = random_spd(rng, scale=1e3)
    for t in np.linspace(0.0, 1.0, 7):
        lam = np.linalg.eigvalsh(spd_geodesic(s1, s2, float(t)))
        assert np.all(lam > 0.0)


def test_spd_geodesic_from_identity_and_distance_basics():
    # from the identity the geodesic is the matrix power, checked against
    # numpy's own eigendecomposition
    s = random_spd(np.random.default_rng(18))
    lam, q = np.linalg.eigh(s)
    for t, atol in ((1.0, 1e-12), (0.5, 1e-10)):
        oracle = (q * lam ** t) @ q.T
        np.testing.assert_allclose(spd_geodesic(np.eye(3), s, t), oracle, atol=atol)
    half = spd_geodesic(np.eye(3), s, 0.5)
    np.testing.assert_allclose(half @ half, s, atol=1e-10)
    assert spd_distance(s, s) < 1e-12
    s2 = random_spd(np.random.default_rng(19))
    assert abs(spd_distance(s, s2) - spd_distance(s2, s)) < 1e-12


def test_spd_distance_of_stacks_is_the_product_distance():
    rng = np.random.default_rng(21)
    for k in (2, 3):
        s1 = np.stack([random_spd(rng) for _ in range(k)])
        s2 = np.stack([random_spd(rng) for _ in range(k)])
        slots = [spd_distance(a, b) for a, b in zip(s1, s2)]
        assert math.isclose(spd_distance(s1, s2), math.sqrt(sum(d * d for d in slots)),
                            rel_tol=1e-12)


@pytest.mark.parametrize("seed", range(4))
def test_spd_geodesic_from_near_singular_covariance_is_finite(seed):
    # a near-singular covariance Gmm accepts beside the identity whitens
    # in its own eigenbasis, so the walk from it to the identity and the
    # distance between them stay finite
    rng = np.random.default_rng(seed)
    for _ in range(60):
        s = near_singular_spd(rng)
        try:
            Gmm([0.5, 0.5], np.zeros((2, 3)), np.stack([np.eye(3), s]))
        except DegenerateCovarianceError:
            continue
        for t in DEFAULT_TS:
            assert np.all(np.isfinite(spd_geodesic(s, np.eye(3), t)))
        assert math.isfinite(spd_distance(s, np.eye(3)))


def accepted_beside_the_identity(s):
    try:
        Gmm([0.5, 0.5], np.zeros((2, 3)), np.stack([np.eye(3), s]))
    except DegenerateCovarianceError:
        return False
    return True


def test_spd_geodesic_returns_its_endpoints_and_stays_valid_beside_the_identity():
    # of 3 000 near-singular covariances, the 1 534 that Gmm accepts beside
    # the identity stay acceptable at every t of the walk to and from it,
    # and on the walks between consecutive ones: t = 0 and 1 return the
    # endpoints themselves, not products of their factors, and no
    # whitened matrix of a near-singular pair is formed or validated
    rng = np.random.default_rng(2024)
    stack = np.stack([s for s in (near_singular_spd(rng) for _ in range(3000))
                      if accepted_beside_the_identity(s)])
    assert len(stack) == 1534
    eyes = np.broadcast_to(np.eye(3), stack.shape)
    for s1, s2 in ((stack, eyes), (eyes, stack), (stack[:-1], stack[1:])):
        assert spd_geodesic(s1, s2, 0.0).tobytes() == s1.tobytes()
        assert spd_geodesic(s1, s2, 1.0).tobytes() == s2.tobytes()
        weights = np.full(len(s1), 1.0 / len(s1))
        for t in DEFAULT_TS:
            Gmm(weights, np.zeros((len(s1), 3)), spd_geodesic(s1, s2, t))


def test_spd_rejects_non_spd_input():
    with pytest.raises(DegenerateCovarianceError):
        spd_geodesic(np.diag([1.0, 1.0, -1.0]), np.eye(3), 0.5)
    with pytest.raises(DegenerateCovarianceError):
        spd_distance(np.eye(3), np.diag([1.0, 0.0, 1.0]))
    # S2 is validated like S1, in either argument order
    skew = np.eye(3)
    skew[0, 1] = 0.3
    message = "^covariance asymmetry 3.000e-01 exceeds 1e-12$"
    for s1, s2 in ((np.eye(3), skew), (skew, np.eye(3))):
        for t in (0.0, 0.5, 1.0):
            with pytest.raises(DegenerateCovarianceError, match=message):
                spd_geodesic(s1, s2, t)
        with pytest.raises(DegenerateCovarianceError, match=message):
            spd_distance(s1, s2)


# --------------------------------------------------------- product path


def test_product_geodesic_endpoints_and_midpoint():
    rng = np.random.default_rng(20)
    a, b = random_gmm(rng, 3), random_gmm(rng, 3)
    start = product_geodesic(a, b, 0.0)
    end = product_geodesic(a, b, 1.0)
    np.testing.assert_allclose(np.sqrt(start.weights), np.sqrt(a.weights), atol=1e-10)
    np.testing.assert_allclose(start.means, a.means, atol=1e-10)
    np.testing.assert_allclose(start.covariances, a.covariances, atol=1e-10)
    np.testing.assert_allclose(np.sqrt(end.weights), np.sqrt(b.weights), atol=1e-10)
    np.testing.assert_allclose(end.means, b.means, atol=1e-10)
    np.testing.assert_allclose(end.covariances, b.covariances, atol=1e-10)
    mid = product_geodesic(a, b, 0.5)
    np.testing.assert_array_equal(mid.means, 0.5 * a.means + 0.5 * b.means)


def test_product_geodesic_constant_path():
    p = random_gmm(np.random.default_rng(21), 2)
    for t in (0.0, 0.3, 1.0):
        q = product_geodesic(p, p, t)
        np.testing.assert_allclose(np.sqrt(q.weights), np.sqrt(p.weights), atol=1e-12)
        np.testing.assert_allclose(q.means, p.means, atol=1e-12)
        np.testing.assert_allclose(q.covariances, p.covariances, atol=1e-10)


def test_product_geodesic_rejects_mismatched_k():
    rng = np.random.default_rng(22)
    a, b = random_gmm(rng, 2), random_gmm(rng, 3)
    shapes = r"^covariance shapes differ: \(2, 3, 3\) vs \(3, 3, 3\)$"
    # the endpoints too, where spd_geodesic returns a stack without a pencil
    for t in (0.0, 0.5, 1.0):
        with pytest.raises(ValueError, match=shapes):
            product_geodesic(a, b, t)
        with pytest.raises(ValueError, match=shapes):
            spd_geodesic(a.covariances, b.covariances, t)
    with pytest.raises(ValueError, match=shapes):
        spd_distance(a.covariances, b.covariances)
    # a single matrix is not broadcast against a stack
    with pytest.raises(ValueError, match=r"^covariance shapes differ: \(3, 3\) vs \(2, 3, 3\)$"):
        spd_distance(np.eye(3), np.stack([np.eye(3), 2.0 * np.eye(3)]))


# -------------------------------------------------------- interpolation


def test_dominant_member_prefers_weight_then_smaller_k():
    rng = np.random.default_rng(23)
    m1, m2 = random_gmm(rng, 1), random_gmm(rng, 2)
    heavy = GmmEnsemble((EnsembleMember(0.7, m2), EnsembleMember(0.3, m1)))
    assert dominant_member(heavy) is m2
    tied = GmmEnsemble((EnsembleMember(0.5, m2), EnsembleMember(0.5, m1)))
    assert dominant_member(tied) is m1


def test_interpolate_t_zero_samples_source_model():
    cloud = make_bent_tube(tube_spec_for_class("nondemented", n_points=600), seed=0)
    result = interpolate_point_clouds(cloud, cloud, ts=(0.0,), n_out=5000,
                                      candidate_ks=(2, 4), seed=0)
    assert result.ts == (0.0,)
    assert len(result.frames) == 1
    assert len(result.frames[0]) == 5000
    assert_moments_close(result.frames[0].points, cloud.points, rel=0.05)


def test_interpolate_identical_clouds_stay_close():
    rng = np.random.default_rng(24)
    cloud = make_bent_tube(tube_spec_for_class("demented", n_points=400), seed=1)
    unrelated = PointCloud(np.array([30.0, 30.0, 30.0]) + rng.normal(size=(400, 3)))
    result = interpolate_point_clouds(cloud, cloud, ts=(0.0, 0.5, 1.0), candidate_ks=(2,),
                                      seed=0)
    assert all(len(f) == 400 for f in result.frames)
    other = interpolate_point_clouds(unrelated, unrelated, ts=(0.0,), candidate_ks=(2,), seed=0)
    probe_set = make_probe_set([cloud, unrelated], seed=0)
    frame_embeddings = [embed(m, probe_set) for m in result.models]
    cross = arc_distance(embed(result.models[0], probe_set),
                         embed(other.models[0], probe_set))
    for e1, e2 in itertools.combinations(frame_embeddings, 2):
        assert arc_distance(e1, e2) < cross


def test_interpolate_default_grid():
    assert DEFAULT_TS == (0.0, 0.2, 0.4, 0.6, 0.8, 1.0)


def test_interpolate_validates_arguments():
    cloud = make_bent_tube(tube_spec_for_class("demented", n_points=60), seed=2)
    with pytest.raises(ValueError):
        interpolate_point_clouds(cloud, cloud, ts=(), candidate_ks=(2,))
    with pytest.raises(ValueError):
        interpolate_point_clouds(cloud, cloud, ts=(1.2,), candidate_ks=(2,))
    with pytest.raises(ValueError):
        interpolate_point_clouds(cloud, cloud, ts=(0.5,), n_out=0, candidate_ks=(2,))
    with pytest.raises(ValueError, match="at least one candidate"):
        interpolate_point_clouds(cloud, cloud, ts=(0.5,), candidate_ks=())
