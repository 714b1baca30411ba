"""Product-manifold geodesic laws, projection, matching, and interpolation."""

import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

from conftest import (
    assert_moments_close,
    eigh_spd_distance,
    mixture_moments,
    near_singular_spd,
    random_gmm,
    random_spd,
    slot_gmm,
    spd_distance,
    sphere_distance,
    unit_gmm,
)
from gmmcloud import selection
from gmmcloud.em import FitConfig
from gmmcloud.embedding import arc_distance, embed, make_probe_set
from gmmcloud.geodesics import (
    DEFAULT_TS,
    dominant_member,
    interpolate_point_clouds,
    match_components,
    product_geodesic,
    project_to_k,
)
from gmmcloud.model import (
    DegenerateCovarianceError,
    EnsembleMember,
    Gmm,
    GmmEnsemble,
    PointCloud,
)
from gmmcloud.selection import build_ensemble
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
        np.testing.assert_array_equal(reduced.covariances, np.swapaxes(reduced.covariances, 1, 2))
        mean_after, cov_after = mixture_moments(reduced)
        np.testing.assert_allclose(mean_after, mean_before, atol=1e-10)
        np.testing.assert_allclose(cov_after, cov_before, atol=1e-10)


def test_project_merging_two_dead_components_keeps_the_mixture():
    rng = np.random.default_rng(8)
    model = Gmm([0.0, 0.0, 0.25, 0.75], rng.normal(size=(4, 3)),
                [random_spd(rng) for _ in range(4)])
    reduced = project_to_k(model, 3)
    # the two dead components are merged first, into one dead component
    np.testing.assert_array_equal(reduced.weights, [0.0, 0.25, 0.75])
    np.testing.assert_array_equal(reduced.means[1:], model.means[2:])
    np.testing.assert_array_equal(reduced.covariances[1:], model.covariances[2:])
    for after, before in zip(mixture_moments(reduced), mixture_moments(model)):
        np.testing.assert_allclose(after, before, rtol=0.0, atol=1e-14)


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


def mean_cost(a, b):
    return np.sum((a.means[:, None, :] - b.means[None, :, :]) ** 2, axis=2)


@pytest.mark.parametrize("k", range(1, 33))
def test_match_equals_scipy_on_tie_free_costs(k):
    rng = np.random.default_rng(100 + k)
    a, b = random_gmm(rng, k), random_gmm(rng, k)
    np.testing.assert_array_equal(match_components(a, b),
                                  linear_sum_assignment(mean_cost(a, b))[1])


@pytest.mark.parametrize("k", range(1, 33))
def test_match_reaches_scipy_total_cost_on_tied_costs(k):
    # means on a coarse integer lattice: the squared distances are small
    # integers, summed exactly, with many ties and duplicate components
    rng = np.random.default_rng(200 + k)
    a, b = (unit_gmm(np.full(k, 1.0 / k), rng.integers(0, 3, size=(k, 3)))
            for _ in range(2))
    cost = mean_cost(a, b)
    rows, cols = linear_sum_assignment(cost)
    perm = match_components(a, b)
    assert sorted(perm.tolist()) == list(range(k))
    assert cost[np.arange(k), perm].sum() == cost[rows, cols].sum()


X, Y, Z = [0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [3.0, 0.0, 0.0]


@pytest.mark.parametrize("means_a, means_b, expected", [
    # every reduced cost ties at every step: component i's path visits
    # b's components 0, 1, ... and ends at i, the first one free
    ([X] * 4, [X] * 4, [0, 1, 2, 3]),
    ([X] * 4, [Y] * 4, [0, 1, 2, 3]),
    # a's duplicates: the first takes b's nearer component while it is
    # free, the second the other
    ([X, X], [Y, Z], [0, 1]),
    ([X, X], [Z, Y], [1, 0]),
    # a = (1, 1, 0), b = (0, 0, 1) on the x axis: 0 takes b's 2 at cost 0;
    # 1 reaches 2 (held) at 0, then 0 and 1 at 1 through it, and takes 0,
    # the lower; 2 reaches 0 and 1 at 0, visits 0 first (held by 1), and
    # through it takes 1, the lower free one at that distance. Pairing
    # 2 with 0 and 1 with 1 would cost the same.
    ([Y, Y, X], [X, X, Y], [2, 0, 1]),
])
def test_match_breaks_ties_by_its_stated_rule(means_a, means_b, expected):
    a = unit_gmm(np.full(len(means_a), 1.0 / len(means_a)), means_a)
    b = unit_gmm(np.full(len(means_b), 1.0 / len(means_b)), means_b)
    for _ in range(3):
        np.testing.assert_array_equal(match_components(a, b), expected)


def test_match_without_a_finite_cost_assignment_raises():
    near = unit_gmm([0.5, 0.5], [[0.0, 0.0, 0.0], [1e200, 0.0, 0.0]])
    far = unit_gmm([0.5, 0.5], [[-1e200, 0.0, 0.0], [-2e200, 0.0, 0.0]])
    with np.errstate(over="ignore"):
        # squared distances of 1e400 overflow to inf: off the diagonal only,
        # then everywhere
        np.testing.assert_array_equal(match_components(near, near), [0, 1])
        with pytest.raises(ValueError, match="finite cost"):
            match_components(far, near)


def test_match_requires_equal_counts():
    rng = np.random.default_rng(10)
    with pytest.raises(ValueError, match="differ"):
        match_components(random_gmm(rng, 2), random_gmm(rng, 3))


# ---------------------------------------------------------- sphere slot
#
# Each law of a slot is checked on product_geodesic between two mixtures
# that differ in that slot alone (slot_gmm); the sphere slot is read off
# the square roots of the weights.


def test_sphere_geodesic_endpoints():
    rng = np.random.default_rng(12)
    w1, w2 = random_unit_nonneg(rng, 4), random_unit_nonneg(rng, 4)
    a, b = slot_gmm(w1 ** 2), slot_gmm(w2 ** 2)
    np.testing.assert_allclose(np.sqrt(product_geodesic(a, b, 0.0).weights), w1, atol=1e-14)
    np.testing.assert_allclose(np.sqrt(product_geodesic(a, b, 1.0).weights), w2, atol=1e-14)


def test_sphere_geodesic_quarter_circle_midpoint():
    mid = product_geodesic(slot_gmm([1.0, 0.0]), slot_gmm([0.0, 1.0]), 0.5)
    np.testing.assert_allclose(np.sqrt(mid.weights), np.full(2, 1.0 / math.sqrt(2.0)),
                               atol=1e-15)


@given(seed=st.integers(0, 2**32 - 1), t=st.floats(0.0, 1.0))
def test_sphere_geodesic_stays_unit_and_additive(seed, t):
    rng = np.random.default_rng(seed)
    w1, w2 = random_unit_nonneg(rng, 5), random_unit_nonneg(rng, 5)
    out = np.sqrt(product_geodesic(slot_gmm(w1 ** 2), slot_gmm(w2 ** 2), t).weights)
    assert abs(float(np.linalg.norm(out)) - 1.0) < 1e-12
    theta = sphere_distance(w1, w2)
    # arccos is ill-conditioned next to the start point, so only check
    # additivity once the arc is long enough to measure
    if t * theta > 1e-3:
        assert abs(sphere_distance(w1, out) - t * theta) < 1e-10


def test_sphere_geodesic_degenerate_pair():
    w = random_unit_nonneg(np.random.default_rng(13), 3)
    mid = product_geodesic(slot_gmm(w ** 2), slot_gmm(w ** 2), 0.37)
    np.testing.assert_allclose(np.sqrt(mid.weights), w, atol=1e-12)


# ------------------------------------------------------------- SPD slot
#
# The covariance slot, between equal-weight mixtures of one matrix each
# or of (K, 3, 3) stacks.


def test_spd_geodesic_endpoints():
    rng = np.random.default_rng(14)
    s1, s2 = random_spd(rng), random_spd(rng)
    a, b = slot_gmm([s1]), slot_gmm([s2])
    np.testing.assert_allclose(product_geodesic(a, b, 0.0).covariances[0], s1, atol=1e-10)
    np.testing.assert_allclose(product_geodesic(a, b, 1.0).covariances[0], s2, atol=1e-10)


def test_spd_geometric_mean_of_commuting_pair():
    mid = product_geodesic(slot_gmm([np.eye(3)]), slot_gmm([np.diag([4.0, 1.0, 1.0])]), 0.5)
    np.testing.assert_allclose(mid.covariances[0], np.diag([2.0, 1.0, 1.0]), atol=1e-12)


def test_spd_commuting_pair_matches_scalar_powers():
    a = np.array([2.0, 0.5, 1.0])
    b = np.array([8.0, 4.5, 0.2])
    for t in (0.25, 0.5, 0.75):
        out = product_geodesic(slot_gmm([np.diag(a)]), slot_gmm([np.diag(b)]), t)
        np.testing.assert_allclose(out.covariances[0], np.diag(a ** (1 - t) * b ** t),
                                   atol=1e-10)


def test_spd_geodesic_additivity():
    rng = np.random.default_rng(15)
    s1, s2 = [random_spd(rng)], [random_spd(rng)]
    total = eigh_spd_distance(s1, s2)
    for s in (0.25, 0.5, 0.75):
        gamma = product_geodesic(slot_gmm(s1), slot_gmm(s2), s).covariances
        assert abs(eigh_spd_distance(s1, gamma) - s * total) < 1e-8


def test_spd_distance_of_the_pencil_equals_the_generalized_eigenvalue_oracle():
    rng = np.random.default_rng(23)
    for k in (1, 4):
        s1 = [random_spd(rng) for _ in range(k)]
        s2 = [random_spd(rng, scale=10.0) for _ in range(k)]
        assert math.isclose(spd_distance(s1, s2), eigh_spd_distance(s1, s2), rel_tol=1e-10)


def test_spd_gl_invariance():
    rng = np.random.default_rng(16)
    for _ in range(20):
        a = rng.normal(size=(3, 3))
        s1, s2 = random_spd(rng), random_spd(rng)
        t = float(rng.uniform())
        direct = a @ product_geodesic(slot_gmm([s1]), slot_gmm([s2]), t).covariances[0] @ a.T
        congruent = product_geodesic(slot_gmm([a @ s1 @ a.T]), slot_gmm([a @ s2 @ a.T]),
                                     t).covariances[0]
        rel = np.linalg.norm(direct - congruent) / np.linalg.norm(direct)
        assert rel < 1e-8


def test_spd_outputs_stay_positive():
    rng = np.random.default_rng(17)
    a = slot_gmm([random_spd(rng, scale=1e-3)])
    b = slot_gmm([random_spd(rng, scale=1e3)])
    for t in np.linspace(0.0, 1.0, 7):
        lam = np.linalg.eigvalsh(product_geodesic(a, b, float(t)).covariances)
        assert np.all(lam > 0.0)


def test_spd_geodesic_from_identity_and_distance_basics():
    # from the identity the geodesic is the matrix power, checked against
    # numpy's own eigendecomposition
    s = random_spd(np.random.default_rng(18))
    lam, q = np.linalg.eigh(s)
    eye, end = slot_gmm([np.eye(3)]), slot_gmm([s])
    for t, atol in ((1.0, 1e-12), (0.5, 1e-10)):
        oracle = (q * lam ** t) @ q.T
        np.testing.assert_allclose(product_geodesic(eye, end, t).covariances[0], oracle,
                                   atol=atol)
    half = product_geodesic(eye, end, 0.5).covariances[0]
    np.testing.assert_allclose(half @ half, s, atol=1e-10)
    assert spd_distance([s], [s]) < 1e-12
    s2 = random_spd(np.random.default_rng(19))
    assert abs(spd_distance([s], [s2]) - spd_distance([s2], [s])) < 1e-12


def test_spd_distance_of_stacks_is_the_product_distance():
    rng = np.random.default_rng(21)
    for k in (2, 3):
        s1 = np.stack([random_spd(rng) for _ in range(k)])
        s2 = np.stack([random_spd(rng) for _ in range(k)])
        slots = [spd_distance([a], [b]) for a, b in zip(s1, s2)]
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
            walk = product_geodesic(slot_gmm([s]), slot_gmm([np.eye(3)]), t)
            assert np.all(np.isfinite(walk.covariances))
        assert math.isfinite(spd_distance([s], [np.eye(3)]))


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
        a, b = slot_gmm(s1), slot_gmm(s2)
        assert product_geodesic(a, b, 0.0).covariances.tobytes() == s1.tobytes()
        assert product_geodesic(a, b, 1.0).covariances.tobytes() == s2.tobytes()
        # each mixture on the walk is a Gmm, so it is validated as it is built
        for t in DEFAULT_TS:
            product_geodesic(a, b, t)


def test_spd_rejects_non_spd_input():
    # product_geodesic walks between mixtures, whose covariances Gmm
    # validated; spd_distance validates its stacks the same way, S2 like
    # S1, in either argument order
    with pytest.raises(DegenerateCovarianceError):
        spd_distance([np.eye(3)], [np.diag([1.0, 0.0, 1.0])])
    skew = np.eye(3)
    skew[0, 1] = 0.3
    message = r"^covariance asymmetry 3.000e-01 exceeds 1e-12 \(component 0\)$"
    for s1, s2 in (([np.eye(3)], [skew]), ([skew], [np.eye(3)])):
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
    # the endpoints too, where the walk needs no pencil
    for t in (0.0, 0.5, 1.0):
        with pytest.raises(ValueError, match=r"^component counts differ: 2 vs 3$"):
            product_geodesic(a, b, t)
        with pytest.raises(ValueError, match=r"^component counts differ: 3 vs 2$"):
            product_geodesic(b, a, t)


@pytest.mark.parametrize("t", ["0.5", True, False, None, np.bool_(True), [0.5]],
                         ids=["string", "true", "false", "none", "numpy-bool", "list"])
def test_geodesics_refuse_a_t_that_is_no_real_number(t):
    rng = np.random.default_rng(23)
    a, b = random_gmm(rng, 2), random_gmm(rng, 2)
    message = re.escape(f"interpolation parameter must lie in [0, 1], got {t!r}")
    with pytest.raises(ValueError, match=message):
        product_geodesic(a, b, t)


def test_geodesics_take_a_numpy_t_as_its_float():
    rng = np.random.default_rng(24)
    a, b = random_gmm(rng, 2), random_gmm(rng, 2)
    for t in (np.float64(0.3), np.float32(0.3), np.float16(0.5)):
        got, want = product_geodesic(a, b, t), product_geodesic(a, b, float(t))
        for name in ("weights", "means", "covariances"):
            np.testing.assert_array_equal(getattr(got, name), getattr(want, name))
            assert getattr(got, name).dtype == np.float64


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


def test_interpolate_reads_candidate_ks_once():
    # a generator of Ks gives both clouds the same candidates as a tuple
    x = make_bent_tube(tube_spec_for_class("nondemented", n_points=100), seed=0)
    y = make_bent_tube(tube_spec_for_class("demented", n_points=100), seed=1)
    from_tuple = interpolate_point_clouds(x, y, ts=(0.5,), candidate_ks=(1, 2), seed=0)
    from_generator = interpolate_point_clouds(x, y, ts=(0.5,),
                                              candidate_ks=(k for k in (1, 2)), seed=0)
    for got, want in ((from_generator.source, from_tuple.source),
                      (from_generator.target, from_tuple.target)):
        assert got.covariances.tobytes() == want.covariances.tobytes()
    assert from_generator.frames[0].points.tobytes() == from_tuple.frames[0].points.tobytes()


def test_interpolate_checks_the_ks_against_both_clouds_before_fitting(monkeypatch):
    # y cannot take K = 50, so x is fitted at no K either
    x = make_bent_tube(tube_spec_for_class("nondemented", n_points=200), seed=0)
    y = make_bent_tube(tube_spec_for_class("demented", n_points=40), seed=1)
    fit_em, fitted = selection.fit_em, []

    def counted(cloud, k, config):
        fitted.append(k)
        return fit_em(cloud, k, config)

    monkeypatch.setattr(selection, "fit_em", counted)
    with pytest.raises(ValueError, match="^more components than points: K=50, N=40$"):
        interpolate_point_clouds(x, y, ts=(0.5,), candidate_ks=(2, 8, 50))
    assert fitted == []


def test_interpolate_target_is_the_projected_target_in_matched_order():
    x = make_bent_tube(tube_spec_for_class("nondemented", n_points=100), seed=0)
    y = make_bent_tube(tube_spec_for_class("demented", n_points=100), seed=1)
    result = interpolate_point_clouds(x, y, ts=(0.5,), candidate_ks=(2, 4), seed=0)
    gx, gy = (dominant_member(build_ensemble(c, (2, 4), FitConfig(seed=0))[0]) for c in (x, y))
    k = min(gx.k, gy.k)
    source, target = project_to_k(gx, k), project_to_k(gy, k)
    perm = match_components(source, target)
    # the match reorders here, so an unpermuted target would fail
    assert perm.tolist() != list(range(k))
    for got, want in ((result.source.weights, source.weights),
                      (result.source.means, source.means),
                      (result.source.covariances, source.covariances),
                      (result.target.weights, target.weights[perm]),
                      (result.target.means, target.means[perm]),
                      (result.target.covariances, target.covariances[perm])):
        np.testing.assert_array_equal(got, want)


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
    # a t is a real number, never coerced: not a string, not a bool
    for ts, bad in [(("0.5", True), "'0.5'"), ((0.5, True), "True")]:
        with pytest.raises(ValueError, match=re.escape(
                f"interpolation parameter must lie in [0, 1], got {bad}")):
            interpolate_point_clouds(cloud, cloud, ts=ts, candidate_ks=(2,))
