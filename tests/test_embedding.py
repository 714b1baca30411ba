"""Probe construction, sphere embedding, nearest-neighbor classification."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import random_gmm
from gmmcloud.embedding import (
    INFLATE_FRACTION,
    PROBE_COUNT,
    ClassificationMetrics,
    ProbeSet,
    SphereEmbedding,
    arc_distance,
    embed,
    embedding_from_log_densities,
    evaluate,
    inflated_bounds,
    knn_classify,
    make_probe_set,
)
from gmmcloud.model import (
    EXP_FLOOR,
    EnsembleMember,
    Gmm,
    GmmEnsemble,
    PointCloud,
    gmm_log_density,
)

UNIT_BOX = PointCloud(np.array([
    [0.0, 0.0, 0.0],
    [1.0, 1.0, 1.0],
]))


def isotropic_model(center):
    return Gmm([1.0], [center], np.eye(3)[None])


def random_embedding(rng, size=50):
    v = np.abs(rng.normal(size=size)) + 1e-12
    return SphereEmbedding(v / np.linalg.norm(v))


# --------------------------------------------------------------- probes


def test_inflated_bounds_unit_box():
    bounds = inflated_bounds([UNIT_BOX])
    np.testing.assert_allclose(bounds[0], -0.05, atol=1e-15)
    np.testing.assert_allclose(bounds[1], 1.05, atol=1e-15)


def test_inflated_bounds_joint_over_clouds():
    other = PointCloud(np.array([[2.0, 0.0, 0.0], [3.0, 1.0, 1.0]]))
    bounds = inflated_bounds([UNIT_BOX, other])
    np.testing.assert_allclose(bounds[0], [-0.15, -0.05, -0.05], atol=1e-15)
    np.testing.assert_allclose(bounds[1], [3.15, 1.05, 1.05], atol=1e-15)


def test_inflated_bounds_margin_is_a_finite_real_at_least_zero():
    np.testing.assert_array_equal(inflated_bounds([UNIT_BOX], margin_fraction=0.0),
                                  [[0.0] * 3, [1.0] * 3])
    for bad in (math.nan, math.inf, -0.01, True, "0.05", None):
        with pytest.raises(ValueError, match="^margin_fraction must be "):
            inflated_bounds([UNIT_BOX], margin_fraction=bad)


def test_no_clouds_have_no_bounds():
    for no_clouds in ([], iter(())):
        with pytest.raises(ValueError, match="^need at least one cloud$"):
            inflated_bounds(no_clouds)
    with pytest.raises(ValueError, match="^need at least one cloud$"):
        make_probe_set([], seed=0)


def test_degenerate_axis_padded_half_unit():
    flat = PointCloud(np.array([[0.0, 0.0, 0.0], [1.0, 1.0, 0.0]]))
    bounds = inflated_bounds([flat])
    np.testing.assert_allclose(bounds[0], [-0.05, -0.05, -0.5], atol=1e-15)
    np.testing.assert_allclose(bounds[1], [1.05, 1.05, 0.5], atol=1e-15)
    assert bounds[1][2] - bounds[0][2] == 1.0


def test_probe_set_is_seed_deterministic():
    first = make_probe_set([UNIT_BOX], seed=7)
    second = make_probe_set([UNIT_BOX], seed=7)
    np.testing.assert_array_equal(first.probes, second.probes)
    assert len(first.probes) == PROBE_COUNT
    assert first.seed == 7
    assert not np.array_equal(first.probes, make_probe_set([UNIT_BOX], seed=8).probes)


def test_probes_fill_the_box_uniformly():
    probes = make_probe_set([UNIT_BOX], seed=3, count=1_000_000).probes
    assert np.all(probes >= -0.05) and np.all(probes <= 1.05)
    # mean of a uniform draw on [-0.05, 1.05]: 0.5 +/- 4 sigma
    sigma = 1.1 / math.sqrt(12.0) / math.sqrt(1_000_000)
    np.testing.assert_allclose(probes.mean(axis=0), 0.5, atol=4.0 * sigma)


def test_probe_set_validation():
    good = np.zeros((4, 3))
    bounds = np.array([[-1.0, -1.0, -1.0], [1.0, 1.0, 1.0]])
    with pytest.raises(ValueError, match="M, 3"):
        ProbeSet(np.zeros((4, 2)), bounds, 0)
    with pytest.raises(ValueError, match="lo/hi"):
        ProbeSet(good, np.zeros((3, 2)), 0)
    with pytest.raises(ValueError, match="inside"):
        ProbeSet(np.full((4, 3), 2.0), bounds, 0)
    with pytest.raises(ValueError, match="finite"):
        ProbeSet(np.full((4, 3), np.nan), bounds, 0)
    with pytest.raises(ValueError, match="count"):
        make_probe_set([UNIT_BOX], seed=0, count=0)


def test_probe_set_seed_is_an_integer():
    # sampling.checked_integer, the rule of rng_stream and every count,
    # turns a bool away; a NumPy integer is stored as an int
    bounds = np.array([[-1.0] * 3, [1.0] * 3])
    for seed in (1.7, True):
        with pytest.raises(ValueError, match=f"seed must be an integer, got {seed!r}"):
            ProbeSet(np.zeros((1, 3)), bounds, seed)
    probe_set = ProbeSet(np.zeros((1, 3)), bounds, np.int64(3))
    assert type(probe_set.seed) is int and probe_set.seed == 3


def test_probe_set_arrays_read_only():
    probe_set = make_probe_set([UNIT_BOX], seed=0, count=10)
    with pytest.raises(ValueError):
        probe_set.probes[0, 0] = 9.9


# ------------------------------------------------------------ embedding


def test_flat_profile_maps_to_uniform_sphere_point():
    emb = embedding_from_log_densities(np.zeros(PROBE_COUNT))
    assert emb.coords.size == PROBE_COUNT
    np.testing.assert_allclose(emb.coords, 1.0 / math.sqrt(1000.0), atol=1e-15)


def test_embedding_invariant_to_density_scale():
    rng = np.random.default_rng(5)
    logp = rng.normal(size=200)
    base = embedding_from_log_densities(logp)
    scaled = embedding_from_log_densities(logp + math.log(1e6))
    np.testing.assert_allclose(scaled.coords, base.coords, atol=1e-12)


def test_embedding_requires_covered_support():
    with pytest.raises(ValueError, match="does not cover the model support"):
        embedding_from_log_densities(np.full(8, -np.inf))


def test_embedding_handles_extreme_log_range():
    logp = np.array([0.0, -5000.0, -10000.0])
    emb = embedding_from_log_densities(logp)
    assert emb.coords[0] == 1.0
    assert emb.coords[1] == 0.0


def peak_normalised_embedding(logp):
    """The embedding formula spelled out: exp(logp - peak), exactly 0
    where logp - peak is below EXP_FLOOR, divided by its sum,
    square-rooted."""
    shifted = logp - np.max(logp)
    q = np.where(shifted < EXP_FLOOR, 0.0, np.exp(shifted))
    return np.sqrt(q / q.sum())


@given(seed=st.integers(0, 2**32 - 1), shift=st.sampled_from([0.0, 1e6, -1e6]))
def test_embedding_matches_peak_normalised_formula_bits(seed, shift):
    rng = np.random.default_rng(seed)
    logp = rng.normal(scale=rng.uniform(0.1, 300.0), size=int(rng.integers(1, 1500))) + shift
    emb = embedding_from_log_densities(logp)
    assert emb.coords.tobytes() == peak_normalised_embedding(logp).tobytes()


def test_embed_is_deterministic():
    model = random_gmm(np.random.default_rng(6), 2)
    probe_set = make_probe_set([PointCloud(model.means)], seed=1)
    np.testing.assert_array_equal(embed(model, probe_set).coords,
                                  embed(model, probe_set).coords)


def test_embed_single_member_ensemble_matches_model():
    model = random_gmm(np.random.default_rng(7), 2)
    cloud = PointCloud(model.means)
    probe_set = make_probe_set([cloud], seed=2)
    alone = embed(model, probe_set)
    wrapped = embed(GmmEnsemble((EnsembleMember(1.0, model),)), probe_set)
    np.testing.assert_allclose(wrapped.coords, alone.coords, atol=1e-12)


def test_identical_models_sit_at_zero_distance():
    model = isotropic_model([0.3, 0.3, 0.3])
    probe_set = make_probe_set([UNIT_BOX], seed=4)
    assert arc_distance(embed(model, probe_set), embed(model, probe_set)) == 0.0


def test_disjoint_supports_sit_a_quarter_turn_apart():
    near = isotropic_model([0.0, 0.0, 0.0])
    far = isotropic_model([1000.0, 0.0, 0.0])
    clouds = [
        PointCloud(np.array([[-5.0, -5.0, -5.0], [5.0, 5.0, 5.0]])),
        PointCloud(np.array([[995.0, -5.0, -5.0], [1005.0, 5.0, 5.0]])),
    ]
    probe_set = make_probe_set(clouds, seed=9)
    angle = arc_distance(embed(near, probe_set), embed(far, probe_set))
    assert math.pi / 2.0 - 0.01 < angle <= math.pi / 2.0 + 1e-12


def test_sphere_embedding_validation():
    with pytest.raises(ValueError, match=">= 0"):
        SphereEmbedding(np.array([-0.6, 0.8]))
    with pytest.raises(ValueError, match="norm"):
        SphereEmbedding(np.array([0.5, 0.5]))
    with pytest.raises(ValueError):
        SphereEmbedding(np.array([[1.0]]))
    # an entry above 1 is refused before the norm, which would overflow
    with pytest.raises(ValueError, match="<= 1"):
        SphereEmbedding(np.array([1e308, 1e308]))


# ------------------------------------------------------------- distance


def test_arc_distance_symmetric_and_bounded():
    rng = np.random.default_rng(10)
    for _ in range(25):
        a, b = random_embedding(rng), random_embedding(rng)
        assert arc_distance(a, b) == arc_distance(b, a)
        # non-negative coordinates keep every pair within a quarter turn
        assert 0.0 <= arc_distance(a, b) <= math.pi / 2.0 + 1e-12


def test_arc_distance_from_an_embedding_to_itself_is_zero():
    # acos of the rounded dot product leaves 87 of these up to 4.2e-8 rad
    rng = np.random.default_rng(12)
    for _ in range(200):
        e = random_embedding(rng, size=PROBE_COUNT)
        assert arc_distance(e, e) == 0.0
        assert arc_distance(e, SphereEmbedding(e.coords.copy())) == 0.0


@given(seed=st.integers(0, 2**32 - 1))
def test_arc_distance_triangle_inequality(seed):
    rng = np.random.default_rng(seed)
    a, b, c = (random_embedding(rng, size=12) for _ in range(3))
    assert arc_distance(a, c) <= arc_distance(a, b) + arc_distance(b, c) + 1e-12


def test_arc_distance_rejects_size_mismatch():
    rng = np.random.default_rng(11)
    with pytest.raises(ValueError, match="differ"):
        arc_distance(random_embedding(rng, 5), random_embedding(rng, 6))


# ----------------------------------------------------------------- 1-NN


def test_knn_picks_nearest_label():
    axis = np.eye(3)
    train = [(SphereEmbedding(axis[0]), "a"), (SphereEmbedding(axis[1]), "b")]
    lean = np.array([0.9, 0.1, 0.0])
    query = SphereEmbedding(lean / np.linalg.norm(lean))
    assert knn_classify(train, query) == "a"


def test_knn_matches_linear_scan():
    rng = np.random.default_rng(12)
    train = [(random_embedding(rng), "pos" if j % 2 else "neg") for j in range(20)]
    for _ in range(5):
        query = random_embedding(rng)
        distances = [arc_distance(emb, query) for emb, _ in train]
        assert knn_classify(train, query) == train[int(np.argmin(distances))][1]


def test_knn_tie_goes_to_earliest():
    e = random_embedding(np.random.default_rng(13))
    same = SphereEmbedding(e.coords.copy())
    assert knn_classify([(e, "x"), (same, "y")], e) == "x"
    assert knn_classify([(same, "y"), (e, "x")], e) == "y"


def test_knn_requires_training_data():
    with pytest.raises(ValueError, match="training"):
        knn_classify([], random_embedding(np.random.default_rng(14)))


# -------------------------------------------------------------- metrics


def test_evaluate_imbalanced_confusion():
    pairs = (
        [("demented", "demented")] * 33
        + [("nondemented", "nondemented")] * 33
        + [("nondemented", "demented")] * 3
    )
    metrics = evaluate(pairs, positive_label="demented")
    assert metrics.accuracy == 66 / 69
    assert metrics.sensitivity == 1.0
    assert metrics.specificity == 33 / 36
    assert (metrics.true_positive, metrics.false_negative) == (33, 0)
    assert (metrics.true_negative, metrics.false_positive) == (33, 3)


def test_evaluate_swapping_positive_class_swaps_recalls():
    pairs = [("a", "a")] * 8 + [("b", "a")] * 2 + [("b", "b")] * 10
    with_a = evaluate(pairs, positive_label="a")
    with_b = evaluate(pairs, positive_label="b")
    assert with_a.accuracy == with_b.accuracy == 0.9
    assert with_a.sensitivity == with_b.specificity == 1.0
    assert with_a.specificity == with_b.sensitivity == 10 / 12


def test_evaluate_perfect_and_hopeless():
    perfect = evaluate([("a", "a"), ("b", "b")], positive_label="a")
    assert (perfect.accuracy, perfect.sensitivity, perfect.specificity) == (1.0, 1.0, 1.0)
    hopeless = evaluate([("a", "b"), ("b", "a")], positive_label="a")
    assert (hopeless.accuracy, hopeless.sensitivity, hopeless.specificity) == (0.0, 0.0, 0.0)


def test_evaluate_absent_class_recall_is_nan():
    metrics = evaluate([("b", "b"), ("b", "b")], positive_label="a")
    assert math.isnan(metrics.sensitivity)
    assert metrics.specificity == 1.0
    assert metrics.accuracy == 1.0


def test_evaluate_input_checks():
    with pytest.raises(ValueError, match="pair"):
        evaluate([], positive_label="a")
    with pytest.raises(ValueError, match="binary"):
        evaluate([("a", "a"), ("b", "c")], positive_label="a")


def test_metrics_is_a_plain_record():
    m = ClassificationMetrics(1.0, 1.0, 1.0, 1, 0, 1, 0)
    assert m.accuracy == 1.0 and m.true_positive == 1
