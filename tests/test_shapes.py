"""Bent-tube generator and outlier contamination."""

import inspect
import itertools
import math
import re

import numpy as np
import pytest

from gmmcloud.em import FitConfig, fit_em
from gmmcloud.embedding import arc_distance, embed, make_probe_set
from gmmcloud.pipeline import ExperimentConfig
from gmmcloud.shapes import (
    CLASS_PARAMETERS,
    DEMENTED,
    NONDEMENTED,
    STOCK_N_POINTS,
    TubeSpec,
    add_outliers,
    make_bent_tube,
    tube_spec_for_class,
)


def bare_arc_spec(bend_angle, n_points=1000):
    return TubeSpec(arc_radius=10.0, bend_angle=bend_angle, tube_radius=0.0,
                    noise_sigma=0.0, n_points=n_points)


# ----------------------------------------------------------------- spec


def test_tube_spec_validation():
    good = dict(arc_radius=10.0, bend_angle=1.0, tube_radius=1.0,
                noise_sigma=0.1, n_points=10)
    TubeSpec(**good)
    for field, bad in [("arc_radius", 0.0), ("bend_angle", 0.0),
                       ("bend_angle", 2.0 * math.pi + 1e-9),
                       ("tube_radius", -0.1), ("tube_radius", 10.0),
                       ("noise_sigma", -0.01), ("n_points", 0),
                       ("noise_sigma", math.nan), ("noise_sigma", math.inf),
                       ("arc_radius", math.inf), ("arc_radius", True), ("bend_angle", True),
                       ("tube_radius", False), ("noise_sigma", "0.1"), ("n_points", True)]:
        with pytest.raises(ValueError, match=f"^{field} must "):
            TubeSpec(**{**good, field: bad})
    # NumPy reals are reals
    TubeSpec(**{**good, "arc_radius": np.float32(10.0), "noise_sigma": np.int64(0)})
    # a degenerate centerline arc is a valid shape
    TubeSpec(**{**good, "tube_radius": 0.0, "noise_sigma": 0.0})


def test_stock_class_parameters():
    assert CLASS_PARAMETERS[NONDEMENTED] == dict(
        arc_radius=10.0, bend_angle=0.8 * math.pi, tube_radius=1.0, noise_sigma=0.15)
    assert CLASS_PARAMETERS[DEMENTED] == dict(
        arc_radius=10.0, bend_angle=0.6 * math.pi, tube_radius=1.3, noise_sigma=0.15)
    spec = tube_spec_for_class(DEMENTED)
    assert spec.n_points == 600
    assert spec.class_label == DEMENTED
    assert spec.bend_angle == 0.6 * math.pi
    with pytest.raises(ValueError, match="unknown class"):
        tube_spec_for_class("severe")


def test_stock_cloud_size_is_one_default():
    default = inspect.signature(tube_spec_for_class).parameters["n_points"].default
    assert default == ExperimentConfig().n_points == STOCK_N_POINTS


# ------------------------------------------------------------ generator


def test_degenerate_tube_lies_on_the_arc():
    spec = bare_arc_spec(bend_angle=0.7 * math.pi)
    pts = make_bent_tube(spec, seed=5).points
    radii = np.hypot(pts[:, 0], pts[:, 1])
    np.testing.assert_allclose(radii, 10.0, atol=1e-9)
    np.testing.assert_allclose(pts[:, 2], 0.0, atol=1e-9)
    angles = np.arctan2(pts[:, 1], pts[:, 0])
    assert np.all(np.abs(angles) <= 0.35 * math.pi + 1e-12)


def test_tube_is_seed_deterministic():
    spec = tube_spec_for_class(NONDEMENTED, n_points=200)
    first = make_bent_tube(spec, seed=21)
    second = make_bent_tube(spec, seed=21)
    np.testing.assert_array_equal(first.points, second.points)
    assert first.label == NONDEMENTED
    assert len(first) == 200
    assert not np.array_equal(first.points, make_bent_tube(spec, seed=22).points)


def test_quarter_turn_arc_spans_chord_by_sagitta():
    pts = make_bent_tube(bare_arc_spec(0.5 * math.pi, n_points=4000), seed=1).points
    extent = pts.max(axis=0) - pts.min(axis=0)
    diagonal = float(np.linalg.norm(extent))
    chord = 2.0 * 10.0 * math.sin(0.25 * math.pi)
    sagitta = 10.0 * (1.0 - math.cos(0.25 * math.pi))
    expected = math.hypot(chord, sagitta)
    assert abs(diagonal - expected) / expected < 0.10
    # the bend stays flat: chasing the arc never leaves the z = 0 plane
    assert float(np.abs(pts[:, 2]).max()) < 1e-9


def test_thickness_shows_up_in_z_spread():
    thick = TubeSpec(arc_radius=10.0, bend_angle=2.0, tube_radius=1.5,
                     noise_sigma=0.0, n_points=3000)
    z = make_bent_tube(thick, seed=2).points[:, 2]
    assert float(np.abs(z).max()) <= 1.5 + 1e-12
    assert float(np.abs(z).max()) > 1.3


def test_bend_classes_separate_in_embedding_space():
    specs = {
        "wide": TubeSpec(arc_radius=10.0, bend_angle=0.8 * math.pi, tube_radius=1.0,
                         noise_sigma=0.15, n_points=300, class_label="wide"),
        "tight": TubeSpec(arc_radius=10.0, bend_angle=0.5 * math.pi, tube_radius=1.0,
                          noise_sigma=0.15, n_points=300, class_label="tight"),
    }
    clouds = [(name, make_bent_tube(spec, seed=seed))
              for name, spec in specs.items() for seed in range(5)]
    probe_set = make_probe_set([c for _, c in clouds], seed=0)
    embedded = [
        (name, embed(fit_em(cloud, 4, FitConfig(seed=0)).model, probe_set))
        for name, cloud in clouds
    ]
    intra, inter = [], []
    for (na, ea), (nb, eb) in itertools.combinations(embedded, 2):
        (intra if na == nb else inter).append(arc_distance(ea, eb))
    assert min(inter) > max(intra)


# --------------------------------------------------------- contamination


FAR_BOX = np.array([[100.0, 100.0, 100.0], [120.0, 120.0, 120.0]])


def test_add_outliers_replaces_exact_count():
    cloud = make_bent_tube(tube_spec_for_class(DEMENTED, n_points=1000), seed=3)
    dirty = add_outliers(cloud, fraction=0.05, bounds=FAR_BOX, seed=4)
    changed = np.any(dirty.points != cloud.points, axis=1)
    assert int(changed.sum()) == 50
    assert dirty.label == cloud.label
    replaced = dirty.points[changed]
    assert np.all(replaced >= FAR_BOX[0]) and np.all(replaced <= FAR_BOX[1])
    np.testing.assert_array_equal(dirty.points[~changed], cloud.points[~changed])


def test_add_outliers_zero_fraction_copies():
    cloud = make_bent_tube(tube_spec_for_class(NONDEMENTED, n_points=40), seed=5)
    clean = add_outliers(cloud, fraction=0.0, bounds=FAR_BOX, seed=6)
    np.testing.assert_array_equal(clean.points, cloud.points)
    assert clean.label == cloud.label
    # floor semantics: a fraction below 1/N touches nothing
    tiny = add_outliers(cloud, fraction=0.02, bounds=FAR_BOX, seed=6)
    np.testing.assert_array_equal(tiny.points, cloud.points)


def test_add_outliers_is_seed_deterministic():
    cloud = make_bent_tube(tube_spec_for_class(DEMENTED, n_points=300), seed=7)
    a = add_outliers(cloud, 0.1, FAR_BOX, seed=8)
    b = add_outliers(cloud, 0.1, FAR_BOX, seed=8)
    np.testing.assert_array_equal(a.points, b.points)
    c = add_outliers(cloud, 0.1, FAR_BOX, seed=9)
    assert not np.array_equal(a.points, c.points)


def test_add_outliers_validation():
    cloud = make_bent_tube(tube_spec_for_class(DEMENTED, n_points=20), seed=10)
    # a fraction is a finite real number in [0, 1): False is no 0, and
    # "0.1" no number
    for fraction, message in (
            (1.0, "outlier fraction must lie in [0, 1), got 1.0"),
            (-0.1, "outlier fraction must be >= 0.0, got -0.1"),
            (False, "outlier fraction must be a finite number, got False"),
            ("0.1", "outlier fraction must be a finite number, got '0.1'"),
            (math.nan, "outlier fraction must be a finite number, got nan")):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            add_outliers(cloud, fraction=fraction, bounds=FAR_BOX, seed=0)
    with pytest.raises(ValueError, match="lo/hi"):
        add_outliers(cloud, fraction=0.5, bounds=np.zeros((3, 3)), seed=0)
    with pytest.raises(ValueError, match="lo/hi"):
        add_outliers(cloud, fraction=0.5,
                     bounds=np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 1.0]]), seed=0)
    # the seed is checked whether or not a point is replaced
    for fraction in (0.0, 0.02, 0.5):
        with pytest.raises(ValueError, match=r"^seed must be an integer, got 1\.5$"):
            add_outliers(cloud, fraction=fraction, bounds=FAR_BOX, seed=1.5)
