"""Held-out yardsticks of the paper's three claims, built from library
calls through build_ensembles or interpolate_point_clouds at fit seed 0.

- Generation: the mean NLL per point that the base ensembles give fresh
  tubes of their class's stock spec. The base tubes are those of
  eval-paper-pipeline at seed 0; the fresh tubes' seeds are not the
  pipeline's. Also K = 8 fits of three 60 000-point demented tubes, each
  scored on a fresh tube of the same spec, as a large fit.
- Generated clouds against fresh ones: 20 clouds per class drawn from the
  Ks 2,4,8 base ensembles, cloud i from the class's (i mod 5)-th base
  ensemble, against 20 fresh tubes of the class, all of TWO_SAMPLE_N
  points. The leave-one-out 1-NN two-sample accuracy (1-NNA) over
  generated and fresh clouds under the Chamfer distance: 0.5 when the
  two sets cannot be told apart, 1.0 when every cloud's nearest
  neighbour is from its own set. And the memorisation ratio: the median
  Chamfer distance from a generated cloud to its nearest base tube, over
  the same for a fresh tube. Both are averaged over both classes and
  SAMPLE_SEEDS. The tubes share a canonical pose, so no alignment is
  needed.
- Interpolation: interpolate_point_clouds from a nondemented to a
  demented tube, and the mean NLL per point that each interior model, at
  t, gives fresh tubes of the blended spec (1 - t) nondemented + t
  demented, that is blended_spec(DEMENTED, 2t - 1).
- Classification: 1-NN in the probe embedding between two classes moved
  toward each other (blended_spec), 5 training tubes and 30 test tubes
  per class, with clean test clouds and with 10 % of each test cloud's
  points replaced by uniform outliers. Accuracy and the median relative
  margin (d_other - d_same) / d_other over the test clouds, from
  arc_distance to the nearest training embedding of each class, are
  averaged over probe seeds 0-4. The probe box spans the training and
  test clouds, as in eval-paper-pipeline.

Each figure has a one-sided bound: the value the code scored when the
bound was set, plus a tolerance for what other NumPy builds may move.
A change that scores worse fails; one that scores better lowers the
bound in the same change.
"""

import functools
import statistics

import numpy as np
import pytest
from scipy.spatial import cKDTree

from conftest import blended_spec
from gmmcloud.em import FitConfig
from gmmcloud.embedding import arc_distance, embed, knn_classify, make_probe_set
from gmmcloud.geodesics import interpolate_point_clouds
from gmmcloud.model import gmm_log_density
from gmmcloud.sampling import generate_point_cloud, rng_stream
from gmmcloud.selection import DEFAULT_CANDIDATE_KS, build_ensembles
from gmmcloud.shapes import (DEMENTED, NONDEMENTED, add_outliers, make_bent_tube,
                             tube_spec_for_class)

LABELS = (DEMENTED, NONDEMENTED)
FIT = FitConfig(seed=0)
PIPELINE_KS = (2, 4, 8)
PROBE_SEEDS = (0, 1, 2, 3, 4)
OUTLIER_BOX = np.array([[-12.0, -12.0, -6.0], [12.0, 12.0, 6.0]])

# The tolerances cover builds whose arithmetic differs in the last bits:
# scaling every point by 1 + 1e-12 moved no figure in its fourth decimal.
# Fit seeds 1 and 2 in place of 0 moved accuracy by up to 0.063, margins
# by up to 0.023 and the NLL by up to 0.046, each way; a change that costs
# as much fails.
NLL_TOLERANCE = 0.02  # nat per point
# two of the 60 test clouds misclassified under every probe seed; one is 0.017
ACCURACY_TOLERANCE = 0.035
MARGIN_TOLERANCE = 0.01

# Ks -> held-out NLL per point
GENERATION_NLL = {PIPELINE_KS: 4.9644, DEFAULT_CANDIDATE_KS: 5.2373}
GENERATED_PER_CLASS = 20
SAMPLE_SEEDS = (0, 1, 2)
# Half the stock 600 points: the Chamfer distances cost a cKDTree query
# per cloud and pair, 5 s at 600 points. There the 1-NNA read 0.7167 at
# Ks 2,4,8 and 0.9792 at Ks 1..32.
TWO_SAMPLE_N = 300
# 1-NNA at Ks 2,4,8. Fit seeds 1 and 2 score 0.7417 and 0.7083. Ks 1..32
# scores 0.9458 (0.8750 and 0.8833 at fit seeds 1 and 2), too near 1.0
# for an upper bound to fail. Fresh tubes against fresh ones read
# 0.35-0.63. A per-class figure moves in steps of 1/40. Drawing with the
# covariances scaled by 0.9 reads 0.8958; by 1.1, 0.5750.
TWO_SAMPLE_ACCURACY = 0.7083
TWO_SAMPLE_TOLERANCE = 0.025
# The memorisation ratio reads 1.1036 at Ks 2,4,8 (1.1137 and 1.1163 at
# fit seeds 1 and 2) and 0.9466 at Ks 1..32. Below 1, generated clouds sit
# nearer their base tube than fresh tubes do: the model copies its tube's
# noise. Above 1, they blur it: covariances scaled by 1.1 read 1.1490, a
# blur that the 1-NNA rewards.
MEMORISATION_RATIO = 1.1036
MEMORISATION_TOLERANCE = 0.01
LARGE_N_POINTS = 60_000
LARGE_FIT_NLL = 4.9750
INTERPOLATION_TS = (0.25, 0.5, 0.75)
INTERPOLATION_PAIRS = 4
# fit seeds 1 and 2 score 5.2286 and 5.4882: the EM optima move it more
# than NLL_TOLERANCE either way
INTERPOLATION_NLL = 5.4404
# (sep, test outliers) -> (accuracy, median relative margin)
CLASSIFICATION = {
    (0.15, False): (0.8367, 0.0596),
    (0.15, True): (0.6633, 0.0308),
    (0.3, False): (0.9900, 0.1736),
    (0.3, True): (0.8967, 0.1205),
}


def tubes(spec_of, start, stride, count):
    """count tubes of each class, those of the c-th of LABELS at tube
    seeds start + stride * c + j, j < count."""
    return [make_bent_tube(spec_of(label), start + stride * c + j)
            for c, label in enumerate(LABELS) for j in range(count)]


@pytest.fixture(scope="module")
def generation():
    """The base tubes of the generation figures, 5 per class at tube seeds
    101c + j, and {Ks: their ensembles} at both sets of Ks."""
    base = tubes(tube_spec_for_class, 0, 101, 5)
    return base, {ks: [e for e, _ in build_ensembles(base, ks, FIT)]
                  for ks in (PIPELINE_KS, DEFAULT_CANDIDATE_KS)}


@pytest.mark.parametrize("ks", [PIPELINE_KS, DEFAULT_CANDIDATE_KS], ids=["ks2-8", "ks1-32"])
def test_generation_held_out_nll(generation, ks):
    base, ensembles = generation
    fresh = tubes(tube_spec_for_class, 9000, 101, 10)
    nll = [-float(np.mean(gmm_log_density(tube.points, ensemble)))
           for ensemble, cloud in zip(ensembles[ks], base)
           for tube in fresh if tube.label == cloud.label]
    mean = float(np.mean(nll))
    assert mean <= GENERATION_NLL[ks] + NLL_TOLERANCE, mean


def nearest_squares(sources, targets):
    """(i, j): the mean squared distance from a point of the i-th source to
    the nearest point of the j-th target, each a cKDTree of a cloud."""
    return np.array([[np.mean(t.query(s.data)[0] ** 2) for t in targets] for s in sources])


def chamfer(a, b):
    """(i, j): the Chamfer distance between the i-th of a and the j-th of b,
    mean squared nearest-point distances summed over both ways."""
    one_way = nearest_squares(a, b)
    return one_way + (one_way if a is b else nearest_squares(b, a)).T


def two_sample_accuracy(generated, fresh, fresh_distances):
    """Leave-one-out 1-NN accuracy over generated + fresh under the
    Chamfer distance, given that among the fresh clouds."""
    across = chamfer(generated, fresh)
    distances = np.block([[chamfer(generated, generated), across],
                          [across.T, fresh_distances]])
    np.fill_diagonal(distances, np.inf)
    labels = np.repeat([0, 1], [len(generated), len(fresh)])
    return float(np.mean(labels[np.argmin(distances, axis=1)] == labels))


def test_generated_clouds_against_fresh_ones(generation):
    # cloud i of the c-th class: rng_stream(seed, 1000c + i); the fresh
    # tubes take the NLL figure's tube seeds, 9000 + 101c + j
    base, ensembles = generation
    fresh = tubes(functools.partial(tube_spec_for_class, n_points=TWO_SAMPLE_N),
                  9000, 101, GENERATED_PER_CLASS)
    accuracies, ratios = [], []
    for c, label in enumerate(LABELS):
        trees = [cKDTree(cloud.points) for cloud in fresh if cloud.label == label]
        base_trees = [cKDTree(cloud.points) for cloud in base if cloud.label == label]
        fresh_distances = chamfer(trees, trees)
        fresh_to_base = np.median(chamfer(trees, base_trees).min(axis=1))
        for seed in SAMPLE_SEEDS:
            generated = [cKDTree(generate_point_cloud(
                ensembles[PIPELINE_KS][5 * c + i % 5], TWO_SAMPLE_N,
                rng_stream(seed, 1000 * c + i)).points) for i in range(GENERATED_PER_CLASS)]
            accuracies.append(two_sample_accuracy(generated, trees, fresh_distances))
            ratios.append(np.median(chamfer(generated, base_trees).min(axis=1)) / fresh_to_base)
    accuracy, ratio = float(np.mean(accuracies)), float(np.mean(ratios))
    assert accuracy <= TWO_SAMPLE_ACCURACY + TWO_SAMPLE_TOLERANCE, (accuracy, ratio)
    assert 1.0 <= ratio <= MEMORISATION_RATIO + MEMORISATION_TOLERANCE, (accuracy, ratio)


def test_large_fit_held_out_nll():
    # tube seeds 8500-8502 fitted, 8600-8602 scored
    spec = tube_spec_for_class(DEMENTED, n_points=LARGE_N_POINTS)
    fits = build_ensembles([make_bent_tube(spec, 8500 + s) for s in range(3)], (8,), FIT)
    mean = float(np.mean([-np.mean(gmm_log_density(make_bent_tube(spec, 8600 + s).points, e))
                          for s, (e, _) in enumerate(fits)]))
    assert mean <= LARGE_FIT_NLL + NLL_TOLERANCE, mean


def test_interpolation_held_out_nll():
    # pair p: tube seeds 8000 + p and 8100 + p; the fresh tubes of its
    # i-th t: 8200 + 100p + 10i + j. The interpolate workload's pairs take
    # tube seeds 2s and 2s + 1, 7000-7279 at the seeds its records use.
    nll = []
    for p in range(INTERPOLATION_PAIRS):
        x = make_bent_tube(tube_spec_for_class(NONDEMENTED), 8000 + p)
        y = make_bent_tube(tube_spec_for_class(DEMENTED), 8100 + p)
        result = interpolate_point_clouds(x, y, ts=INTERPOLATION_TS, seed=0)
        for i, (t, model) in enumerate(zip(result.ts, result.models)):
            spec = blended_spec(DEMENTED, 2.0 * t - 1.0)
            nll.extend(-float(np.mean(gmm_log_density(
                make_bent_tube(spec, 8200 + 100 * p + 10 * i + j).points, model)))
                for j in range(5))
    mean = float(np.mean(nll))
    assert mean <= INTERPOLATION_NLL + NLL_TOLERANCE, mean


def classification_figures(train, train_ensembles, test, test_ensembles):
    """Accuracy and median relative margin, each averaged over PROBE_SEEDS."""
    accuracies, margins = [], []
    for seed in PROBE_SEEDS:
        probes = make_probe_set(train + test, seed)
        known = [(embed(e, probes), cloud.label) for e, cloud in zip(train_ensembles, train)]
        correct, margin = 0, []
        for ensemble, cloud in zip(test_ensembles, test):
            query = embed(ensemble, probes)
            correct += knn_classify(known, query) == cloud.label
            same = min(arc_distance(e, query) for e, label in known if label == cloud.label)
            other = min(arc_distance(e, query) for e, label in known if label != cloud.label)
            margin.append((other - same) / other)
        accuracies.append(correct / len(test))
        margins.append(statistics.median(margin))
    return float(np.mean(accuracies)), float(np.mean(margins))


@pytest.fixture(scope="module", params=[0.15, 0.3])
def reduced_separation(request):
    """The task at one separation: (sep, {outliers: figures})."""
    sep = request.param
    spec_of = functools.partial(blended_spec, sep=sep)
    train = tubes(spec_of, 0, 100, 5)
    test = tubes(spec_of, 5000, 100, 30)
    noisy = [add_outliers(cloud, 0.1, OUTLIER_BOX, 5000 + i) for i, cloud in enumerate(test)]
    ensembles = [e for e, _ in build_ensembles(train + test + noisy, PIPELINE_KS, FIT)]
    known, clean, dirty = ensembles[:10], ensembles[10:70], ensembles[70:]
    return sep, {False: classification_figures(train, known, test, clean),
                 True: classification_figures(train, known, noisy, dirty)}


@pytest.mark.parametrize("outliers", [False, True], ids=["clean", "outliers"])
def test_reduced_separation_classification(reduced_separation, outliers):
    sep, figures = reduced_separation
    accuracy, margin = figures[outliers]
    bound_accuracy, bound_margin = CLASSIFICATION[(sep, outliers)]
    assert accuracy >= bound_accuracy - ACCURACY_TOLERANCE, (accuracy, margin)
    assert margin >= bound_margin - MARGIN_TOLERANCE, (accuracy, margin)
