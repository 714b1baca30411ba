"""Held-out yardsticks of the paper's three claims, built from library
calls through build_ensembles or interpolate_point_clouds at fit seed 0.

- Generation: the mean NLL per point that the base ensembles give fresh
  tubes of their class's stock spec. The base tubes are those of
  eval-paper-pipeline at seed 0; the fresh tubes' seeds are not the
  pipeline's. Also K = 8 fits of three 60 000-point demented tubes, each
  scored on a fresh tube of the same spec, as a large fit.
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

from conftest import blended_spec
from gmmcloud.em import FitConfig
from gmmcloud.embedding import arc_distance, embed, knn_classify, make_probe_set
from gmmcloud.geodesics import interpolate_point_clouds
from gmmcloud.model import gmm_log_density
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


@pytest.mark.parametrize("ks", [PIPELINE_KS, DEFAULT_CANDIDATE_KS], ids=["ks2-8", "ks1-32"])
def test_generation_held_out_nll(ks):
    base = tubes(tube_spec_for_class, 0, 101, 5)
    fresh = tubes(tube_spec_for_class, 9000, 101, 10)
    nll = [-float(np.mean(gmm_log_density(tube.points, ensemble)))
           for (ensemble, _), cloud in zip(build_ensembles(base, ks, FIT), base)
           for tube in fresh if tube.label == cloud.label]
    mean = float(np.mean(nll))
    assert mean <= GENERATION_NLL[ks] + NLL_TOLERANCE, mean


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
