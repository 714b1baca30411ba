"""AIC scoring, Akaike weights, and ensemble assembly."""

import json
import math
import os
import re
import warnings
from dataclasses import astuple
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import FLOOR_TEST_TOL, recovery_cloud
from gmmcloud.em import FitConfig, FitError, _sorted_points
from gmmcloud.embedding import embed, inflated_bounds, make_probe_set
from gmmcloud.io import FileFormatError, FitMetadata, load_model, save_model
from gmmcloud.model import Gmm, PointCloud, covariance_floor, gmm_log_density
from gmmcloud.sampling import generate_point_cloud, rng_stream
from gmmcloud.selection import (
    AicRow,
    AicTable,
    KEEP_THRESHOLD,
    aic_score,
    akaike_weights,
    build_ensemble,
    default_candidate_ks,
    ensemble_from_scored_models,
    parameter_count,
)
from gmmcloud.shapes import add_outliers, make_bent_tube, tube_spec_for_class


def point_model(x, k=1):
    return Gmm(np.full(k, 1.0 / k), [[x, float(j), 0.0] for j in range(k)], [np.eye(3)] * k)


def test_parameter_count():
    assert parameter_count(1) == 9
    assert parameter_count(3) == 29
    assert parameter_count(32) == 319


def test_aic_arithmetic():
    # AIC = 2p - 2 log L, log L the sum of the cloud's log densities, bit for bit
    cloud = PointCloud(np.random.default_rng(4).normal(size=(50, 3)))
    model = point_model(0.5)
    log_likelihood = float(np.sum(gmm_log_density(cloud.points, model)))
    assert aic_score(cloud, model) == 2.0 * 9 - 2.0 * log_likelihood


def test_aic_score_uses_fitted_likelihood():
    cloud = PointCloud(np.zeros((1, 3)))
    model = point_model(0.0)
    expected = 2.0 * 9 - 2.0 * (-1.5 * math.log(2.0 * math.pi))
    assert math.isclose(aic_score(cloud, model), expected, rel_tol=1e-13)


def test_akaike_weights_reference_case():
    table = akaike_weights([(1, 100.0), (2, 102.0), (3, 120.0)])
    normalized = [row.normalized for row in table.rows]
    assert normalized[0] == 1.0
    assert math.isclose(normalized[1], math.exp(-1.0), rel_tol=1e-15)
    assert math.isclose(normalized[2], math.exp(-10.0), rel_tol=1e-15)
    assert [row.kept for row in table.rows] == [True, True, False]


def test_keep_threshold_boundary():
    assert KEEP_THRESHOLD == 0.01
    above = -2.0 * math.log(0.0101)
    below = -2.0 * math.log(0.0099)
    table = akaike_weights([(1, 0.0), (2, above), (3, below)])
    assert [row.kept for row in table.rows] == [True, True, False]


@given(seed=st.integers(0, 2**32 - 1))
def test_akaike_weights_shift_invariant(seed):
    rng = np.random.default_rng(seed)
    aics = rng.uniform(-500.0, 500.0, size=5)
    shift = float(rng.uniform(-1000.0, 1000.0))
    base = akaike_weights(enumerate(aics, start=1))
    shifted = akaike_weights(enumerate(aics + shift, start=1))
    for a, b in zip(base.rows, shifted.rows):
        assert math.isclose(a.normalized, b.normalized, rel_tol=1e-12, abs_tol=1e-15)


@given(seed=st.integers(0, 2**32 - 1))
def test_minimum_aic_always_kept(seed):
    rng = np.random.default_rng(seed)
    aics = rng.uniform(-500.0, 500.0, size=int(rng.integers(1, 8)))
    table = akaike_weights(enumerate(aics, start=1))
    best = int(np.argmin(aics))
    assert table.rows[best].normalized == 1.0
    assert table.rows[best].kept


def test_akaike_weights_rejects_bad_input():
    with pytest.raises(ValueError):
        akaike_weights([])
    with pytest.raises(ValueError, match="finite"):
        akaike_weights([(1, math.nan)])
    with pytest.raises(ValueError, match="^AIC scores must be finite$"):
        akaike_weights([(1, 100.0), (2, math.inf)])
    # float() read the string and the bools as scores
    for score in ("102.0", True, np.bool_(False), None):
        message = f"AIC score must be a number, got {score!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            akaike_weights([(2, 100.0), (4, score)])


def test_aic_table_validation(tmp_path):
    # AicTable checks nothing itself: a model file's table must be the one
    # akaike_weights computes from its AICs, when written and when read
    ensemble, good = ensemble_from_scored_models([(1, 100.0, point_model(0.0))])
    metadata = FitMetadata(0, (1, 2), 5)
    for case, (rows, message) in enumerate([
        ((), "aic_table: need at least one (K, AIC) pair"),
        ((AicRow(1, 100.0, 0.9, True),), "aic_table row 0"),
        ((AicRow(1, 100.0, 1.0, True), AicRow(2, 102.0, math.exp(-1.0), False)),
         "aic_table row 1"),
    ]):
        path = str(tmp_path / f"model_{case}.json")
        with pytest.raises(FileFormatError, match=re.escape(f"{path}: {message}")):
            save_model(path, ensemble, AicTable(rows), metadata)
        assert not os.path.exists(path)
        save_model(path, ensemble, good, metadata)
        obj = json.loads(Path(path).read_text())
        obj["aic_table"] = [dict(zip(("k", "aic", "normalized", "kept"), astuple(r)))
                            for r in rows]
        Path(path).write_text(json.dumps(obj))
        with pytest.raises(FileFormatError, match=re.escape(f"{path}: {message}")):
            load_model(path)


def test_ensemble_from_scored_models_renormalizes():
    scored = [(1, 100.0, point_model(0.0)), (2, 102.0, point_model(1.0, k=2)),
              (3, 120.0, point_model(2.0, k=3))]
    ensemble, table = ensemble_from_scored_models(scored)
    assert [row.k for row in table.rows] == [1, 2, 3]
    assert len(ensemble.members) == 2
    p1 = 1.0 / (1.0 + math.exp(-1.0))
    p2 = math.exp(-1.0) / (1.0 + math.exp(-1.0))
    assert math.isclose(ensemble.members[0].weight, p1, rel_tol=1e-12)
    assert math.isclose(ensemble.members[1].weight, p2, rel_tol=1e-12)
    # the kept members are the low-AIC models, matched by position
    assert ensemble.members[0].model.means[0, 0] == 0.0
    assert ensemble.members[1].model.means[0, 0] == 1.0
    assert abs(math.fsum(m.weight for m in ensemble.members) - 1.0) < 1e-12


def test_default_candidate_ks():
    assert default_candidate_ks(1000) == (1, 2, 4, 8, 16, 32)
    assert default_candidate_ks(320) == (1, 2, 4, 8, 16, 32)
    assert default_candidate_ks(100) == (1, 2, 4, 8)
    assert default_candidate_ks(45) == (1, 2, 4)
    assert default_candidate_ks(25) == (1, 2)
    assert default_candidate_ks(10) == (1,)
    assert default_candidate_ks(9) == (1,)
    assert default_candidate_ks(np.int64(100)) == (1, 2, 4, 8)
    # n // 10 took 600.7 as 600 points and -5 as a cloud too small for K = 2
    for n, message in ((600.7, "point count must be an integer, got 600.7"),
                       (-5, "point count must be >= 1, got -5"),
                       (0, "point count must be >= 1, got 0")):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            default_candidate_ks(n)


def test_build_ensemble_on_separated_data():
    cloud = recovery_cloud(n=300, seed=41)
    ensemble, table = build_ensemble(cloud, (1, 2, 4), FitConfig(seed=0))
    assert [row.k for row in table.rows] == [1, 2, 4]
    ks = {m.model.k for m in ensemble.members}
    assert ks <= {1, 2, 4}
    assert 2 in ks  # the generating component count must survive selection
    best_row = min(table.rows, key=lambda r: r.aic)
    assert best_row.k == 2
    assert abs(math.fsum(m.weight for m in ensemble.members) - 1.0) < 1e-12


def test_build_ensemble_validates_candidates():
    cloud = PointCloud(np.random.default_rng(0).normal(size=(20, 3)))
    with pytest.raises(ValueError, match="candidate"):
        build_ensemble(cloud, (), FitConfig(seed=0))
    # em's rule for a component count, checked before any fit starts
    with pytest.raises(ValueError, match="more components than points: K=40, N=20"):
        build_ensemble(cloud, (1, 40), FitConfig(seed=0))
    with pytest.raises(ValueError, match="component count must be >= 1, got 0"):
        build_ensemble(cloud, (0, 2), FitConfig(seed=0))


def test_build_ensemble_drops_failing_candidate(monkeypatch):
    import gmmcloud.selection as selection

    cloud = recovery_cloud(n=200, seed=43)
    real_fit = selection.fit_em

    def flaky_fit(c, k, config):
        if k == 4:
            raise FitError("fit failed at iteration 1: injected")
        return real_fit(c, k, config)

    monkeypatch.setattr(selection, "fit_em", flaky_fit)
    with pytest.warns(UserWarning, match="K=4 dropped"):
        ensemble, table = selection.build_ensemble(cloud, (1, 2, 4), FitConfig(seed=0))
    assert [row.k for row in table.rows] == [1, 2]
    assert all(m.model.k != 4 for m in ensemble.members)

    def always_fails(c, k, config):
        raise FitError("fit failed at iteration 1: injected")

    monkeypatch.setattr(selection, "fit_em", always_fails)
    with pytest.warns(UserWarning):
        with pytest.raises(FitError, match="^every candidate fit failed: K=1: fit failed at "
                                           "iteration 1: injected; K=2: fit failed"):
            selection.build_ensemble(cloud, (1, 2), FitConfig(seed=0))


def outlier_tube():
    tube = make_bent_tube(tube_spec_for_class("demented", n_points=600), 0)
    return add_outliers(tube, 0.3, inflated_bounds([tube]), seed=1).points


DEGENERATE_CLOUDS = {
    "identical": lambda rng: np.tile([[0.3, -1.2, 5.0]], (20, 1)),
    "collinear": lambda rng: np.linspace(-1.0, 1.0, 40)[:, None] * [1.0, 2.0, -3.0] + 4.0,
    "coplanar": lambda rng: rng.normal(size=(60, 2)) @ [[1.0, 0.5, -0.25], [0.0, 1.0, 2.0]],
    "one-point": lambda rng: np.array([[1.0, 2.0, 3.0]]),
    "five-points": lambda rng: rng.normal(size=(5, 3)),
    "outliers-30pct": lambda rng: outlier_tube(),
}


@pytest.mark.parametrize("name", sorted(DEGENERATE_CLOUDS))
def test_degenerate_clouds_fit_sample_and_embed(name):
    # the k-means++ partition starts every fit; the only candidate that may
    # fail is a K above the distinct count, dropped with its named warning
    cloud = PointCloud(DEGENERATE_CLOUDS[name](np.random.default_rng(0)))
    distinct = len(np.unique(cloud.points, axis=0))
    ks = [k for k in (1, 2, 4, 8) if k <= len(cloud)]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        ensemble, table = build_ensemble(cloud, ks, FitConfig(seed=0))
    dropped = [k for k in ks if k > distinct]
    assert [str(w.message) for w in caught] == [
        f"candidate K={k} dropped: K={k} needs {k} distinct points, the cloud has {distinct}"
        for k in dropped]
    assert [row.k for row in table.rows] == [k for k in ks if k not in dropped]
    eps = covariance_floor(_sorted_points(cloud.points))
    for member in ensemble.members:
        lam = np.linalg.eigvalsh(member.model.covariances)
        assert np.all(lam[:, 0] >= eps - FLOOR_TEST_TOL * lam[:, -1])
    sample = generate_point_cloud(ensemble, 50, rng_stream(0))
    assert np.all(np.isfinite(sample.points))
    emb = embed(ensemble, make_probe_set([cloud], seed=0, count=100))
    assert np.all(np.isfinite(emb.coords))
    assert math.isclose(float(np.linalg.norm(emb.coords)), 1.0, rel_tol=1e-9)
