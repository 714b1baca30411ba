"""Lockstep batches: fit_em_candidates and build_ensembles against one-by-one
fits, bit for bit, with the failures, call counts and thread counts that
must not tell the two apart."""

import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

from conftest import assert_precisions_match, counted_steps

import gmmcloud
from gmmcloud import em
from gmmcloud.em import FitConfig, FitError, fit_em, fit_em_candidates
from gmmcloud.model import DegenerateCovarianceError, PointCloud
from gmmcloud.sampling import generate_point_cloud, rng_stream
from gmmcloud.selection import build_ensemble, build_ensembles
from gmmcloud.shapes import make_bent_tube, tube_spec_for_class


def tube(seed, n=600):
    label = "demented" if seed % 2 else "nondemented"
    return make_bent_tube(tube_spec_for_class(label, n_points=n), seed)


def fit_bytes(result):
    """A fit's model arrays and trace as bytes, or its error's message."""
    if isinstance(result, FitError):
        return f"FitError: {result}"
    model = result.model
    return b"".join(np.ascontiguousarray(a).tobytes() for a in (
        model.weights, model.means, model.covariances,
        np.array(result.log_likelihood_trace)))


def one_by_one(clouds, k, config):
    results = []
    for cloud in clouds:
        try:
            results.append(fit_em(cloud, k, config))
        except FitError as exc:
            results.append(exc)
    return results


def ensemble_bytes(ensemble, table):
    """An ensemble's member weights and model arrays and its AIC table."""
    return (tuple((m.weight, m.model.weights.tobytes(), m.model.means.tobytes(),
                   m.model.covariances.tobytes()) for m in ensemble.members),
            tuple((row.k, row.aic.hex(), row.normalized.hex(), row.kept) for row in table.rows))


def caught(fn, *args):
    """fn's result and the messages of the warnings it raised."""
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        result = fn(*args)
    return result, [str(w.message) for w in seen]


def mixed_clouds():
    """Tubes of two sizes, a cloud of six distinct points (every K above
    six fails) and a cloud drawn from a fitted ensemble, as the pipeline
    draws them."""
    short = np.repeat(np.random.default_rng(6).normal(size=(6, 3)), 100, axis=0)
    drawn = generate_point_cloud(build_ensemble(tube(9), (2, 4))[0], 600, rng_stream(0, 1))
    return ([tube(s) for s in range(5)] + [tube(s, n=300) for s in (5, 6, 7)]
            + [PointCloud(short), drawn])


@pytest.fixture
def small_batches(monkeypatch):
    """Batches of at most three fits, so the seven 600-point clouds of
    mixed_clouds run as three batches, each ending with its last fit."""
    monkeypatch.setattr(em, "BATCH_FITS", 3)


def squarem_outcomes(monkeypatch):
    """Record the step cap's moves in every lockstep SQUAREM step: "grew"
    after an accepted step at the cap, "shrank" after a rejected one."""
    moves = set()
    squarem = em._Lockstep._squarem

    def recorded(self, ll):
        before = [fit.step_max for fit in self.fits]
        fits = list(self.fits)
        squarem(self, ll)
        for fit, cap in zip(fits, before):
            if fit.step_max != cap:
                moves.add("grew" if fit.step_max > cap else "shrank")
    monkeypatch.setattr(em._Lockstep, "_squarem", recorded)
    return moves


def test_build_ensembles_equals_build_ensemble_cloud_by_cloud(monkeypatch, small_batches):
    # at most 40 maps a fit, so some fits converge and others stop at the cap
    monkeypatch.setattr(em, "MAX_ITERATIONS", 40)
    clouds = mixed_clouds()
    config = FitConfig(seed=3)
    ks = (1, 2, 4, 8, 16, 32)
    serial, serial_warnings = caught(lambda: [build_ensemble(c, ks, config) for c in clouds])
    moves = squarem_outcomes(monkeypatch)
    batched, batch_warnings = caught(build_ensembles, clouds, ks, config)
    assert moves == {"grew", "shrank"}
    assert [ensemble_bytes(*pair) for pair in batched] == [
        ensemble_bytes(*pair) for pair in serial]
    assert batch_warnings == serial_warnings == [
        f"candidate K={k} dropped: K={k} needs {k} distinct points, the cloud has 6"
        for k in (8, 16, 32)]
    fits = fit_em_candidates(clouds, ks, config)
    done = [r for results in fits for r in results if not isinstance(r, FitError)]
    assert {r.converged for r in done} == {True, False}
    assert max(r.iterations for r in done) <= 40


def test_build_ensembles_follows_the_input_order(small_batches):
    clouds = mixed_clouds()[:6]
    forward = build_ensembles(clouds, (2, 4), FitConfig(seed=1))
    backward = build_ensembles(clouds[::-1], (2, 4), FitConfig(seed=1))
    assert [ensemble_bytes(*pair) for pair in backward[::-1]] == [
        ensemble_bytes(*pair) for pair in forward]


def test_build_ensembles_checks_every_cloud_before_fitting():
    with pytest.raises(ValueError, match="more components than points: K=32, N=20"):
        build_ensembles([tube(0), PointCloud(np.zeros((20, 3)))], (2, 32))
    assert build_ensembles([], (2, 4)) == []


@pytest.mark.parametrize("k", [1, 2, 8])
def test_fit_em_candidates_equals_fit_em_at_the_iteration_cap(monkeypatch, k):
    # no relative change is below 1e-300, so a fit runs MAX_ITERATIONS
    # maps unless its log-likelihood stops changing exactly, as every fit
    # here does at K = 1 and 2 and three of four do at K = 8
    monkeypatch.setattr(em, "REL_TOLERANCE", 1e-300)
    clouds = [tube(s, n=300) for s in range(3)] + [tube(3, n=200)]
    batched = fit_em_candidates(clouds, [k], FitConfig(seed=2))[0]
    assert [fit_bytes(r) for r in batched] == [
        fit_bytes(r) for r in one_by_one(clouds, k, FitConfig(seed=2))]
    if k == 8:
        assert [r.converged for r in batched] == [False, True, True, True]
    assert all(r.iterations <= em.MAX_ITERATIONS for r in batched)


def test_a_batch_whose_fits_floor_different_matrices_equals_them_one_by_one(monkeypatch):
    # at K = 32 the floor binds on a few covariances of some tubes' fits,
    # different ones in each: floor_spd runs on those alone, gathered
    # over the batch, and every fit keeps the bits it gets alone
    clouds = [tube(s) for s in (5, 6, 8, 11)]
    config = FitConfig(seed=0)
    alone = one_by_one(clouds, 32, config)
    floor, bound = em._floor, []

    def recorded(covs, eps, binding, *args):
        bound.append(binding.copy())
        return floor(covs, eps, binding, *args)

    monkeypatch.setattr(em, "_floor", recorded)
    batched = fit_em_candidates(clouds, [32], config)[0]
    assert [fit_bytes(r) for r in batched] == [fit_bytes(r) for r in alone]
    assert any(len(mask) > 1 and len({row.tobytes() for row in mask}) > 1 for mask in bound)
    assert all(mask.sum() < mask.size for mask in bound)


def test_a_batch_starts_its_fits_together_and_takes_no_more(monkeypatch, small_batches):
    # seven clouds of one size make batches of 3 + 3 + 1, built with all
    # their fits, whose fit count never grows between cycles
    built, counts = [], {}
    init, cycle = em._Lockstep.__init__, em._Lockstep.cycle

    def recorded_init(self, *args):
        init(self, *args)
        built.append(len(self.fits) + len(self.done))

    def recorded_cycle(self):
        # keyed by the batch itself, which stays alive: a freed batch's
        # id() can be reused by the next one
        seen = counts.setdefault(self, [])
        seen.append(len(self.fits))
        cycle(self)
        seen.append(len(self.fits))
    monkeypatch.setattr(em._Lockstep, "__init__", recorded_init)
    monkeypatch.setattr(em._Lockstep, "cycle", recorded_cycle)
    fit_em_candidates([tube(s, n=300) for s in range(7)], [4], FitConfig(seed=0))
    assert built == [3, 3, 1]
    assert len(counts) == 3
    assert all(seen == sorted(seen, reverse=True) for seen in counts.values())


@pytest.mark.parametrize("far", [(1e155, 0.0, 0.0), (-1e155, 0.0, 0.0), (0.0, 1e155, 0.0),
                                 (0.0, 0.0, 1e155)], ids=["x+", "x-", "y", "z"])
def test_a_cloud_too_wide_to_square_fails_only_itself(far):
    # with one point 1e155 out on any axis, a squared distance to it
    # overflows; the fit fails before any arithmetic, without a warning
    # and whatever the seed. Sorted, the point is the last row, the first
    # or neither, where the extent of x or of y and z is taken.
    pts = np.random.default_rng(0).normal(size=(600, 3))
    pts[-1] = far
    wide = PointCloud(pts)
    message = "coordinate extent 1e+155 too large: the squared distances of 600 points overflow"
    clouds = [tube(0), wide, tube(1)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(FitError) as alone:
            fit_em(wide, 2)
        batched = fit_em_candidates(clouds, [2])[0]
    assert str(alone.value) == message
    assert isinstance(batched[1], FitError) and str(batched[1]) == message
    assert [fit_bytes(batched[i]) for i in (0, 2)] == [
        fit_bytes(fit_em(clouds[i], 2)) for i in (0, 2)]


def test_fit_em_candidates_rejects_a_k_outside_any_cloud_before_fitting():
    with pytest.raises(ValueError, match="more components than points: K=8, N=5"):
        fit_em_candidates([tube(0), PointCloud(np.zeros((5, 3)))], [8])
    with pytest.raises(ValueError, match="component count must be >= 1"):
        fit_em_candidates([tube(0)], [0])
    assert fit_em_candidates([], [4])[0] == []


def test_a_batch_of_copies_steps_once_per_lockstep_map(monkeypatch):
    # copies of one cloud take the same steps in lockstep: one M-step call
    # per map of the batch, start included, and one E-step call per M-step
    # and per candidate step, each over every copy
    counts = counted_steps(monkeypatch)
    cloud = tube(0)
    alone = fit_em(cloud, 8, FitConfig(seed=0))
    single = dict(counts)
    assert single["candidates"] > 0 and single["e"] == single["m"] + single["candidates"]
    for key in counts:
        counts[key] = 0
    results = fit_em_candidates([cloud] * 4, [8], FitConfig(seed=0))[0]
    assert {fit_bytes(r) for r in results} == {fit_bytes(alone)}
    assert counts == {"e": 4 * single["e"], "m": 4 * single["m"],
                      "candidates": 4 * single["candidates"],
                      "e_calls": single["e_calls"], "m_calls": single["m_calls"]}


def test_a_mixed_batch_steps_each_fit_as_fit_em_does(monkeypatch, small_batches):
    # per fit, the batch runs the M-steps, E-steps and candidates that
    # fit_em runs, E-steps = M-steps + candidates, and fewer calls
    clouds = mixed_clouds()
    counts = counted_steps(monkeypatch)
    one_by_one(clouds, 4, FitConfig(seed=2))
    serial = dict(counts)
    for key in counts:
        counts[key] = 0
    fit_em_candidates(clouds, [4], FitConfig(seed=2))
    for key in ("e", "m", "candidates"):
        assert counts[key] == serial[key]
    assert counts["e"] == counts["m"] + counts["candidates"]
    assert counts["m_calls"] < serial["m_calls"]


PREPARATION = ("_sorted_points", "covariance_floor", "centred_features", "kmeans_init")


def counted_preparation(monkeypatch):
    """Count the calls of each step of a cloud's preparation and of
    rng_stream, through the em attributes a fit looks them up by."""
    counts = {}

    def counted(name):
        real = getattr(em, name)

        def wrapper(*args):
            counts[name] = counts.get(name, 0) + 1
            return real(*args)
        return wrapper

    for name in PREPARATION + ("rng_stream",):
        monkeypatch.setattr(em, name, counted(name))
    return counts


def test_a_batch_sorts_floors_and_builds_features_once_per_cloud(monkeypatch, small_batches):
    clouds = mixed_clouds()
    counts = counted_preparation(monkeypatch)
    fit_em_candidates(clouds, [4], FitConfig(seed=0))
    assert counts == dict(dict.fromkeys(PREPARATION, len(clouds)),
                          rng_stream=em.KMEANS_RESTARTS * len(clouds))


def test_build_ensembles_prepares_each_cloud_once_for_all_its_ks(monkeypatch, small_batches):
    # one sort, floor, feature table and kmeans_init call per cloud, and
    # one seeding stream per restart, whatever the number of Ks
    monkeypatch.setattr(em, "MAX_ITERATIONS", 4)
    clouds = mixed_clouds()
    counts = counted_preparation(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        build_ensembles(clouds, (1, 2, 4, 8, 16, 32), FitConfig(seed=0))
    assert counts == dict(dict.fromkeys(PREPARATION, len(clouds)),
                          rng_stream=em.KMEANS_RESTARTS * len(clouds))


@pytest.mark.parametrize("k", [4, 32])
def test_each_e_step_equals_the_e_step_of_the_state_rows(monkeypatch, k):
    # a map's E-step reads its M-step's precisions and log-determinants,
    # and a SQUAREM candidate's those of its extrapolated theta: each is
    # the closed form of the covariances in the state rows it stands for,
    # bit for bit, but where the M-step floored a covariance; there they
    # come from floor_spd's factor and match the floored row's
    m_step_arrays, extrapolate, floor = em._m_step_arrays, em._extrapolate, em._floor
    floored, batch_sizes = [], []
    checked = {"maps": 0, "candidates": 0, "floored": 0}

    def assert_same(got, want):
        assert all(a.tobytes() == b.tobytes() for a, b in zip(got, want))

    def floor_recorded(covs, eps, binding, *args):
        floored.append(binding.copy())
        return floor(covs, eps, binding, *args)

    def m_step_checked(phi, gamma, eps):
        floored.clear()
        state, parts, failed = m_step_arrays(phi, gamma, eps)
        weights, means, covs = state
        precision, log_det, _ = em._closed_form(covs, eps, 1.0)
        bound = floored[0] if floored else np.zeros(weights.shape, dtype=bool)
        assert_same(parts[:2], (weights, means))
        assert_same((parts[2][~bound], parts[3][~bound]), (precision[~bound], log_det[~bound]))
        if bound.any():
            assert_precisions_match(parts[2][bound], parts[3][bound], covs[bound])
        checked["maps"] += 1
        checked["floored"] += int(bound.sum())
        batch_sizes.append(len(phi))
        return state, parts, failed

    def extrapolate_checked(theta0, theta1, theta2, step_max, eps):
        alpha, rows, parts = extrapolate(theta0, theta1, theta2, step_max, eps)
        if len(rows):
            steps, candidate = np.array(alpha)[rows], []
            for a, b, c in zip(theta0, theta1, theta2):
                step = steps.reshape(steps.shape + (1,) * (a.ndim - 1))
                r, v = b[rows] - a[rows], c[rows] - 2.0 * b[rows] + a[rows]
                candidate.append(a[rows] + 2.0 * step * r + step * step * v)
            weights, means, covs = candidate
            assert_same(parts, (weights, means) + em._closed_form(covs, eps[rows], 0.0)[:2])
            checked["candidates"] += len(rows)
        return alpha, rows, parts

    monkeypatch.setattr(em, "_floor", floor_recorded)
    monkeypatch.setattr(em, "_m_step_arrays", m_step_checked)
    monkeypatch.setattr(em, "_extrapolate", extrapolate_checked)
    fit_em_candidates(mixed_clouds(), [k], FitConfig(seed=0))
    assert checked["maps"] > 20 and checked["candidates"] > 5 and checked["floored"] > 0
    assert max(batch_sizes) > 1


def test_each_fits_squarem_step_sums_its_own_norms_in_order(monkeypatch):
    # a fit's step alpha = min(step_max, |r| / |v|) takes each norm as the
    # three vdots over its own weights, means and covariances summed in
    # that order: the bits it gets from its parts as arrays of their own
    steps = []
    extrapolate = em._extrapolate

    def recorded(*args):
        # copies: the winners' rows of theta2 are overwritten in place
        steps.append(([tuple(part.copy() for part in theta) for theta in args[:3]],
                      list(args[3])))
        alpha, rows, parts = extrapolate(*args)
        steps[-1] += (alpha,)
        return alpha, rows, parts

    monkeypatch.setattr(em, "_extrapolate", recorded)
    fit_em_candidates(mixed_clouds(), [4], FitConfig(seed=2))
    assert sum(len(caps) for _, caps, _ in steps) > 50
    for thetas, caps, alpha in steps:
        for i, cap in enumerate(caps):
            p0, p1, p2 = ([np.array(part[i]) for part in theta[:3]] for theta in thetas)
            r = [b - a for a, b in zip(p0, p1)]
            v = [c - 2.0 * b + a for a, b, c in zip(p0, p1, p2)]
            sv2 = sum(float(np.vdot(x, x)) for x in v)
            ratio = (math.sqrt(sum(float(np.vdot(x, x)) for x in r) / sv2) if sv2 > 0.0
                     else math.inf)
            assert alpha[i] == min(cap, ratio)


def planar(cloud: PointCloud) -> PointCloud:
    """The cloud flattened onto z = 0: the floor binds on every covariance
    of its fits, so each of its M-steps runs floor_spd's eigh."""
    pts = cloud.points.copy()
    pts[:, 2] = 0.0
    return PointCloud(pts)


def poisoned(monkeypatch, target: PointCloud):
    """Patch the steps so that the target cloud's fit can fail, and return
    arm(mode), which chooses how and restarts the count: "collapse" gives
    component 1 no point of its k-means++ start, "nan" poisons its second
    E-step (a non-finite log-likelihood), and "eigh" puts NaN into its
    binding covariances from the fourth of its floor_spd calls on, so the
    floor's eigh fails. The fit's slice is found by its points, its first
    feature column or its covariance floor."""
    kmeans_init, feature_log_densities, floor_spd = (
        em.kmeans_init, em.feature_log_densities, em.floor_spd)
    pts = em._sorted_points(target.points)
    eps = em.covariance_floor(pts)
    x0 = pts[0, 0] - pts.mean(axis=0)[0]
    seen = {"e": 0, "m": 0}
    modes = set()

    def bad_kmeans(points, ks, seed):
        seeded = kmeans_init(points, ks, seed)
        if "collapse" in modes and np.array_equal(points, pts):
            for codes in seeded:
                codes[codes == 1] = 0
        return seeded

    def bad_e(phi, *args, **kwargs):
        lwd = feature_log_densities(phi, *args, **kwargs)
        for b in np.flatnonzero(phi[:, 1, 0] == x0):
            seen["e"] += 1
            if "nan" in modes and seen["e"] == 2:
                lwd[b] = np.nan
        return lwd

    def bad_floor(covs, floors):
        mine = floors.reshape(-1) == eps
        if mine.any():
            seen["m"] += 1
            if "eigh" in modes and seen["m"] >= 4:
                covs = covs.copy()
                covs[mine] = np.nan
        return floor_spd(covs, floors)

    monkeypatch.setattr(em, "kmeans_init", bad_kmeans)
    monkeypatch.setattr(em, "feature_log_densities", bad_e)
    monkeypatch.setattr(em, "floor_spd", bad_floor)

    def arm(mode):
        modes.clear()
        modes.add(mode)
        seen.update(e=0, m=0)
    return arm


@pytest.mark.parametrize("mode, message", [
    ("collapse", r"^fit failed at iteration 0: component 1 collapsed: mass 0 < 1e-12$"),
    ("nan", r"^non-finite log-likelihood at iteration 1$"),
    ("eigh", r"^fit failed at iteration 3: Eigenvalues did not converge$"),
])
def test_a_failing_fit_fails_only_itself(monkeypatch, mode, message):
    clouds = [tube(s) for s in range(4)]
    clouds[2] = target = planar(clouds[2])
    arm = poisoned(monkeypatch, target)
    config = FitConfig(seed=0)
    arm(mode)
    with pytest.raises(FitError, match=message) as alone:
        fit_em(target, 4, config)
    arm(mode)
    batched = fit_em_candidates(clouds, [4], config)[0]
    assert isinstance(batched[2], FitError) and str(batched[2]) == str(alone.value)
    monkeypatch.undo()
    others = [fit_bytes(r) for i, r in enumerate(batched) if i != 2]
    assert others == [fit_bytes(fit_em(c, 4, config)) for i, c in enumerate(clouds) if i != 2]


def test_a_failing_floor_retries_its_batch_mates_one_by_one(monkeypatch):
    # both clouds are planar, so their binding covariances share each
    # floor_spd call; when the target's poisoned eigh fails the stack, the
    # other fit's matrices are floored again one by one, with their bits
    clouds = [planar(tube(0)), planar(tube(2))]
    arm = poisoned(monkeypatch, clouds[1])
    config = FitConfig(seed=0)
    arm("eigh")
    with pytest.raises(FitError, match=r"^fit failed at iteration 3: ") as alone:
        fit_em(clouds[1], 4, config)
    arm("eigh")
    batched = fit_em_candidates(clouds, [4], config)[0]
    assert isinstance(batched[1], FitError) and str(batched[1]) == str(alone.value)
    monkeypatch.undo()
    assert fit_bytes(batched[0]) == fit_bytes(fit_em(clouds[0], 4, config))


def test_a_fit_whose_final_mixture_is_refused_fails_only_itself(monkeypatch):
    clouds = [tube(s) for s in range(3)]
    config = FitConfig(seed=0)
    fits = [fit_em(c, 4, config) for c in clouds]
    refused = fits[1].model.means
    gmm = em.Gmm

    def picky(weights, means, covariances):
        if np.array_equal(means, refused):
            raise DegenerateCovarianceError("refused for the test")
        return gmm(weights, means, covariances)

    monkeypatch.setattr(em, "Gmm", picky)
    message = f"fit failed at iteration {fits[1].iterations}: refused for the test"
    with pytest.raises(FitError, match=f"^{message}$") as alone:
        fit_em(clouds[1], 4, config)
    assert isinstance(alone.value.__cause__, DegenerateCovarianceError)
    batched = fit_em_candidates(clouds, [4], config)[0]
    assert isinstance(batched[1], FitError) and str(batched[1]) == message
    assert [fit_bytes(batched[i]) for i in (0, 2)] == [fit_bytes(fits[i]) for i in (0, 2)]


def test_a_fit_whose_stabilising_map_fails_fails_only_itself(monkeypatch):
    # NaN covariances in the target's first M-step inside a SQUAREM step,
    # the stabilising map's, in the floor's eigh of the binding matrices
    # and in its retry one matrix at a time
    clouds = [tube(s) for s in range(4)]
    clouds[2] = target = planar(clouds[2])
    eps = em.covariance_floor(em._sorted_points(target.points))
    floor_spd, squarem = em.floor_spd, em._Lockstep._squarem
    inside = []

    def marked(self, ll):
        inside.append(True)
        squarem(self, ll)
        inside.pop()

    def bad_floor(covs, floors):
        mine = floors.reshape(-1) == eps
        if inside and mine.any():
            covs = covs.copy()
            covs[mine] = np.nan
        return floor_spd(covs, floors)

    monkeypatch.setattr(em._Lockstep, "_squarem", marked)
    monkeypatch.setattr(em, "floor_spd", bad_floor)
    config = FitConfig(seed=0)
    with pytest.raises(FitError, match=r"^fit failed at iteration 5: "
                                       r"Eigenvalues did not converge$") as alone:
        fit_em(target, 4, config)
    batched = fit_em_candidates(clouds, [4], config)[0]
    assert isinstance(batched[2], FitError) and str(batched[2]) == str(alone.value)
    monkeypatch.undo()
    others = [fit_bytes(r) for i, r in enumerate(batched) if i != 2]
    assert others == [fit_bytes(fit_em(c, 4, config)) for i, c in enumerate(clouds) if i != 2]


THREAD_SCRIPT = """
import hashlib
import numpy as np
from gmmcloud.em import FitConfig, fit_em_candidates
from gmmcloud.shapes import make_bent_tube, tube_spec_for_class
clouds = [make_bent_tube(tube_spec_for_class("demented", n_points=n), s)
          for s, n in ((0, 600), (1, 600), (2, 600), (3, 6000), (4, 6000))]
h = hashlib.sha256()
for k in (2, 8):
    for r in fit_em_candidates(clouds, [k], FitConfig(seed=0))[0]:
        for a in (r.model.weights, r.model.means, r.model.covariances,
                  np.array(r.log_likelihood_trace)):
            h.update(np.ascontiguousarray(a).tobytes())
print(h.hexdigest())
"""


def test_batched_fits_do_not_depend_on_the_blas_thread_count():
    # a batched product has a new shape, which BLAS could split over
    # threads in a new way; checked in new interpreters, one single-threaded
    src = os.path.dirname(os.path.dirname(gmmcloud.__file__))
    env = {key: value for key, value in os.environ.items() if not key.endswith("_NUM_THREADS")}
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])
    digests = [subprocess.run([sys.executable, "-c", THREAD_SCRIPT], env=dict(env, **extra),
                              capture_output=True, text=True, timeout=300, check=True).stdout
               for extra in ({}, {"OPENBLAS_NUM_THREADS": "1"})]
    assert len(digests[0]) == 65 and digests[0] == digests[1]
