"""Acceptance suite: one test per shipping criterion, each printing a
single PASS/FAIL line with the measured numbers behind the verdict."""

import math
import os
import time

import numpy as np
from click.testing import CliRunner

from conftest import (
    RECOVERY_COVS,
    RECOVERY_MEANS,
    RECOVERY_WEIGHTS,
    best_match,
    cloud_moments,
    drawn_indices,
    grid_ensemble,
    mixture_moments,
    random_gmm,
    random_spd,
    recovery_cloud,
    sample_mixture,
    spd_distance,
    sphere_distance,
)
from gmmcloud.cli import main as cli_main
from gmmcloud.em import FitConfig, FitError, fit_em
from gmmcloud.embedding import arc_distance, embed, inflated_bounds, make_probe_set
from gmmcloud.geodesics import (
    interpolate_point_clouds,
    product_geodesic,
    sphere_geodesic,
    spd_geodesic,
)
from gmmcloud.model import PointCloud
from gmmcloud.pipeline import ExperimentConfig, run_generation_classification
from gmmcloud.sampling import generate_point_cloud, rng_stream
from gmmcloud.selection import aic_score, akaike_weights, build_ensemble
from gmmcloud.shapes import add_outliers, make_bent_tube, tube_spec_for_class


def _report(num: int, ok: bool, detail: str):
    print(f"criterion {num:02d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num:02d}: {detail}"


def test_criterion_01_em_trace_never_decreases():
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    worst = np.inf
    for _ in range(50):
        n = int(rng.integers(200, 5001))
        k = int(rng.choice([1, 2, 4, 8]))
        truth = random_gmm(rng, int(rng.integers(1, 5)))
        cloud = PointCloud(sample_mixture(rng, n, truth.weights, truth.means,
                                          truth.covariances))
        result = fit_em(cloud, k, FitConfig(seed=int(rng.integers(0, 1000))))
        trace = np.array(result.log_likelihood_trace)
        if trace.size > 1:
            worst = min(worst, float(np.min(np.diff(trace))))
    elapsed = time.perf_counter() - start
    ok = worst >= -1e-8 and elapsed < 60.0
    _report(1, ok, f"worst log-likelihood step {worst:.3e} over 50 randomized fits "
                   f"in {elapsed:.1f}s")


def test_criterion_02_two_component_recovery():
    cloud = recovery_cloud(n=5000, seed=11)
    model = fit_em(cloud, 2, FitConfig(seed=0)).model
    perm = best_match(model.means, RECOVERY_MEANS)
    mean_err = max(
        float(np.linalg.norm(model.means[p] - RECOVERY_MEANS[j]))
        for j, p in enumerate(perm))
    weight_err = max(
        abs(float(model.weights[p]) - float(RECOVERY_WEIGHTS[j]))
        for j, p in enumerate(perm))
    cov_err = max(
        float(np.linalg.norm(model.covariances[p] - RECOVERY_COVS[j]))
        for j, p in enumerate(perm))
    ok = mean_err <= 0.1 and weight_err <= 0.03 and cov_err <= 0.15
    _report(2, ok, f"recovered means within {mean_err:.4f}, weights within "
                   f"{weight_err:.4f}, covariances within {cov_err:.4f} (Frobenius)")


def test_criterion_03_aic_finds_three_components():
    weights = np.array([0.3, 0.3, 0.4])
    means = np.array([[0.0, 0.0, 0.0], [8.0, 0.0, 0.0], [0.0, 8.0, 0.0]])
    covs = np.stack([np.eye(3)] * 3)
    hits = 0
    start = time.perf_counter()
    for seed in range(5):
        rng = np.random.default_rng(1000 + seed)
        cloud = PointCloud(sample_mixture(rng, 1200, weights, means, covs))
        scores = []
        for k in range(1, 9):
            try:
                result = fit_em(cloud, k, FitConfig(seed=0))
            except FitError:
                continue
            scores.append((k, aic_score(cloud, result.model)))
        best_k = min(scores, key=lambda pair: pair[1])[0]
        hits += best_k == 3
    elapsed = time.perf_counter() - start
    ok = hits >= 4
    _report(3, ok, f"AIC picked K=3 in {hits}/5 seeds (K scanned 1..8) in {elapsed:.1f}s")


def test_criterion_04_akaike_weights_reference_case():
    table = akaike_weights([(1, 100.0), (2, 102.0), (3, 120.0)])
    kept = [row for row in table.rows if row.kept]
    total = math.fsum(row.normalized for row in kept)
    renormalized = [row.normalized / total for row in kept]
    expected = (0.73106, 0.26894)
    dev = max(abs(a - b) for a, b in zip(renormalized, expected))
    ok = ([row.k for row in kept] == [1, 2]
          and not table.rows[2].kept
          and dev < 1e-5)
    _report(4, ok, f"AICs (100, 102, 120) keep K=(1, 2) at p={renormalized[0]:.5f}, "
                   f"{renormalized[1]:.5f} (max deviation {dev:.2e}); third excluded")


def test_criterion_05_geodesic_laws():
    rng = np.random.default_rng(55)
    end_dev = add_dev = commute_dev = gl_dev = 0.0
    for _ in range(20):
        s1, s2 = random_spd(rng), random_spd(rng)
        t = float(rng.uniform())
        end_dev = max(end_dev,
                      float(np.max(np.abs(spd_geodesic(s1, s2, 0.0) - s1))),
                      float(np.max(np.abs(spd_geodesic(s1, s2, 1.0) - s2))))
        total = spd_distance(s1, s2)
        for s in (0.25, 0.5, 0.75):
            gamma = spd_geodesic(s1, s2, s)
            add_dev = max(add_dev, abs(spd_distance(s1, gamma) - s * total))
        # commuting pair: shared eigenbasis, scalar-power closed form
        q = np.linalg.qr(rng.normal(size=(3, 3)))[0]
        a = rng.uniform(0.2, 5.0, size=3)
        b = rng.uniform(0.2, 5.0, size=3)
        c1, c2 = (q * a) @ q.T, (q * b) @ q.T
        closed = (q * (a ** (1.0 - t) * b ** t)) @ q.T
        commute_dev = max(commute_dev,
                          float(np.max(np.abs(spd_geodesic(c1, c2, t) - closed))))
        mat = rng.normal(size=(3, 3))
        direct = mat @ spd_geodesic(s1, s2, t) @ mat.T
        congruent = spd_geodesic(mat @ s1 @ mat.T, mat @ s2 @ mat.T, t)
        gl_dev = max(gl_dev, float(np.linalg.norm(direct - congruent)
                                   / np.linalg.norm(direct)))
        # full product path: endpoints across all three slots, the sphere
        # slot compared on the square-root weights
        g1 = random_gmm(rng, 3)
        g2 = random_gmm(rng, 3)
        for model, end in ((g1, product_geodesic(g1, g2, 0.0)),
                           (g2, product_geodesic(g1, g2, 1.0))):
            end_dev = max(end_dev,
                          float(np.max(np.abs(np.sqrt(end.weights) - np.sqrt(model.weights)))),
                          float(np.max(np.abs(end.means - model.means))),
                          float(np.max(np.abs(end.covariances - model.covariances))))
        w1 = np.abs(rng.normal(size=4)) + 1e-3
        w2 = np.abs(rng.normal(size=4)) + 1e-3
        w1, w2 = w1 / np.linalg.norm(w1), w2 / np.linalg.norm(w2)
        theta = sphere_distance(w1, w2)
        for s in (0.25, 0.5, 0.75):
            add_dev = max(add_dev, abs(
                sphere_distance(w1, sphere_geodesic(w1, w2, s)) - s * theta))
    ok = end_dev <= 1e-10 and add_dev <= 1e-8 and commute_dev <= 1e-10 and gl_dev <= 1e-8
    _report(5, ok, f"20 random draws: endpoints {end_dev:.2e}, additivity {add_dev:.2e}, "
                   f"commuting closed form {commute_dev:.2e}, congruence {gl_dev:.2e}")


def test_criterion_06_hierarchical_sampling_law():
    ensemble = grid_ensemble((0.6, 0.4), ((0.3, 0.7), (0.2, 0.3, 0.5)))
    n = 1_000_000
    member_idx, comp_idx = drawn_indices(ensemble, n, 1234)
    freq_dev = se_bound = 0.0
    within = True
    for mi, weights in ((0, (0.3, 0.7)), (1, (0.2, 0.3, 0.5))):
        p_member = ensemble.members[mi].weight
        for ci, w in enumerate(weights):
            p = p_member * w
            freq = float(np.mean((member_idx == mi) & (comp_idx == ci)))
            bound = 4.0 * math.sqrt(p * (1.0 - p) / n)
            within = within and abs(freq - p) <= bound
            freq_dev = max(freq_dev, abs(freq - p))
            se_bound = max(se_bound, bound)

    tube = make_bent_tube(tube_spec_for_class("nondemented", n_points=600), seed=2)
    fitted, _ = build_ensemble(tube, (2, 4, 8), FitConfig(seed=0))
    regen = generate_point_cloud(fitted, 5000, rng_stream(7))
    model_mean, model_cov = mixture_moments(fitted)
    sample_mean, sample_cov = cloud_moments(regen.points)
    mean_err = float(np.linalg.norm(sample_mean - model_mean)
                     / math.sqrt(float(np.trace(model_cov))))
    cov_err = float(np.linalg.norm(sample_cov - model_cov) / np.linalg.norm(model_cov))
    ok = within and mean_err < 0.05 and cov_err < 0.05
    _report(6, ok, f"joint assignment frequencies off by at most {freq_dev:.2e} "
                   f"(4 SE cap {se_bound:.2e}); regenerated moments off by "
                   f"{mean_err:.3f} / {cov_err:.3f} at N=5000")


def test_criterion_07_interpolation_monotone_in_embedding():
    x = make_bent_tube(tube_spec_for_class("nondemented", n_points=600), seed=0)
    y = PointCloud(x.points * np.array([-1.0, 1.0, 1.0]), label=x.label)
    result = interpolate_point_clouds(x, y, candidate_ks=(4,), seed=0)
    probes = make_probe_set([x, y], seed=0)
    anchors = [embed(m, probes) for m in result.models]
    distances = [arc_distance(anchors[0], e) for e in anchors]
    ok = all(b > a for a, b in zip(distances, distances[1:]))
    _report(7, ok, "distance from the t=0 model rises along t=0..1: "
                   + ", ".join(f"{d:.3f}" for d in distances))


def test_criterion_08_generation_classification_accuracy():
    start = time.perf_counter()
    report = run_generation_classification(ExperimentConfig())
    elapsed = time.perf_counter() - start
    ok = report.mean_accuracy >= 0.90 and elapsed < 300.0
    _report(8, ok, f"mean 1-NN accuracy {report.mean_accuracy:.3f} over "
                   f"{len(report.per_seed)} probe seeds (33+36 clouds, 5 bases/class) "
                   f"in {elapsed:.1f}s")


def test_criterion_09_outlier_refits_stay_near_their_class():
    start = time.perf_counter()
    wins = 0
    for trial in range(20):
        clean = {
            "demented": make_bent_tube(
                tube_spec_for_class("demented", n_points=400), seed=100 + trial),
            "nondemented": make_bent_tube(
                tube_spec_for_class("nondemented", n_points=400), seed=200 + trial),
        }
        target = "demented" if trial % 2 == 0 else "nondemented"
        other = "nondemented" if target == "demented" else "demented"
        bounds = inflated_bounds(list(clean.values()))
        dirty = add_outliers(clean[target], 0.05, bounds, seed=300 + trial)
        fits = {name: fit_em(cloud, 4, FitConfig(seed=0)).model
                for name, cloud in clean.items()}
        dirty_fit = fit_em(dirty, 4, FitConfig(seed=0)).model
        probes = make_probe_set(list(clean.values()), seed=trial)
        emb = {name: embed(model, probes) for name, model in fits.items()}
        dirty_emb = embed(dirty_fit, probes)
        wins += (arc_distance(dirty_emb, emb[target])
                 < arc_distance(dirty_emb, emb[other]))
    elapsed = time.perf_counter() - start
    ok = wins >= 18
    _report(9, ok, f"contaminated refit closer to its own class in {wins}/20 trials "
                   f"in {elapsed:.1f}s")


def test_criterion_10_cli_runs_are_byte_identical(tmp_path):
    runner = CliRunner()

    def run(args):
        result = runner.invoke(cli_main, args, catch_exceptions=False)
        assert result.exit_code == 0, result.output
        return result.output

    def twice(build_args, paths_of):
        """Invoke a command into two sibling sandboxes, compare written files.

        The echoed text names the per-side paths, so only file bytes are
        comparable across sides.
        """
        outs = []
        for side in ("a", "b"):
            root = tmp_path / side
            root.mkdir(exist_ok=True)
            run(build_args(str(root)))
            outs.append(paths_of(str(root)))
        files_a, files_b = outs
        assert [os.path.basename(f) for f in files_a] == \
            [os.path.basename(f) for f in files_b]
        for fa, fb in zip(files_a, files_b):
            with open(fa, "rb") as ha, open(fb, "rb") as hb:
                assert ha.read() == hb.read(), os.path.basename(fa)
        return len(files_a)

    checked = 0
    try:
        checked = _run_cli_matrix(tmp_path, run, twice)
    except AssertionError as exc:
        _report(10, False, f"repeated invocation diverged: {exc}")
    _report(10, True, f"{checked} repeated command outputs byte-identical "
                      f"(synth, fit, sample, probes, embed, interpolate, classify, "
                      f"eval-paper-pipeline)")


def _run_cli_matrix(tmp_path, run, twice) -> int:
    checked = 0
    checked += twice(
        lambda d: ["synth", "--class", "demented", "--n", "120", "--seed", "3",
                   "-o", f"{d}/tube.xyz"],
        lambda d: [f"{d}/tube.xyz"])
    checked += twice(
        lambda d: ["synth", "--class", "nondemented", "--n", "120", "--seed", "4",
                   "-o", f"{d}/tube2.xyz"],
        lambda d: [f"{d}/tube2.xyz"])
    checked += twice(
        lambda d: ["fit", f"{d}/tube.xyz", "--ks", "2,4", "--seed", "0",
                   "-o", f"{d}/model.json"],
        lambda d: [f"{d}/model.json"])
    checked += twice(
        lambda d: ["sample", f"{d}/model.json", "--n", "80", "--seed", "1",
                   "-o", f"{d}/regen.xyz"],
        lambda d: [f"{d}/regen.xyz"])
    checked += twice(
        lambda d: ["probes", f"{d}/tube.xyz", f"{d}/tube2.xyz", "--seed", "2",
                   "--count", "200", "-o", f"{d}/probes.json"],
        lambda d: [f"{d}/probes.json"])
    checked += twice(
        lambda d: ["embed", f"{d}/model.json", "--probes", f"{d}/probes.json",
                   "-o", f"{d}/emb.json"],
        lambda d: [f"{d}/emb.json"])
    checked += twice(
        lambda d: ["interpolate", f"{d}/tube.xyz", f"{d}/tube2.xyz", "--ts", "0,1",
                   "--ks", "2", "--n", "40", "-o", f"{d}/morph"],
        lambda d: sorted(
            os.path.join(d, "morph", name) for name in os.listdir(f"{d}/morph")))
    # stdout-only commands: the printed report is the output
    assert run(["classify", "--train", f"{tmp_path}/a/emb.json",
                "--test", f"{tmp_path}/a/emb.json"]) == \
        run(["classify", "--train", f"{tmp_path}/b/emb.json",
             "--test", f"{tmp_path}/b/emb.json"])
    eval_args = ["eval-paper-pipeline", "--bases", "1", "--counts", "1,1",
                 "--n-points", "100", "--ks", "2", "--seeds", "0"]
    assert run(eval_args) == run(eval_args)
    return checked + 2
