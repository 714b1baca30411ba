"""End-to-end command-line interface checks."""

import errno
import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import gmmcloud
from conftest import near_singular_spd
from gmmcloud import cli, geodesics
from gmmcloud.cli import main
from gmmcloud.embedding import ClassificationMetrics
from gmmcloud.io import (
    load_embeddings,
    load_model,
    load_probe_set,
    read_point_cloud,
    save_embeddings,
    write_point_cloud,
)
from gmmcloud.model import PointCloud
from gmmcloud.pipeline import ExperimentConfig, ExperimentReport
from gmmcloud.selection import default_candidate_ks

runner = CliRunner()


def run_cli(args, **kwargs):
    result = runner.invoke(main, args, catch_exceptions=False, **kwargs)
    assert result.exit_code == 0, result.output
    return result


def read_bytes(path):
    with open(path, "rb") as handle:
        return handle.read()


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Clouds, fitted models, probes, and embeddings shared by the tests."""
    root = tmp_path_factory.mktemp("cli")
    paths = {"root": root}
    for name, label, seed in [("dem0", "demented", 10), ("dem1", "demented", 11),
                              ("non0", "nondemented", 20), ("non1", "nondemented", 21)]:
        cloud = str(root / f"{name}.xyz")
        run_cli(["synth", "--class", label, "--n", "150", "--seed", str(seed),
                 "-o", cloud])
        model = str(root / f"{name}_model.json")
        run_cli(["fit", cloud, "--ks", "2", "--seed", "0", "-o", model])
        paths[name] = cloud
        paths[f"{name}_model"] = model
    probes = str(root / "probes.json")
    run_cli(["probes", paths["dem0"], paths["dem1"], paths["non0"], paths["non1"],
             "--seed", "1", "--count", "400", "-o", probes])
    paths["probes"] = probes
    train = str(root / "train_emb.json")
    run_cli(["embed", paths["dem0_model"], paths["non0_model"],
             "--probes", probes, "-o", train])
    test = str(root / "test_emb.json")
    run_cli(["embed", paths["dem1_model"], paths["non1_model"],
             "--probes", probes, "-o", test])
    paths["train_emb"] = train
    paths["test_emb"] = test
    return paths


@pytest.mark.parametrize("command", [
    [], ["fit"], ["sample"], ["interpolate"], ["synth"], ["probes"],
    ["embed"], ["classify"], ["eval-paper-pipeline"],
])
def test_help_screens(command):
    result = runner.invoke(main, command + ["--help"], catch_exceptions=False)
    assert result.exit_code == 0
    assert "Usage:" in result.output


@pytest.mark.parametrize("command", ["embed", "classify"])
def test_deterministic_commands_take_no_seed(command):
    result = runner.invoke(main, [command, "--help"], catch_exceptions=False)
    assert result.exit_code == 0
    assert "--seed" not in result.output


def test_synth_writes_labeled_cloud(tmp_path):
    out = str(tmp_path / "tube.xyz")
    result = run_cli(["synth", "--class", "demented", "--n", "80", "--seed", "3",
                      "-o", out])
    assert f"wrote 80 points to {out}" in result.output
    cloud = read_point_cloud(out)
    assert len(cloud) == 80
    assert cloud.label == "demented"


def test_synth_is_byte_deterministic(tmp_path):
    a, b = str(tmp_path / "a.xyz"), str(tmp_path / "b.xyz")
    args = ["synth", "--class", "nondemented", "--n", "60", "--seed", "4"]
    run_cli(args + ["-o", a])
    run_cli(args + ["-o", b])
    assert read_bytes(a) == read_bytes(b)


def test_synth_outliers_change_the_cloud(tmp_path):
    clean, dirty = str(tmp_path / "clean.xyz"), str(tmp_path / "dirty.xyz")
    run_cli(["synth", "--class", "demented", "--n", "100", "--seed", "5", "-o", clean])
    run_cli(["synth", "--class", "demented", "--n", "100", "--seed", "5",
             "--outliers", "0.2", "-o", dirty])
    a = read_point_cloud(clean).points
    b = read_point_cloud(dirty).points
    assert int(np.any(a != b, axis=1).sum()) == 20


def test_fit_prints_table_and_writes_model(workspace):
    model = load_model(workspace["dem0_model"])
    assert model.metadata.training_n == 150
    assert model.metadata.candidate_ks == (2,)
    assert model.metadata.label == "demented"
    # rerunning the same fit reproduces the file byte for byte
    again = str(workspace["root"] / "again.json")
    result = run_cli(["fit", workspace["dem0"], "--ks", "2", "--seed", "0",
                      "-o", again])
    header, first_row = result.output.splitlines()[:2]
    assert header.split() == ["K", "AIC", "weight", "kept"]
    assert first_row.split()[0] == "2"
    assert f"wrote {again}" in result.output
    assert read_bytes(again) == read_bytes(workspace["dem0_model"])


def test_sample_defaults_to_training_size(workspace, tmp_path):
    out = str(tmp_path / "regen.xyz")
    result = run_cli(["sample", workspace["dem0_model"], "-o", out])
    assert f"wrote 150 points to {out}" in result.output
    cloud = read_point_cloud(out)
    assert len(cloud) == 150
    assert cloud.label == "demented"
    small = str(tmp_path / "small.xyz")
    run_cli(["sample", workspace["dem0_model"], "--n", "25", "-o", small])
    assert len(read_point_cloud(small)) == 25


def test_fit_has_no_center_option(workspace, tmp_path):
    result = runner.invoke(main, ["fit", workspace["dem0"], "--center",
                                  "-o", str(tmp_path / "m.json")])
    assert result.exit_code == 2
    assert "No such option" in result.output and "--center" in result.output


@pytest.fixture
def six_point_cloud(tmp_path):
    """A cloud of 6 distinct points, 10 copies of each."""
    path = str(tmp_path / "six.xyz")
    pts = np.repeat(np.random.default_rng(6).normal(size=(6, 3)), 10, axis=0)
    write_point_cloud(PointCloud(pts), path)
    return path


SIX_POINT_DROP = "K=8 needs 8 distinct points, the cloud has 6"


@pytest.mark.parametrize("command", [["fit", "{cloud}"], ["interpolate", "{cloud}", "{cloud}"]],
                         ids=["fit", "interpolate"])
def test_fit_beyond_the_distinct_points_is_a_one_line_error(six_point_cloud, tmp_path,
                                                            command):
    out = str(tmp_path / "out")
    args = [arg.format(cloud=six_point_cloud) for arg in command] + ["--ks", "8", "-o", out]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = runner.invoke(main, args, catch_exceptions=False)
    assert result.exit_code == 1
    assert result.stderr.splitlines() == [
        f"Error: every candidate fit failed: K=8: {SIX_POINT_DROP}"]
    assert not os.path.exists(out)


def test_fit_drops_a_candidate_beyond_the_distinct_points(six_point_cloud, tmp_path):
    out = str(tmp_path / "model.json")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = run_cli(["fit", six_point_cloud, "--ks", "2,8", "-o", out])
    assert result.stderr.splitlines() == [f"Warning: candidate K=8 dropped: {SIX_POINT_DROP}"]
    model = load_model(out)
    assert [row.k for row in model.aic_table.rows] == [2]
    assert [member.model.k for member in model.ensemble.members] == [2]


@pytest.mark.parametrize("ks, exit_code, stderr", [
    ("2,8", 0, f"Warning: candidate K=8 dropped: {SIX_POINT_DROP}"),
    ("8", 1, f"Error: every candidate fit failed: K=8: {SIX_POINT_DROP}"),
], ids=["dropped", "failed"])
def test_fit_in_a_shell_prints_one_stderr_line(six_point_cloud, tmp_path, ks, exit_code,
                                               stderr):
    # a new interpreter, where no test harness captures Python warnings
    src = os.path.dirname(os.path.dirname(gmmcloud.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    proc = subprocess.run(
        [sys.executable, "-m", "gmmcloud.cli", "fit", six_point_cloud, "--ks", ks,
         "-o", str(tmp_path / "model.json")],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == exit_code
    assert proc.stderr.splitlines() == [stderr]


OFFSET = [1000.0, -5.0, 20.0]
# members K = 1 and K = 2 at AIC 100 and 100.8, means relative to OFFSET
CENTRED_MEANS = ([[0.5, -1.0, 0.25]], [[-2.0, 0.0, 1.0], [1.5, 0.5, -0.75]])
# K = 2's Akaike weight, and the members' p: the two weights renormalized
NORMALIZED_2 = math.exp((100.0 - 100.8) / 2.0)
PS = tuple(w / math.fsum([1.0, NORMALIZED_2]) for w in (1.0, NORMALIZED_2))


def write_schema_1_model(path, means, center_offset, normalized_2=NORMALIZED_2, ps=PS):
    """A hand-written schema "1" model file whose member means are stored
    relative to center_offset (None: in the cloud's own frame)."""
    covariances = ([np.diag([1.0, 2.0, 0.5]).tolist()],
                   [np.eye(3).tolist(), np.diag([0.5, 1.0, 2.0]).tolist()])
    obj = {
        "schema_version": "1",
        "kind": "model_file",
        "ensemble": [{"p": p, "model": {"weights": w, "means": m, "covariances": c}}
                     for p, w, m, c in zip(ps, ([1.0], [0.25, 0.75]), means, covariances)],
        "aic_table": [{"k": 1, "aic": 100.0, "normalized": 1.0, "kept": True},
                      {"k": 2, "aic": 100.8, "normalized": normalized_2, "kept": True}],
        "metadata": {"seed": 0, "rel_tolerance": 1e-6, "max_iterations": 200,
                     "kmeans_restarts": 4, "candidate_ks": [1, 2], "training_n": 300,
                     "label": "demented", "center_offset": center_offset},
    }
    with open(path, "w") as handle:
        json.dump(obj, handle)


@pytest.fixture
def centred_and_plain_models(tmp_path):
    """The same mixture written relative to OFFSET and in its own frame."""
    centred = str(tmp_path / "centred.json")
    plain = str(tmp_path / "plain.json")
    write_schema_1_model(centred, CENTRED_MEANS, OFFSET)
    write_schema_1_model(plain, [[[a + o for a, o in zip(mean, OFFSET)] for mean in means]
                                 for means in CENTRED_MEANS], None)
    return centred, plain


def test_centred_model_file_embeds_in_its_cloud_frame(centred_and_plain_models, tmp_path):
    centred, plain = centred_and_plain_models
    cloud = str(tmp_path / "cloud.xyz")
    run_cli(["sample", plain, "--n", "300", "-o", cloud])
    probes = str(tmp_path / "probes.json")
    run_cli(["probes", cloud, "--count", "200", "-o", probes])
    out = str(tmp_path / "emb.json")
    run_cli(["embed", centred, plain, "--probes", probes, "-o", out])
    (a, _, _), (b, _, _) = load_embeddings(out)
    # arc length from the chord, accurate where acos of the dot is not
    angle = 2.0 * math.asin(float(np.linalg.norm(a.coords - b.coords)) / 2.0)
    assert angle < 1e-9


def test_centred_model_file_samples_in_its_cloud_frame(centred_and_plain_models, tmp_path):
    centred, plain = centred_and_plain_models
    outs = [str(tmp_path / name) for name in ("centred.xyz", "plain.xyz")]
    for model, out in zip((centred, plain), outs):
        run_cli(["sample", model, "--n", "400", "--seed", "3", "-o", out])
    points = read_point_cloud(outs[0]).points
    assert np.all(np.abs(points.mean(axis=0) - OFFSET) < 2.0)
    assert read_bytes(outs[0]) == read_bytes(outs[1])


def test_model_file_with_weights_off_its_aics_is_a_one_line_error(tmp_path):
    # 0.67 and p 0.4 / 0.6 where the AICs give 0.6703 and 0.5987 / 0.4013
    path = str(tmp_path / "off.json")
    write_schema_1_model(path, CENTRED_MEANS, OFFSET, normalized_2=0.67, ps=(0.4, 0.6))
    out = str(tmp_path / "out.xyz")
    result = runner.invoke(main, ["sample", path, "-o", out], catch_exceptions=False)
    assert result.exit_code == 1
    assert result.stderr == (
        f"Error: {path}: aic_table row 1 (k, aic, normalized, kept) is (2, 100.8, 0.67, True), "
        f"but the AIC scores give (2, 100.8, {NORMALIZED_2!r}, True)\n")
    assert not os.path.exists(out)


def test_interpolate_writes_frames_and_filmstrip(workspace, tmp_path):
    out = str(tmp_path / "morph")
    result = run_cli(["interpolate", workspace["dem0"], workspace["non0"],
                      "--ts", "0,0.5,1", "--ks", "2", "--n", "50", "-o", out])
    names = sorted(os.listdir(out))
    assert names == ["filmstrip.svg", "frame_00_t0.xyz", "frame_01_t0.5.xyz",
                     "frame_02_t1.xyz"]
    for name in names[1:]:
        assert len(read_point_cloud(os.path.join(out, name))) == 50
    assert result.output.count("wrote ") == 4
    assert "filmstrip.svg" in result.output


@pytest.mark.parametrize("command", [
    ["synth", "--class", "demented", "--n", "50"],
    ["fit", "{cloud}", "--ks", "1"],
    ["sample", "{model}", "--n", "10"],
    ["probes", "{cloud}", "--count", "10"],
    ["embed", "{model}", "--probes", "{probes}"],
], ids=["synth", "fit", "sample", "probes", "embed"])
def test_a_write_into_a_missing_directory_is_a_one_line_error(workspace, tmp_path, command):
    out = str(tmp_path / "missing" / "out")
    args = [arg.format(cloud=workspace["dem0"], model=workspace["dem0_model"],
                       probes=workspace["probes"]) for arg in command]
    result = runner.invoke(main, args + ["-o", out], catch_exceptions=False)
    assert result.exit_code == 1
    assert result.stderr.splitlines() == [f"Error: {out}: {os.strerror(errno.ENOENT)}"]
    assert result.stdout == ""
    assert os.listdir(tmp_path) == []


def test_interpolate_that_cannot_write_is_a_one_line_error(workspace, tmp_path):
    def interpolate(out):
        return runner.invoke(main, ["interpolate", workspace["dem0"], workspace["non0"],
                                    "--ts", "0,1", "--ks", "1", "--n", "20", "-o", out],
                             catch_exceptions=False)
    # a file as the output directory's parent
    out = os.path.join(workspace["dem0"], "morph")
    result = interpolate(out)
    assert result.exit_code == 1
    assert result.stderr.splitlines() == [f"Error: {out}: {os.strerror(errno.ENOTDIR)}"]
    # a directory where the first frame goes: its temp file is written, then
    # cannot replace the frame, and is removed
    out = str(tmp_path / "morph")
    frame = os.path.join(out, "frame_00_t0.xyz")
    os.makedirs(frame)
    result = interpolate(out)
    assert result.exit_code == 1
    assert result.stderr.splitlines() == [f"Error: {frame}: {os.strerror(errno.EISDIR)}"]
    assert os.listdir(out) == ["frame_00_t0.xyz"] and os.listdir(frame) == []


@pytest.mark.parametrize("command, out, error", [
    (["fit", "{a}"], "{tmp}/missing/model.json", errno.ENOENT),
    (["fit", "{a}"], "{a}/model.json", errno.ENOTDIR),
    (["interpolate", "{a}", "{b}"], "{a}/morph", errno.ENOTDIR),
    (["interpolate", "{a}", "{b}"], "{a}/deeper/morph", errno.ENOTDIR),
], ids=["fit-missing", "fit-file", "interpolate-file", "interpolate-file-above"])
def test_an_output_that_cannot_be_written_fails_before_any_fit(workspace, tmp_path,
                                                                monkeypatch, command, out,
                                                                error):
    def no_fit(*args):
        pytest.fail("fitted before checking the output")

    monkeypatch.setattr(cli, "build_ensemble", no_fit)
    monkeypatch.setattr(geodesics, "build_ensemble", no_fit)
    paths = {"a": workspace["dem0"], "b": workspace["non0"], "tmp": tmp_path}
    out = out.format(**paths)
    args = [arg.format(**paths) for arg in command] + ["--ks", "1", "-o", out]
    result = runner.invoke(main, args, catch_exceptions=False)
    assert result.exit_code == 1
    assert result.stderr.splitlines() == [f"Error: {out}: {os.strerror(error)}"]
    assert result.stdout == ""
    assert os.listdir(tmp_path) == []


@pytest.fixture(scope="module")
def small_pair(tmp_path_factory):
    """Two 120-point tubes: the default candidate Ks of each are 1, 2, 4, 8."""
    root = tmp_path_factory.mktemp("small_pair")
    paths = [str(root / "a.xyz"), str(root / "b.xyz")]
    for path, label, seed in zip(paths, ["nondemented", "demented"], [0, 1]):
        run_cli(["synth", "--class", label, "--n", "120", "--seed", str(seed), "-o", path])
    assert default_candidate_ks(120) == (1, 2, 4, 8)
    return paths


def test_fit_without_ks_fits_the_default_ks(small_pair, tmp_path):
    default, given = str(tmp_path / "default.json"), str(tmp_path / "given.json")
    run_cli(["fit", small_pair[0], "-o", default])
    run_cli(["fit", small_pair[0], "--ks", "1,2,4,8", "-o", given])
    assert load_model(default).metadata.candidate_ks == (1, 2, 4, 8)
    assert read_bytes(default) == read_bytes(given)


def test_interpolate_without_ks_fits_the_default_ks(small_pair, tmp_path):
    default, given = str(tmp_path / "default"), str(tmp_path / "given")
    run_cli(["interpolate", *small_pair, "-o", default])
    run_cli(["interpolate", *small_pair, "--ks", "1,2,4,8", "-o", given])
    names = sorted(os.listdir(default))
    assert names == sorted(os.listdir(given)) and "filmstrip.svg" in names
    for name in names:
        assert read_bytes(os.path.join(default, name)) == read_bytes(os.path.join(given, name))


def test_probes_cover_every_input_cloud(workspace):
    probe_set = load_probe_set(workspace["probes"])
    assert len(probe_set.probes) == 400
    assert probe_set.seed == 1
    for name in ("dem0", "dem1", "non0", "non1"):
        pts = read_point_cloud(workspace[name]).points
        assert np.all(pts >= probe_set.bounds[0]) and np.all(pts <= probe_set.bounds[1])


def test_embed_carries_labels_and_sources(workspace):
    entries = load_embeddings(workspace["train_emb"])
    assert [(label, source) for _, label, source in entries] == [
        ("demented", os.path.basename(workspace["dem0_model"])),
        ("nondemented", os.path.basename(workspace["non0_model"])),
    ]
    assert all(emb.coords.size == 400 for emb, _, _ in entries)


def test_classify_reports_predictions_and_metrics(workspace):
    result = run_cli(["classify", "--train", workspace["train_emb"],
                      "--test", workspace["test_emb"]])
    lines = result.output.splitlines()
    assert lines[0] == f"{os.path.basename(workspace['dem1_model'])}: predicted demented"
    assert lines[1] == f"{os.path.basename(workspace['non1_model'])}: predicted nondemented"
    assert re.search(
        r"accuracy 1\.0000  sensitivity 1\.0000  specificity 1\.0000  "
        r"\(positive class: demented\)", result.output)


def test_classify_requires_labeled_training_data(workspace, tmp_path):
    from gmmcloud.io import write_point_cloud
    from gmmcloud.model import PointCloud
    rng = np.random.default_rng(7)
    cloud_path = str(tmp_path / "anon.xyz")
    write_point_cloud(PointCloud(rng.normal(size=(120, 3))), cloud_path)
    model_path = str(tmp_path / "anon_model.json")
    run_cli(["fit", cloud_path, "--ks", "1", "-o", model_path])
    emb_path = str(tmp_path / "anon_emb.json")
    run_cli(["embed", model_path, "--probes", workspace["probes"], "-o", emb_path])
    result = runner.invoke(main, ["classify", "--train", emb_path,
                                  "--test", workspace["test_emb"]])
    assert result.exit_code != 0
    combined = result.output + (result.stderr or "")
    assert "no labels" in combined


def test_classify_without_test_labels_predicts_and_skips_metrics(workspace, tmp_path):
    test = str(tmp_path / "unlabeled.json")
    save_embeddings(test, [(emb, None, source)
                           for emb, _, source in load_embeddings(workspace["test_emb"])])
    result = run_cli(["classify", "--train", workspace["train_emb"], "--test", test])
    assert result.output.splitlines() == [
        f"{os.path.basename(workspace['dem1_model'])}: predicted demented",
        f"{os.path.basename(workspace['non1_model'])}: predicted nondemented",
        "no labeled test embeddings; metrics skipped"]


def test_classify_rejects_embeddings_of_different_sizes(workspace, tmp_path):
    probes = str(tmp_path / "probes50.json")
    run_cli(["probes", workspace["dem1"], "--count", "50", "-o", probes])
    test = str(tmp_path / "test50.json")
    run_cli(["embed", workspace["dem1_model"], "--probes", probes, "-o", test])
    # an exception other than the CLI's own exit would propagate out of invoke
    result = runner.invoke(main, ["classify", "--train", workspace["train_emb"],
                                  "--test", test], catch_exceptions=False)
    assert result.exit_code == 1, result.output
    error = [line for line in result.output.splitlines() if line.startswith("Error:")]
    assert len(error) == 1
    assert workspace["train_emb"] in error[0] and test in error[0]
    assert "[50, 400]" in error[0]
    assert "Traceback" not in result.output


def test_eval_paper_pipeline_reduced_run():
    result = run_cli(["eval-paper-pipeline", "--bases", "1", "--counts", "2,2",
                      "--n-points", "120", "--ks", "2", "--seeds", "0"])
    assert re.search(r"probe seed 0: accuracy \d\.\d{4}", result.output)
    assert "mean over 1 probe seeds" in result.output
    assert "(positive class: demented)" in result.output


def test_eval_paper_pipeline_defaults_are_the_stock_config(monkeypatch):
    seen = []

    def run(config):
        seen.append(config)
        return ExperimentReport((ClassificationMetrics(1.0, 1.0, 1.0, 1, 0, 1, 0),), (0,))

    monkeypatch.setattr("gmmcloud.cli.run_generation_classification", run)
    run_cli(["eval-paper-pipeline"])
    assert seen == [ExperimentConfig()]


def test_cli_rejects_malformed_lists(workspace, tmp_path):
    result = runner.invoke(main, ["fit", workspace["dem0"], "--ks", "2;4",
                                  "-o", str(tmp_path / "m.json")])
    assert result.exit_code != 0
    for counts in ("5", "1,2,3"):
        result = runner.invoke(main, ["eval-paper-pipeline", "--counts", counts])
        assert result.exit_code == 2, result.output
        assert "Invalid value for '--counts'" in result.output


def _degenerate_model(workspace, path):
    import json
    obj = json.loads(Path(workspace["dem0_model"]).read_text())
    obj["ensemble"][0]["model"]["covariances"][0] = np.diag([1.0, 0.0, 1.0]).tolist()
    with open(path, "w") as handle:
        json.dump(obj, handle)


def _zero_training_n_model(workspace, path):
    obj = json.loads(Path(workspace["dem0_model"]).read_text())
    obj["metadata"]["training_n"] = 0
    with open(path, "w") as handle:
        json.dump(obj, handle)


def _list_label_embeddings(workspace, path):
    obj = json.loads(Path(workspace["train_emb"]).read_text())
    obj["entries"][0]["label"] = ["nondemented"]
    with open(path, "w") as handle:
        json.dump(obj, handle)


@pytest.mark.parametrize("loader, write, args, message", [
    ("read_point_cloud", lambda ws, p: Path(p).write_text("1.0 2.0\n"),
     lambda ws, bad: ["fit", bad, "--ks", "1", "-o", bad + ".model.json"],
     "line 1: expected 3 coordinates, got 2"),
    ("load_model", lambda ws, p: Path(p).write_text("[]"),
     lambda ws, bad: ["sample", bad, "-o", bad + ".xyz"],
     "expected a JSON object, got list"),
    ("load_model", _degenerate_model,
     lambda ws, bad: ["embed", bad, "--probes", ws["probes"], "-o", bad + ".emb.json"],
     "degenerate covariance: smallest eigenvalue"),
    ("load_model", _zero_training_n_model,
     lambda ws, bad: ["sample", bad, "-o", bad + ".xyz"],
     "metadata field 'training_n' must be an integer >= 1"),
    ("load_probe_set", lambda ws, p: Path(p).write_text("{not json"),
     lambda ws, bad: ["embed", ws["dem0_model"], "--probes", bad, "-o", bad + ".emb.json"],
     "not valid JSON"),
    ("load_embeddings", lambda ws, p: Path(p).write_text('{"schema_version": "2"}'),
     lambda ws, bad: ["classify", "--train", bad, "--test", ws["test_emb"]],
     "schema_version '2' not supported"),
    ("load_embeddings", _list_label_embeddings,
     lambda ws, bad: ["classify", "--train", bad, "--test", ws["test_emb"]],
     "entry 0 field 'label' must be a string or null"),
], ids=["read_point_cloud", "load_model", "load_model-degenerate",
        "load_model-training-n-zero", "load_probe_set", "load_embeddings",
        "load_embeddings-label-list"])
def test_rejected_input_file_is_a_one_line_error(workspace, tmp_path, loader, write, args,
                                                 message):
    bad = str(tmp_path / ("bad.xyz" if loader == "read_point_cloud" else "bad.json"))
    write(workspace, bad)
    # an exception other than the CLI's own exit would propagate out of invoke
    result = runner.invoke(main, args(workspace, bad), catch_exceptions=False)
    combined = result.output + (result.stderr or "")
    assert result.exit_code == 1, combined
    assert f"Error: {bad}" in combined
    assert message in combined
    assert "Traceback" not in combined


def test_near_singular_model_file_samples_and_embeds_or_is_one_error(workspace, tmp_path):
    # a model file that loads is one that samples and embeds; one that does
    # not load is a one-line error naming the file
    rng = np.random.default_rng(3)
    for case in range(10):
        obj = json.loads(Path(workspace["dem0_model"]).read_text())
        obj["ensemble"][0]["model"]["covariances"][1] = near_singular_spd(rng).tolist()
        path = str(tmp_path / f"near_singular_{case}.json")
        with open(path, "w") as handle:
            json.dump(obj, handle)
        for args in (["sample", path, "-o", path + ".xyz"],
                     ["embed", path, "--probes", workspace["probes"], "-o", path + ".emb"]):
            result = runner.invoke(main, args, catch_exceptions=False)
            if result.exit_code != 0:
                assert result.exit_code == 1
                assert result.stdout == ""
                assert len(result.stderr.splitlines()) == 1
                assert result.stderr.startswith(f"Error: {path}: "), result.stderr


@pytest.mark.parametrize("far_points", [
    [[1e170, 0.0, 0.0], [2e170, 0.0, 0.0]],
    [[1e170, 1e170, 1e170], [2e170, 2e170, 2e170]],
], ids=["axis", "diagonal"])
def test_embed_on_a_probe_set_that_misses_the_model_is_a_one_line_error(workspace, tmp_path,
                                                                        far_points):
    # probes ~1e170 along x, or along the diagonal where their squares and
    # cross products overflow: every density is exactly zero there
    far = str(tmp_path / "far.xyz")
    write_point_cloud(PointCloud(far_points), far)
    probes = str(tmp_path / "far_probes.json")
    run_cli(["probes", far, "--count", "50", "-o", probes])
    model = workspace["dem0_model"]
    out = str(tmp_path / "far.emb")
    result = runner.invoke(main, ["embed", model, "--probes", probes, "-o", out],
                           catch_exceptions=False)
    assert result.exit_code == 1
    assert result.stdout == ""
    assert result.stderr == f"Error: {model}: probe set does not cover the model support\n"
    assert not os.path.exists(out)


@pytest.mark.parametrize("args, option", [
    (lambda ws, out: ["fit", ws["dem0"], "--ks", "0", "-o", out], "--ks"),
    (lambda ws, out: ["fit", ws["dem0"], "--ks", "1000", "-o", out], "--ks"),
    (lambda ws, out: ["synth", "--class", "demented", "--n", "0", "-o", out], "--n"),
    (lambda ws, out: ["synth", "--class", "demented", "--outliers", "1.5", "-o", out],
     "--outliers"),
    (lambda ws, out: ["synth", "--class", "demented", "--outliers", "nan", "-o", out],
     "--outliers"),
    (lambda ws, out: ["probes", ws["dem0"], "--count", "0", "-o", out], "--count"),
    (lambda ws, out: ["sample", ws["dem0_model"], "--n", "0", "-o", out], "--n"),
    (lambda ws, out: ["sample", ws["dem0_model"], "--n", "-3", "-o", out], "--n"),
    (lambda ws, out: ["interpolate", ws["dem0"], ws["non0"], "--ts", "2", "-o", out], "--ts"),
    (lambda ws, out: ["interpolate", ws["dem0"], ws["non0"], "--ks", "1000", "-o", out],
     "--ks"),
    (lambda ws, out: ["classify", "--train", ws["train_emb"], "--test", ws["test_emb"],
                      "--positive", "healthy"], "--positive"),
    (lambda ws, out: ["eval-paper-pipeline", "--bases", "0"], "--bases"),
    (lambda ws, out: ["eval-paper-pipeline", "--counts", "0,0"], "--counts"),
    (lambda ws, out: ["eval-paper-pipeline", "--seeds", ","], "--seeds"),
    (lambda ws, out: ["eval-paper-pipeline", "--n-points", "5"], "--ks"),
], ids=["fit-ks-0", "fit-ks-above-n", "synth-n-0",
        "synth-outliers-1.5", "synth-outliers-nan",
        "probes-count-0", "sample-n-0", "sample-n-negative", "interpolate-ts-2",
        "interpolate-ks-above-n", "classify-unknown-positive", "eval-bases-0", "eval-counts-0", "eval-seeds-empty",
        "eval-ks-above-n-points"])
def test_out_of_range_option_is_a_one_line_error(workspace, tmp_path, args, option):
    out = str(tmp_path / "out")
    # an exception other than the CLI's own exit would propagate out of invoke
    result = runner.invoke(main, args(workspace, out), catch_exceptions=False)
    combined = result.output + (result.stderr or "")
    assert result.exit_code == 2, combined
    assert f"Invalid value for '{option}'" in combined
    assert "Traceback" not in combined
    assert not os.path.exists(out)


def test_a_k_above_the_points_gives_ems_message(workspace, tmp_path):
    # the --ks error is em's rule for a component count, worded as em words it
    out = str(tmp_path / "out")
    result = runner.invoke(main, ["fit", workspace["dem0"], "--ks", "1000,2", "-o", out])
    assert result.exit_code == 2
    assert "Invalid value for '--ks': more components than points: K=1000, N=150" in result.stderr
