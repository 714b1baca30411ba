"""End-to-end command-line interface checks."""

import os
import re

import numpy as np
import pytest
from click.testing import CliRunner

from gmmcloud.cli import main
from gmmcloud.io import load_embeddings, load_model, load_probe_set, read_point_cloud

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


def test_fit_center_offset_restored_on_sampling(tmp_path):
    rng = np.random.default_rng(6)
    from gmmcloud.io import write_point_cloud
    from gmmcloud.model import PointCloud
    cloud_path = str(tmp_path / "shifted.xyz")
    write_point_cloud(PointCloud(rng.normal(size=(300, 3)) + [50.0, 0.0, 0.0]),
                      cloud_path)
    model_path = str(tmp_path / "model.json")
    run_cli(["fit", cloud_path, "--ks", "1", "--center", "-o", model_path])
    loaded = load_model(model_path)
    assert loaded.metadata.center_offset is not None
    assert abs(loaded.metadata.center_offset[0] - 50.0) < 0.5
    # the stored model is centered, the samples are shifted back
    assert abs(loaded.ensemble.members[0].model.means[0, 0]) < 1e-6
    out = str(tmp_path / "regen.xyz")
    run_cli(["sample", model_path, "--n", "400", "-o", out])
    assert abs(float(read_point_cloud(out).points[:, 0].mean()) - 50.0) < 0.5


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


def test_probes_cover_every_input_cloud(workspace):
    probe_set = load_probe_set(workspace["probes"])
    assert probe_set.count == 400
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


def test_eval_paper_pipeline_reduced_run():
    result = run_cli(["eval-paper-pipeline", "--bases", "1", "--counts", "2,2",
                      "--n-points", "120", "--ks", "2", "--seeds", "0"])
    assert re.search(r"probe seed 0: accuracy \d\.\d{4}", result.output)
    assert "mean over 1 probe seeds" in result.output
    assert "(positive class: demented)" in result.output


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
    obj = json.load(open(workspace["dem0_model"]))
    obj["ensemble"][0]["model"]["covariances"][0] = np.diag([1.0, 0.0, 1.0]).tolist()
    with open(path, "w") as handle:
        json.dump(obj, handle)


@pytest.mark.parametrize("loader, write, args, message", [
    ("read_point_cloud", lambda ws, p: open(p, "w").write("1.0 2.0\n"),
     lambda ws, bad: ["fit", bad, "--ks", "1", "-o", bad + ".model.json"],
     "line 1: expected 3 coordinates, got 2"),
    ("load_model", lambda ws, p: open(p, "w").write("[]"),
     lambda ws, bad: ["sample", bad, "-o", bad + ".xyz"],
     "expected a JSON object, got list"),
    ("load_model", _degenerate_model,
     lambda ws, bad: ["embed", bad, "--probes", ws["probes"], "-o", bad + ".emb.json"],
     "degenerate covariance: smallest eigenvalue"),
    ("load_probe_set", lambda ws, p: open(p, "w").write("{not json"),
     lambda ws, bad: ["embed", ws["dem0_model"], "--probes", bad, "-o", bad + ".emb.json"],
     "not valid JSON"),
    ("load_embeddings", lambda ws, p: open(p, "w").write('{"schema_version": "2"}'),
     lambda ws, bad: ["classify", "--train", bad, "--test", ws["test_emb"]],
     "schema_version '2' not supported"),
], ids=["read_point_cloud", "load_model", "load_model-degenerate", "load_probe_set",
        "load_embeddings"])
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


@pytest.mark.parametrize("args, option", [
    (lambda ws, out: ["fit", ws["dem0"], "--ks", "0", "-o", out], "--ks"),
    (lambda ws, out: ["fit", ws["dem0"], "--ks", "1000", "-o", out], "--ks"),
    (lambda ws, out: ["fit", ws["dem0"], "--tol", "0", "-o", out], "--tol"),
    (lambda ws, out: ["fit", ws["dem0"], "--tol", "nan", "-o", out], "--tol"),
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
], ids=["fit-ks-0", "fit-ks-above-n", "fit-tol-0", "fit-tol-nan", "synth-n-0",
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
