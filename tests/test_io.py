"""Point-cloud files, JSON model files, table formatting, SVG emission."""

import json
import math
import os
import re
import stat

import numpy as np
import pytest

from gmmcloud.embedding import SphereEmbedding, make_probe_set
from gmmcloud.io import (
    FRAME_COLOR,
    FileFormatError,
    FitMetadata,
    SCHEMA_VERSION,
    emit_svg_filmstrip,
    format_aic_table,
    load_embeddings,
    load_model,
    load_probe_set,
    read_point_cloud,
    save_embeddings,
    save_model,
    save_probe_set,
    write_point_cloud,
)
from gmmcloud.model import (
    DegenerateCovarianceError,
    EnsembleMember,
    Gmm,
    GmmEnsemble,
    PointCloud,
)
from gmmcloud.selection import AicRow, AicTable


def messy_cloud(label=None):
    points = np.array([
        [math.pi, -math.e, math.sqrt(2.0)],
        [1e-17, 123456789.123456789, -0.1],
        [0.1 + 0.2, 1.0 / 3.0, -1e300],
    ])
    return PointCloud(points, label=label)


def two_member_ensemble():
    p2 = math.exp(-1.0) / (1.0 + math.exp(-1.0))
    model1 = Gmm([1.0], [[math.pi, 0.0, -1.5]],
                 [[[2.0, 0.3, 0.1], [0.3, 1.5, 0.2], [0.1, 0.2, 1.2]]])
    model2 = Gmm([1.0 / 3.0, 2.0 / 3.0], [np.zeros(3), np.full(3, math.e)],
                 [np.eye(3), 0.5 * np.eye(3)])
    ensemble = GmmEnsemble((EnsembleMember(1.0 - p2, model1), EnsembleMember(p2, model2)))
    table = AicTable((
        AicRow(1, 100.0, 1.0, True),
        AicRow(2, 102.0, math.exp(-1.0), True),
    ))
    return ensemble, table


# ------------------------------------------------------------------ XYZ


def test_xyz_basic_parse(tmp_path):
    path = tmp_path / "cloud.xyz"
    path.write_text("0 0 0\n1 1 1\n")
    cloud = read_point_cloud(str(path))
    np.testing.assert_array_equal(cloud.points, [[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]])
    assert cloud.label is None


def test_xyz_skips_comments_and_blanks(tmp_path):
    path = tmp_path / "cloud.xyz"
    path.write_text("# generated for a smoke test\n\n# label: demented\n1 2 3\n\n")
    cloud = read_point_cloud(str(path))
    assert len(cloud) == 1
    assert cloud.label == "demented"


def test_xyz_label_round_trip(tmp_path):
    path = str(tmp_path / "tube.xyz")
    write_point_cloud(messy_cloud(label="nondemented"), path)
    back = read_point_cloud(path)
    assert back.label == "nondemented"
    np.testing.assert_array_equal(back.points, messy_cloud().points)
    # no label, no comment line
    bare = str(tmp_path / "bare.xyz")
    write_point_cloud(messy_cloud(), bare)
    assert "#" not in open(bare).read()


@pytest.mark.parametrize("body,lineno", [
    ("1 2\n3 4 5\n", 1),
    ("3 4 5\n1 2 3 4\n", 2),
    ("1 2 3\na b c\n", 2),
])
def test_xyz_reports_offending_line(tmp_path, body, lineno):
    path = tmp_path / "bad.xyz"
    path.write_text(body)
    with pytest.raises(FileFormatError, match=f"line {lineno}"):
        read_point_cloud(str(path))


def test_xyz_empty_file_is_an_error(tmp_path):
    path = tmp_path / "empty.xyz"
    path.write_text("# only a comment\n")
    with pytest.raises(FileFormatError, match="no points"):
        read_point_cloud(str(path))


# ------------------------------------------------------------------ CSV


def test_csv_round_trip_with_header(tmp_path):
    path = str(tmp_path / "cloud.csv")
    write_point_cloud(messy_cloud(), path)
    assert open(path).readline().strip() == "x,y,z"
    np.testing.assert_array_equal(read_point_cloud(path).points, messy_cloud().points)


def test_csv_takes_first_three_numeric_columns(tmp_path):
    path = tmp_path / "mixed.csv"
    path.write_text("name,x,y,z,score\nfoo,1,2,3,bad\nbar,4,5,6,worse\n")
    cloud = read_point_cloud(str(path))
    np.testing.assert_array_equal(cloud.points, [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])


def test_csv_reports_offending_line(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("x,y,z\n1,2,3\n4,oops,6\n")
    with pytest.raises(FileFormatError, match="line 3"):
        read_point_cloud(str(path))


def test_csv_short_row_after_header_is_an_error(tmp_path):
    # only the first non-empty row may be a header; a short data row is
    # an error, not a second header
    path = tmp_path / "short.csv"
    path.write_text("x,y,z\n1,2\n9,9\n3,4,5\n6,7,8\n")
    with pytest.raises(FileFormatError, match="line 2"):
        read_point_cloud(str(path))


def test_csv_empty_is_an_error(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("x,y,z\n")
    with pytest.raises(FileFormatError, match="no points"):
        read_point_cloud(str(path))


# -------------------------------------------------------------- writers


def test_writer_is_byte_deterministic(tmp_path):
    a, b = str(tmp_path / "a.xyz"), str(tmp_path / "b.xyz")
    write_point_cloud(messy_cloud(label="demented"), a)
    write_point_cloud(messy_cloud(label="demented"), b)
    assert open(a, "rb").read() == open(b, "rb").read()


def test_writer_overwrites_and_leaves_no_temp_files(tmp_path):
    path = str(tmp_path / "cloud.xyz")
    write_point_cloud(messy_cloud(), path)
    write_point_cloud(PointCloud(np.zeros((1, 3))), path)
    assert len(read_point_cloud(path)) == 1
    leftovers = [f for f in os.listdir(tmp_path) if f.startswith(".tmp-")]
    assert leftovers == []


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)],
                         ids=["umask-022", "umask-077"])
def test_written_file_mode_follows_umask(tmp_path, umask, mode):
    path = str(tmp_path / "cloud.xyz")
    previous = os.umask(umask)
    try:
        write_point_cloud(messy_cloud(), path)
    finally:
        os.umask(previous)
    assert stat.S_IMODE(os.stat(path).st_mode) == mode


def test_writer_rejects_empty_path():
    with pytest.raises(ValueError, match="non-empty"):
        write_point_cloud(messy_cloud(), "")


# ----------------------------------------------------------- model file


def test_model_file_round_trip_is_exact(tmp_path):
    path = str(tmp_path / "model.json")
    ensemble, table = two_member_ensemble()
    metadata = FitMetadata(seed=11, candidate_ks=(1, 2), training_n=321, label="demented")
    save_model(path, ensemble, table, metadata)
    loaded = load_model(path)
    assert loaded.schema_version == SCHEMA_VERSION == "1"
    assert loaded.metadata == metadata
    # the fit constants come from em, in the order schema "1" files have them
    assert list(json.load(open(path))["metadata"].items()) == [
        ("seed", 11), ("rel_tolerance", 1e-6), ("max_iterations", 200),
        ("kmeans_restarts", 4), ("candidate_ks", [1, 2]), ("training_n", 321),
        ("label", "demented")]
    assert loaded.aic_table.rows == table.rows
    for got, expected in zip(loaded.ensemble.members, ensemble.members):
        assert got.weight == expected.weight
        np.testing.assert_array_equal(got.model.weights, expected.model.weights)
        np.testing.assert_array_equal(got.model.means, expected.model.means)
        np.testing.assert_array_equal(got.model.covariances, expected.model.covariances)


def test_model_file_optional_fields_default_to_none(tmp_path):
    path = str(tmp_path / "model.json")
    ensemble, table = two_member_ensemble()
    metadata = FitMetadata(seed=0, candidate_ks=(2,), training_n=10)
    save_model(path, ensemble, table, metadata)
    loaded = load_model(path)
    assert loaded.metadata.label is None
    # a model file is always in the cloud's own frame
    assert "center_offset" not in json.load(open(path))["metadata"]


def test_model_file_center_offset_shifts_every_member(tmp_path):
    # schema "1" files may store each member's means relative to a
    # center_offset; they load with the offset added back
    path = str(tmp_path / "model.json")
    ensemble, table = two_member_ensemble()
    save_model(path, ensemble, table, FitMetadata(0, (1, 2), 5))
    obj = json.load(open(path))
    offset = [1000.0, -math.pi, 0.1]
    obj["metadata"]["center_offset"] = offset
    open(path, "w").write(json.dumps(obj))
    loaded = load_model(path)
    assert not hasattr(loaded.metadata, "center_offset")
    for got, expected in zip(loaded.ensemble.members, ensemble.members):
        assert got.weight == expected.weight
        np.testing.assert_array_equal(got.model.weights, expected.model.weights)
        np.testing.assert_array_equal(got.model.means, expected.model.means + offset)
        np.testing.assert_array_equal(got.model.covariances, expected.model.covariances)


def test_model_file_rejects_wrong_kind_and_schema(tmp_path):
    probe_path = str(tmp_path / "probes.json")
    save_probe_set(probe_path, make_probe_set([messy_cloud()], seed=0, count=5))
    with pytest.raises(FileFormatError, match="model_file"):
        load_model(probe_path)
    model_path = str(tmp_path / "model.json")
    ensemble, table = two_member_ensemble()
    metadata = FitMetadata(0, (1,), 5)
    save_model(model_path, ensemble, table, metadata)
    obj = json.load(open(model_path))
    obj["schema_version"] = "999"
    open(model_path, "w").write(json.dumps(obj))
    with pytest.raises(FileFormatError, match="not supported"):
        load_model(model_path)


def test_model_file_rejects_degenerate_covariance(tmp_path):
    model_path = str(tmp_path / "model.json")
    ensemble, table = two_member_ensemble()
    save_model(model_path, ensemble, table, FitMetadata(0, (1, 2), 5))
    obj = json.load(open(model_path))
    obj["ensemble"][1]["model"]["covariances"][1] = np.diag([1.0, 0.0, 1.0]).tolist()
    open(model_path, "w").write(json.dumps(obj))
    with pytest.raises(DegenerateCovarianceError, match="degenerate covariance"):
        load_model(model_path)


def _without_ensemble(obj):
    del obj["ensemble"]
    return obj


def _without_means(obj):
    del obj["ensemble"][1]["model"]["means"]
    return obj


def _with_metadata(**fields):
    return lambda obj: {**obj, "metadata": {**obj["metadata"], **fields}}


@pytest.mark.parametrize("change, message", [
    (_without_ensemble, "missing field 'ensemble'"),
    (_without_means, "missing field 'means'"),
    (lambda obj: [obj], "expected a JSON object, got list"),
    (lambda obj: {**obj, "ensemble": 5}, "malformed field"),
    (lambda obj: {**obj, "metadata": []}, "malformed field"),
    (lambda obj: json.dumps(obj)[:-9], "not valid JSON"),
    (lambda obj: {**obj, "metadata": {**obj["metadata"], "center_offset": [1.0, 2.0]}},
     "center_offset must be three finite numbers"),
    (_with_metadata(seed="0"), "metadata field 'seed' must be an integer"),
    (_with_metadata(seed=1.5), "metadata field 'seed' must be an integer"),
    (_with_metadata(candidate_ks="1"),
     "metadata field 'candidate_ks' must be a non-empty list of integers >= 1"),
    (_with_metadata(candidate_ks=[]), "metadata field 'candidate_ks' must be"),
    (_with_metadata(candidate_ks=[1, 0]), "metadata field 'candidate_ks' must be"),
    (_with_metadata(candidate_ks=[1, 2.0]), "metadata field 'candidate_ks' must be"),
    (_with_metadata(training_n=0), "metadata field 'training_n' must be an integer >= 1"),
    (_with_metadata(training_n="10"), "metadata field 'training_n' must be an integer >= 1"),
    (_with_metadata(training_n=2.5), "metadata field 'training_n' must be an integer >= 1"),
    (_with_metadata(training_n=True), "metadata field 'training_n' must be an integer >= 1"),
    (_with_metadata(label=5), "metadata field 'label' must be a string or null"),
], ids=["no-ensemble", "model-without-means", "top-level-list", "ensemble-not-a-list",
        "metadata-not-an-object", "truncated", "short-center-offset", "seed-string",
        "seed-float", "candidate-ks-string", "candidate-ks-empty", "candidate-ks-zero",
        "candidate-ks-float", "training-n-zero", "training-n-string", "training-n-float",
        "training-n-bool", "label-number"])
def test_model_file_malformed_json_raises_file_format_error(tmp_path, change, message):
    path = str(tmp_path / "model.json")
    ensemble, table = two_member_ensemble()
    save_model(path, ensemble, table, FitMetadata(0, (1, 2), 5))
    obj = change(json.load(open(path)))
    open(path, "w").write(obj if isinstance(obj, str) else json.dumps(obj))
    with pytest.raises(FileFormatError, match=re.escape(f"{path}: {message}")):
        load_model(path)


def test_probe_and_embedding_files_reject_malformed_json(tmp_path):
    listed = tmp_path / "list.json"
    listed.write_text("[]")
    for load in (load_probe_set, load_embeddings):
        with pytest.raises(FileFormatError, match="expected a JSON object"):
            load(str(listed))
    probes = tmp_path / "probes.json"
    probes.write_text(json.dumps({"schema_version": "1", "kind": "probe_set", "seed": 0}))
    with pytest.raises(FileFormatError, match="missing field 'bounds'"):
        load_probe_set(str(probes))
    embeddings = tmp_path / "emb.json"
    embeddings.write_text(json.dumps({"schema_version": "1", "kind": "embeddings"}))
    with pytest.raises(FileFormatError, match="missing field 'entries'"):
        load_embeddings(str(embeddings))


def test_probe_set_round_trip(tmp_path):
    path = str(tmp_path / "probes.json")
    probes = make_probe_set([messy_cloud()], seed=17, count=64)
    save_probe_set(path, probes)
    back = load_probe_set(path)
    np.testing.assert_array_equal(back.probes, probes.probes)
    np.testing.assert_array_equal(back.bounds, probes.bounds)
    assert back.seed == 17
    model_path = str(tmp_path / "m.json")
    ensemble, table = two_member_ensemble()
    save_model(model_path, ensemble, table, FitMetadata(0, (1,), 5))
    with pytest.raises(FileFormatError, match="probe_set"):
        load_probe_set(model_path)


def test_embeddings_round_trip(tmp_path):
    path = str(tmp_path / "emb.json")
    rng = np.random.default_rng(3)
    entries = []
    for j, label in enumerate(["demented", None, "nondemented"]):
        v = np.abs(rng.normal(size=30)) + 1e-9
        entries.append((SphereEmbedding(v / np.linalg.norm(v)), label, f"item{j}.xyz"))
    save_embeddings(path, entries)
    back = load_embeddings(path)
    assert [(label, source) for _, label, source in back] == \
        [(label, source) for _, label, source in entries]
    for (got, _, _), (expected, _, _) in zip(back, entries):
        np.testing.assert_array_equal(got.coords, expected.coords)


# ------------------------------------------------------------ rendering


def test_format_aic_table():
    table = AicTable((
        AicRow(2, 100.0, 1.0, True),
        AicRow(4, 112.0, math.exp(-6.0), False),
    ))
    text = format_aic_table(table)
    lines = text.splitlines()
    assert len(lines) == 3
    assert lines[0].split() == ["K", "AIC", "weight", "kept"]
    assert lines[1].split() == ["2", "100.000000", "1.000000", "yes"]
    assert lines[2].split() == ["4", "112.000000", "0.002479", "no"]


def test_svg_one_marker_per_point(tmp_path):
    path = str(tmp_path / "plot.svg")
    emit_svg_filmstrip([("t=0", PointCloud(np.array([[0.0, 0.0, 0.0]])))], path)
    text = open(path).read()
    assert text.count("<circle") == 1
    assert f'fill="{FRAME_COLOR}"' in text
    assert text.startswith("<svg ")
    assert text.rstrip().endswith("</svg>")


def test_svg_projection_drops_the_third_axis(tmp_path):
    rng = np.random.default_rng(8)
    base = rng.normal(size=(40, 3))
    shifted = base.copy()
    shifted[:, 2] += rng.normal(size=40)
    a, b = str(tmp_path / "a.svg"), str(tmp_path / "b.svg")
    emit_svg_filmstrip([("t=0", PointCloud(base))], a)
    emit_svg_filmstrip([("t=0", PointCloud(shifted))], b)
    assert open(a, "rb").read() == open(b, "rb").read()


def test_svg_is_byte_deterministic(tmp_path):
    cloud = PointCloud(np.random.default_rng(9).normal(size=(25, 3)))
    a, b = str(tmp_path / "a.svg"), str(tmp_path / "b.svg")
    # one panel holding both the plain and the extreme coordinates
    panel = ("t=0", PointCloud(np.vstack([cloud.points, messy_cloud().points])))
    emit_svg_filmstrip([panel], a)
    emit_svg_filmstrip([panel], b)
    assert open(a, "rb").read() == open(b, "rb").read()


def test_svg_input_checks(tmp_path):
    path = str(tmp_path / "plot.svg")
    with pytest.raises(ValueError, match="at least one"):
        emit_svg_filmstrip([], path)


def test_filmstrip_panels_and_determinism(tmp_path):
    rng = np.random.default_rng(10)
    panels = [(f"t={t:g}", PointCloud(rng.normal(size=(12, 3)) + t))
              for t in (0.0, 0.5, 1.0)]
    a, b = str(tmp_path / "a.svg"), str(tmp_path / "b.svg")
    emit_svg_filmstrip(panels, a)
    emit_svg_filmstrip(panels, b)
    text = open(a).read()
    assert text.count("<text") == 3
    assert text.count("<g ") == 3
    assert text.count("<circle") == 36
    assert "t=0.5" in text
    assert open(a, "rb").read() == open(b, "rb").read()
    with pytest.raises(ValueError, match="at least one"):
        emit_svg_filmstrip([], str(tmp_path / "c.svg"))
