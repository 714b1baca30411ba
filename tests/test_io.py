"""Point-cloud files, JSON model files, table formatting, SVG emission."""

import errno
import json
import math
import os
import re
import stat
import tempfile
import tracemalloc
import xml.etree.ElementTree as ET
from dataclasses import astuple
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from conftest import whole_text_point_cloud
from gmmcloud.embedding import SphereEmbedding, make_probe_set
from gmmcloud.io import (
    FRAME_COLOR,
    FileFormatError,
    FitMetadata,
    SCHEMA_VERSION,
    WRITE_BLOCK_ROWS,
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
from gmmcloud.shapes import make_bent_tube, tube_spec_for_class

BLOCK = WRITE_BLOCK_ROWS


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
    assert "#" not in Path(bare).read_text()


@pytest.mark.parametrize("label", ["x\ny", "x\ry", "x\r\n", "\n"])
def test_xyz_writer_rejects_a_label_with_a_line_break(tmp_path, label):
    # the reader would take the text after the break for a data line
    path = tmp_path / "tube.xyz"
    with pytest.raises(ValueError, match="line break"):
        write_point_cloud(messy_cloud(label=label), str(path))
    assert list(tmp_path.iterdir()) == []
    # a CSV file holds no label
    write_point_cloud(messy_cloud(label=label), str(tmp_path / "tube.csv"))


def label_read_from(directory, label):
    """The label the XYZ reader takes from a "# label:" line holding label,
    written by hand; a line break can make the rest a bad data line."""
    path = os.path.join(directory, "by_hand.xyz")
    with open(path, "w") as handle:
        handle.write(f"# label: {label}\n0 0 0\n")
    try:
        return read_point_cloud(path).label
    except FileFormatError as exc:
        return exc


@example("")
@example(" x")
@example("x ")
@example("\tx")
@example("x\ny")
@example("x\r\n")
@example("x\x0bx")
@example("x \u2028 y")
@given(label=st.text(st.sampled_from("ax #:\t\n\r\x0b\x1c\x85\u2028\u00e9")) | st.text())
def test_xyz_writer_accepts_exactly_the_labels_that_read_back(label):
    with tempfile.TemporaryDirectory() as written, tempfile.TemporaryDirectory() as by_hand:
        path = os.path.join(written, "tube.xyz")
        if label_read_from(by_hand, label) == label:
            write_point_cloud(messy_cloud(label=label), path)
            back = read_point_cloud(path)
            assert back.label == label
            np.testing.assert_array_equal(back.points, messy_cloud().points)
        else:
            with pytest.raises(ValueError, match="an XYZ label must be a string without a "
                               "line break, non-empty and without surrounding whitespace"):
                write_point_cloud(messy_cloud(label=label), path)
            assert os.listdir(written) == []


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


@pytest.mark.parametrize("end", ["\n", "\r\n", "\r"])
def test_xyz_line_ends_give_the_same_points_and_line_numbers(tmp_path, end):
    lines = ["# label: demented", "", "0.5 -1 2e-3", "3 4 5"]
    good = tmp_path / "good.xyz"
    good.write_bytes(end.join(lines + [""]).encode())
    cloud = read_point_cloud(str(good))
    np.testing.assert_array_equal(cloud.points, [[0.5, -1.0, 2e-3], [3.0, 4.0, 5.0]])
    assert cloud.label == "demented"
    bad = tmp_path / "bad.xyz"
    for line, message in (("1 2", "expected 3 coordinates, got 2"),
                          ("a b c", "non-numeric coordinate in 'a b c'")):
        bad.write_bytes(end.join(lines[:3] + [line] + lines[3:] + [""]).encode())
        with pytest.raises(FileFormatError) as error:
            read_point_cloud(str(bad))
        assert str(error.value) == f"{bad}: line 4: {message}"


def test_xyz_empty_file_is_an_error(tmp_path):
    path = tmp_path / "empty.xyz"
    path.write_text("# only a comment\n")
    with pytest.raises(FileFormatError, match="no points"):
        read_point_cloud(str(path))


# ------------------------------------------------------------------ CSV


def test_csv_round_trip_with_header(tmp_path):
    path = str(tmp_path / "cloud.csv")
    write_point_cloud(messy_cloud(), path)
    assert Path(path).read_text().splitlines()[0].strip() == "x,y,z"
    np.testing.assert_array_equal(read_point_cloud(path).points, messy_cloud().points)


def test_csv_takes_first_three_numeric_columns(tmp_path):
    path = tmp_path / "mixed.csv"
    path.write_text("name,x,y,z,score\nfoo,1,2,3,bad\nbar,4,5,6,worse\n")
    cloud = read_point_cloud(str(path))
    np.testing.assert_array_equal(cloud.points, [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])


def test_csv_skips_blank_rows(tmp_path):
    path = tmp_path / "gaps.csv"
    path.write_text("\nx,y,z\n\n1,2,3\n,,\n , ,\n4,5,6\n\n")
    cloud = read_point_cloud(str(path))
    np.testing.assert_array_equal(cloud.points, [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])


def test_csv_reports_offending_line(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("x,y,z\n1,2,3\n4,oops,6\n")
    with pytest.raises(FileFormatError, match="line 3"):
        read_point_cloud(str(path))


@pytest.mark.parametrize("end", ["\n", "\r\n", "\r"])
def test_csv_line_ends_give_the_same_points_and_line_numbers(tmp_path, end):
    lines = ["x,y,z", "", "0.5,-1,2e-3", "3,4,5"]
    good = tmp_path / "good.csv"
    good.write_bytes(end.join(lines + [""]).encode())
    np.testing.assert_array_equal(read_point_cloud(str(good)).points,
                                  [[0.5, -1.0, 2e-3], [3.0, 4.0, 5.0]])
    bad = tmp_path / "bad.csv"
    for rows, message in ((lines[:3] + ["1,2"], "expected numeric columns [0, 1, 2]"),
                          (lines[:3] + ["a,b,c"], "expected numeric columns [0, 1, 2]"),
                          (lines[:2] + ["", "1,2"], "expected 3 numeric columns, got 2")):
        bad.write_bytes(end.join(rows + lines[3:] + [""]).encode())
        with pytest.raises(FileFormatError) as error:
            read_point_cloud(str(bad))
        assert str(error.value) == f"{bad}: line 4: {message}"


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
    assert Path(a).read_bytes() == Path(b).read_bytes()


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


def test_a_failed_replace_leaves_no_temp_file(tmp_path):
    # the target is a directory, so os.replace fails after the write
    target = tmp_path / "cloud.xyz"
    target.mkdir()
    with pytest.raises(IsADirectoryError) as caught:
        write_point_cloud(messy_cloud(), str(target))
    # the error names the target, not the temp file beside it
    assert caught.value.filename == str(target)
    assert os.listdir(tmp_path) == ["cloud.xyz"] and os.listdir(target) == []


def test_a_write_into_a_missing_directory_names_the_target(tmp_path):
    target = str(tmp_path / "missing" / "cloud.xyz")
    with pytest.raises(FileNotFoundError) as caught:
        write_point_cloud(messy_cloud(), target)
    assert (caught.value.errno, caught.value.filename) == (errno.ENOENT, target)
    assert os.listdir(tmp_path) == []


def test_writer_rejects_empty_path():
    with pytest.raises(ValueError, match="non-empty"):
        write_point_cloud(messy_cloud(), "")


@pytest.mark.parametrize("n", [1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1])
@pytest.mark.parametrize("suffix, label", [(".xyz", None), (".xyz", "demented"),
                                           (".csv", None)])
def test_point_cloud_bytes_match_the_whole_text_form(tmp_path, n, suffix, label):
    rng = np.random.default_rng(n)
    # magnitudes from 1e-20 to 1e20, and the messy rows at the end
    points = rng.normal(size=(n, 3)) * 10.0 ** rng.integers(-20, 21, size=(n, 3))
    points[-3:] = messy_cloud().points[-min(n, 3):]
    cloud = PointCloud(points, label=label)
    path = tmp_path / f"cloud{suffix}"
    write_point_cloud(cloud, str(path))
    assert path.read_bytes() == whole_text_point_cloud(cloud, suffix == ".csv").encode()


def test_a_write_failing_mid_stream_leaves_the_target_and_no_temp_file(tmp_path,
                                                                      monkeypatch):
    target = tmp_path / "cloud.xyz"
    target.write_bytes(b"1.0 2.0 3.0\n")
    writes = []
    fdopen = os.fdopen

    class FullDisk:
        """The temp file's handle, its write failing on the second block."""

        def __init__(self, handle):
            self.handle = handle

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return self.handle.__exit__(*exc)

        def write(self, chunk):
            writes.append(chunk)
            if len(writes) == 3:  # the label line, the first block, the second
                raise OSError(errno.ENOSPC, "No space left on device")
            return self.handle.write(chunk)

    monkeypatch.setattr(os, "fdopen", lambda fd, mode: FullDisk(fdopen(fd, mode)))
    cloud = PointCloud(np.ones((2 * BLOCK + 1, 3)), label="demented")
    with pytest.raises(OSError, match="No space left"):
        write_point_cloud(cloud, str(target))
    assert [len(chunk.splitlines()) for chunk in writes] == [1, BLOCK, BLOCK]
    assert os.listdir(tmp_path) == ["cloud.xyz"]
    assert target.read_bytes() == b"1.0 2.0 3.0\n"


@pytest.mark.parametrize("suffix", [".xyz", ".csv"])
def test_point_cloud_writer_traces_less_than_half_the_file(tmp_path, suffix):
    cloud = make_bent_tube(tube_spec_for_class("demented", n_points=60_000), seed=0)
    path = tmp_path / f"big{suffix}"
    tracemalloc.start()
    try:
        write_point_cloud(cloud, str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < path.stat().st_size / 2


@pytest.mark.parametrize("suffix", [".xyz", ".csv"])
def test_point_cloud_reader_traces_less_than_the_file(tmp_path, suffix):
    cloud = make_bent_tube(tube_spec_for_class("demented", n_points=60_000), seed=0)
    path = tmp_path / f"big{suffix}"
    write_point_cloud(cloud, str(path))
    tracemalloc.start()
    try:
        back = read_point_cloud(str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    np.testing.assert_array_equal(back.points, cloud.points)
    # the parsed doubles and the cloud's own copy take 48 bytes a point,
    # the text about 57: a reader that held the text would trace more
    assert peak < path.stat().st_size


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
    assert list(json.loads(Path(path).read_text())["metadata"].items()) == [
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
    assert "center_offset" not in json.loads(Path(path).read_text())["metadata"]


def test_model_file_center_offset_shifts_every_member(tmp_path):
    # schema "1" files may store each member's means relative to a
    # center_offset; they load with the offset added back
    path = str(tmp_path / "model.json")
    ensemble, table = two_member_ensemble()
    save_model(path, ensemble, table, FitMetadata(0, (1, 2), 5))
    obj = json.loads(Path(path).read_text())
    offset = [1000.0, -math.pi, 0.1]
    obj["metadata"]["center_offset"] = offset
    Path(path).write_text(json.dumps(obj))
    loaded = load_model(path)
    assert not hasattr(loaded.metadata, "center_offset")
    for got, expected in zip(loaded.ensemble.members, ensemble.members):
        assert got.weight == expected.weight
        np.testing.assert_array_equal(got.model.weights, expected.model.weights)
        np.testing.assert_array_equal(got.model.means, expected.model.means + offset)
        np.testing.assert_array_equal(got.model.covariances, expected.model.covariances)


@pytest.mark.parametrize("means, message", [
    (None, None),
    ([[0.0, 0.0], [1.0, 1.0]], "means must be a (2, 3) array, got shape (2, 2)"),
    ([[0.0, 0.0, 0.0]], "means must be a (2, 3) array, got shape (1, 3)"),
    ([0.0, 0.0, 0.0], "means must be a (2, 3) array, got shape (3,)"),
    ([[math.inf, 0.0, 0.0], [0.0, 0.0, 0.0]], "means must be finite"),
], ids=["well-formed", "two-columns", "one-row", "flat", "infinite"])
def test_model_file_center_offset_builds_each_member_once(tmp_path, monkeypatch, means,
                                                          message):
    path = str(tmp_path / "model.json")
    ensemble, table = two_member_ensemble()
    save_model(path, ensemble, table, FitMetadata(0, (1, 2), 5))
    obj = json.loads(Path(path).read_text())
    offset = [1000.0, -math.pi, 0.1]
    obj["metadata"]["center_offset"] = offset
    if means is not None:
        obj["ensemble"][1]["model"]["means"] = means
    Path(path).write_text(json.dumps(obj))
    built = []
    monkeypatch.setattr("gmmcloud.io.Gmm", lambda *args: built.append(args) or Gmm(*args))
    if message is None:
        loaded = load_model(path)
        assert len(built) == 2
        for got, expected in zip(loaded.ensemble.members, ensemble.members):
            np.testing.assert_array_equal(got.model.means, expected.model.means + offset)
    else:
        with pytest.raises(ValueError, match=re.escape(message)):
            load_model(path)


@pytest.mark.parametrize("offset", [None, [1000.0, -math.pi, 0.1]],
                         ids=["own-frame", "center-offset"])
@pytest.mark.parametrize("field", ["weights", "means", "covariances"])
def test_model_file_refuses_numbers_stored_as_strings(tmp_path, field, offset):
    # "0.5" in a model file is no number, with a center_offset to add to
    # the means or without
    path = str(tmp_path / "model.json")
    ensemble, table = two_member_ensemble()
    save_model(path, ensemble, table, FitMetadata(0, (1, 2), 5))
    obj = json.loads(Path(path).read_text())
    model = obj["ensemble"][1]["model"]
    model[field] = np.array(model[field]).astype(str).tolist()
    obj["metadata"]["center_offset"] = offset
    Path(path).write_text(json.dumps(obj))
    with pytest.raises(ValueError, match=rf"^{field} must be numbers, got dtype <U"):
        load_model(path)


def test_model_file_rejects_wrong_kind_and_schema(tmp_path):
    probe_path = str(tmp_path / "probes.json")
    save_probe_set(probe_path, make_probe_set([messy_cloud()], seed=0, count=5))
    with pytest.raises(FileFormatError, match="model_file"):
        load_model(probe_path)
    model_path = str(tmp_path / "model.json")
    ensemble, table = two_member_ensemble()
    metadata = FitMetadata(0, (1,), 5)
    save_model(model_path, ensemble, table, metadata)
    obj = json.loads(Path(model_path).read_text())
    obj["schema_version"] = "999"
    Path(model_path).write_text(json.dumps(obj))
    with pytest.raises(FileFormatError, match="not supported"):
        load_model(model_path)


def test_model_file_rejects_degenerate_covariance(tmp_path):
    model_path = str(tmp_path / "model.json")
    ensemble, table = two_member_ensemble()
    save_model(model_path, ensemble, table, FitMetadata(0, (1, 2), 5))
    obj = json.loads(Path(model_path).read_text())
    obj["ensemble"][1]["model"]["covariances"][1] = np.diag([1.0, 0.0, 1.0]).tolist()
    Path(model_path).write_text(json.dumps(obj))
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


def _without_label(obj):
    del obj["metadata"]["label"]
    return obj


@pytest.mark.parametrize("change, message", [
    (_without_ensemble, "missing field 'ensemble'"),
    (_without_means, "missing field 'means'"),
    (lambda obj: [obj], "expected a JSON object, got list"),
    (lambda obj: {**obj, "ensemble": 5}, "malformed field"),
    (lambda obj: {**obj, "metadata": []}, "malformed field"),
    (lambda obj: json.dumps(obj)[:-9], "not valid JSON"),
    (lambda obj: {**obj, "metadata": {**obj["metadata"], "center_offset": [1.0, 2.0]}},
     "center_offset must be three finite numbers"),
    # no entry is read as a number unless it is one
    (_with_metadata(center_offset=["1.0", "2.0", "3.0"]),
     "center_offset must be three finite numbers"),
    (_with_metadata(center_offset=[True, False, True]),
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
    # every writer has written the label, null when there is none
    (_without_label, "missing field 'label'"),
], ids=["no-ensemble", "model-without-means", "top-level-list", "ensemble-not-a-list",
        "metadata-not-an-object", "truncated", "short-center-offset",
        "center-offset-strings", "center-offset-bools", "seed-string",
        "seed-float", "candidate-ks-string", "candidate-ks-empty", "candidate-ks-zero",
        "candidate-ks-float", "training-n-zero", "training-n-string", "training-n-float",
        "training-n-bool", "label-number", "no-label"])
def test_model_file_malformed_json_raises_file_format_error(tmp_path, change, message):
    path = str(tmp_path / "model.json")
    ensemble, table = two_member_ensemble()
    save_model(path, ensemble, table, FitMetadata(0, (1, 2), 5))
    obj = change(json.loads(Path(path).read_text()))
    Path(path).write_text(obj if isinstance(obj, str) else json.dumps(obj))
    with pytest.raises(FileFormatError, match=re.escape(f"{path}: {message}")):
        load_model(path)


@pytest.mark.parametrize("label", ["x\ny", "x\ry", "x\n"])
def test_model_file_rejects_a_label_with_a_line_break(tmp_path, label):
    # sample writes the label to an XYZ comment line, where it cannot break
    path = str(tmp_path / "model.json")
    ensemble, table = two_member_ensemble()
    save_model(path, ensemble, table, FitMetadata(0, (1, 2), 5))
    obj = json.loads(Path(path).read_text())
    obj["metadata"]["label"] = label
    Path(path).write_text(json.dumps(obj))
    with pytest.raises(FileFormatError, match=re.escape(
            f"{path}: metadata field 'label' must be a string or null without a line break")):
        load_model(path)


@pytest.mark.parametrize("field, value", [
    ("label", "x\ny"), ("label", "x\r"), ("label", ""), ("label", " x"), ("label", "x "),
    ("label", "\tx"), ("label", 5), ("seed", True), ("seed", 1.5), ("seed", "0"),
    ("candidate_ks", ()), ("candidate_ks", (0,)), ("candidate_ks", (1, 2.0)),
    ("training_n", 0), ("training_n", True), ("training_n", 2.5),
])
def test_save_model_refuses_what_load_model_refuses(tmp_path, field, value):
    ensemble, table = two_member_ensemble()
    # load_model's error for a file that holds the value
    stored = str(tmp_path / "stored.json")
    save_model(stored, ensemble, table, FitMetadata(0, (1, 2), 5))
    obj = json.loads(Path(stored).read_text())
    obj["metadata"][field] = list(value) if field == "candidate_ks" else value
    Path(stored).write_text(json.dumps(obj))
    with pytest.raises(FileFormatError) as on_load:
        load_model(stored)
    out = tmp_path / "out"
    out.mkdir()
    path = str(out / "model.json")
    metadata = FitMetadata(**{**dict(seed=0, candidate_ks=(1, 2), training_n=5), field: value})
    with pytest.raises(FileFormatError) as on_save:
        save_model(path, ensemble, table, metadata)
    assert str(on_save.value) == str(on_load.value).replace(stored, path)
    assert list(out.iterdir()) == []


def test_save_model_writes_a_numpy_integer_seed_as_an_int(tmp_path):
    path = str(tmp_path / "model.json")
    ensemble, table = two_member_ensemble()
    save_model(path, ensemble, table, FitMetadata(np.int64(7), (1, 2), 5))
    assert json.loads(Path(path).read_text())["metadata"]["seed"] == 7
    seed = load_model(path).metadata.seed
    assert type(seed) is int and seed == 7


def _with_row(**fields):
    """Set fields of a model file's aic_table rows, each given as {index: value}."""
    def change(obj):
        for name, values in fields.items():
            for i, value in values.items():
                obj["aic_table"][i][name] = value
        return obj
    return change


def _with_p(*ps):
    def change(obj):
        for member, p in zip(obj["ensemble"], ps):
            member["p"] = p
        return obj
    return change


def _with_dropped_row(normalized):
    """A third row, K = 4 at AIC 120, whose weight exp(-10) is dropped."""
    def change(obj):
        obj["aic_table"].append({"k": 4, "aic": 120.0, "normalized": normalized, "kept": False})
        return obj
    return change


def _with_members(order):
    return lambda obj: {**obj, "ensemble": [obj["ensemble"][i] for i in order]}


P1 = 1.0 / (1.0 + math.exp(-1.0))


@pytest.mark.parametrize("change, message", [
    (_with_dropped_row(0.005), "aic_table row 2 (k, aic, normalized, kept) is (4, 120.0, 0.005, "
                               f"False), but the AIC scores give (4, 120.0, {math.exp(-10.0)!r}"),
    (_with_row(normalized={1: 0.37}), "aic_table row 1 (k, aic, normalized, kept) is "
                                      "(2, 102.0, 0.37, True)"),
    (_with_row(normalized={0: True}), "aic_table row 0"),
    (_with_row(normalized={0: "1.0"}), "aic_table row 0"),
    (_with_row(kept={0: 1}), "aic_table row 0 (k, aic, normalized, kept) is (1, 100.0, 1.0, 1)"),
    (_with_row(kept={1: False}), "aic_table row 1"),
    (_with_row(aic={1: "102.0"}), "aic_table row 1"),
    (_with_row(aic={0: True, 1: 3.0}), "aic_table row 0 (k, aic, normalized, kept) is "
                                       "(1, True, 1.0, True)"),
    (_with_row(aic={1: float("nan")}), "aic_table: AIC scores must be finite"),
    (_with_row(k={1: True}), "aic_table: component count must be an integer, got True"),
    (lambda obj: {**obj, "aic_table": []}, "aic_table: need at least one (K, AIC) pair"),
    (_with_p(True), "member 0 (K, p) is (1, True), but the AIC scores give "
                    f"(1, {P1!r})"),
    (_with_p(1.0 - P1, P1), f"member 0 (K, p) is (1, {1.0 - P1!r})"),
    (_with_p(0.5, 0.5), "member 0"),
    (_with_members([1, 0]), "member 0 (K, p) is (2, "),
    (_with_members([0]), "member 1 (K, p) is absent, but the AIC scores give "
                         f"(2, {1.0 - P1!r})"),
    (_with_row(aic={1: 100.0}), "aic_table row 1 (k, aic, normalized, kept) is (2, 100.0, "
                                f"{math.exp(-1.0)!r}, True), but the AIC scores give "
                                "(2, 100.0, 1.0, True)"),
], ids=["dropped-normalized", "kept-normalized", "normalized-true", "normalized-string",
        "kept-one", "kept-flipped", "aic-string", "aic-true", "aic-nan", "k-true",
        "no-rows", "p-true", "p-swapped", "p-uneven", "members-swapped", "member-missing",
        "aic-changed"])
def test_model_file_refuses_weights_that_do_not_follow_from_its_aics(tmp_path, change, message):
    path = str(tmp_path / "model.json")
    ensemble, table = two_member_ensemble()
    save_model(path, ensemble, table, FitMetadata(0, (1, 2), 5))
    obj = change(json.loads(Path(path).read_text()))
    Path(path).write_text(json.dumps(obj))
    with pytest.raises(FileFormatError, match=re.escape(f"{path}: {message}")):
        load_model(path)


def test_model_file_loads_a_dropped_row_and_number_types(tmp_path):
    # what the check allows: an int where a float is computed, and a row
    # below the threshold whose weight is exp(-10)
    path = str(tmp_path / "model.json")
    ensemble, table = two_member_ensemble()
    save_model(path, ensemble, table, FitMetadata(0, (1, 2), 5))
    obj = _with_dropped_row(math.exp(-10.0))(json.loads(Path(path).read_text()))
    obj["aic_table"][0].update(aic=100, normalized=1)
    Path(path).write_text(json.dumps(obj))
    loaded = load_model(path)
    assert [astuple(r) for r in loaded.aic_table.rows] == [
        (1, 100.0, 1.0, True), (2, 102.0, math.exp(-1.0), True),
        (4, 120.0, math.exp(-10.0), False)]
    assert type(loaded.aic_table.rows[0].aic) is float
    assert [m.weight for m in loaded.ensemble.members] == [m.weight for m in ensemble.members]


@pytest.mark.parametrize("rows, weights, message", [
    ([(1, 100.0, 1.0, True), (2, 102.0, 0.37, True)], None, "aic_table row 1"),
    ([(1, 100.0, 1.0, True), (4, 102.0, math.exp(-1.0), True)], None,
     "member 1 (K, p) is (2, "),
    ([(1, 100.0, 1.0, True), (2, 102.0, math.exp(-1.0), True)], (0.5, 0.5), "member 0"),
    ([(1, 100.0, 1.0, True), (2, 102.0, math.exp(-1.0), True), (4, 101.0, 0.0, False)],
     None, "aic_table row 2"),
], ids=["normalized", "member-ks-1-2-kept-ks-1-4", "p", "row-stored-as-dropped"])
def test_save_model_refuses_an_ensemble_its_table_does_not_give(tmp_path, rows, weights,
                                                                 message):
    ensemble, _ = two_member_ensemble()
    if weights is not None:
        ensemble = GmmEnsemble(tuple(EnsembleMember(w, m.model)
                                     for w, m in zip(weights, ensemble.members)))
    path = str(tmp_path / "model.json")
    with pytest.raises(FileFormatError, match=re.escape(f"{path}: {message}")):
        save_model(path, ensemble, AicTable(tuple(AicRow(*r) for r in rows)),
                   FitMetadata(0, (1, 2), 5))
    assert list(tmp_path.iterdir()) == []


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


def _saved(path: str, kind: str):
    """A model, probe set or embeddings file written to path: its JSON
    object and its loader."""
    if kind == "model":
        ensemble, table = two_member_ensemble()
        save_model(path, ensemble, table, FitMetadata(0, (1, 2), 5))
        load = load_model
    elif kind == "probe_set":
        save_probe_set(path, make_probe_set([messy_cloud()], seed=1, count=8))
        load = load_probe_set
    else:
        save_embeddings(path, [(SphereEmbedding(np.full(4, 0.5)), None, "a.xyz")])
        load = load_embeddings
    return json.loads(Path(path).read_text()), load


@pytest.mark.parametrize("kind, field, make_ragged", [
    ("model", "means", lambda obj: obj["ensemble"][1]["model"]["means"][0].pop()),
    ("probe_set", "bounds", lambda obj: obj["bounds"]["hi"].pop()),
    ("probe_set", "probes", lambda obj: obj["probes"][0].pop()),
    ("embeddings", "coords", lambda obj: obj["entries"][0]["coords"].append([0.5])),
], ids=["model-means", "probe-bounds", "probes", "embedding-coords"])
def test_a_ragged_array_in_a_file_is_refused_by_name(tmp_path, kind, field, make_ragged):
    # not with NumPy's "inhomogeneous shape", which names no field
    path = str(tmp_path / "file.json")
    obj, load = _saved(path, kind)
    make_ragged(obj)
    Path(path).write_text(json.dumps(obj))
    with pytest.raises(ValueError, match=rf"^{field} must be a rectangular array of numbers$"):
        load(path)


@pytest.mark.parametrize("seed", [1.7, True, "12", None])
def test_probe_set_seed_must_be_an_integer(tmp_path, seed):
    path = str(tmp_path / "probes.json")
    save_probe_set(path, make_probe_set([messy_cloud()], seed=1, count=8))
    obj = json.loads(Path(path).read_text())
    obj["seed"] = seed
    Path(path).write_text(json.dumps(obj))
    with pytest.raises(FileFormatError,
                       match=re.escape(f"{path}: field 'seed' must be an integer")):
        load_probe_set(path)


MISSING = object()


@pytest.mark.parametrize("field, value, expected", [
    ("label", ["nondemented"], "a string or null"),
    ("label", 5, "a string or null"),
    ("source", 3, "a string"),
    ("source", None, "a string"),
    # every writer has written both fields, the label null when there is none
    pytest.param("label", MISSING, None, id="label-missing"),
    pytest.param("source", MISSING, None, id="source-missing"),
])
def test_embedding_entries_check_their_label_and_source(tmp_path, field, value, expected):
    path = str(tmp_path / "emb.json")
    v = np.full(4, 0.5)
    save_embeddings(path, [(SphereEmbedding(v), "demented", "a.xyz"),
                           (SphereEmbedding(v), None, "b.xyz")])
    obj = json.loads(Path(path).read_text())
    if value is MISSING:
        del obj["entries"][1][field]
        message = f"missing field {field!r}"
    else:
        obj["entries"][1][field] = value
        message = f"entry 1 field {field!r} must be {expected}"
    Path(path).write_text(json.dumps(obj))
    with pytest.raises(FileFormatError, match=re.escape(f"{path}: {message}")):
        load_embeddings(path)


@pytest.mark.parametrize("field, value, expected", [
    ("label", ["nondemented"], "a string or null"),
    ("label", 5, "a string or null"),
    ("source", 3, "a string"),
    ("source", None, "a string"),
])
def test_save_embeddings_refuses_the_entries_load_embeddings_refuses(
        tmp_path, field, value, expected):
    v = SphereEmbedding(np.full(4, 0.5))
    entries = [(v, "demented", "a.xyz"), (v, None, "b.xyz")]
    entries[1] = (v, value, "b.xyz") if field == "label" else (v, None, value)
    path = str(tmp_path / "emb.json")
    with pytest.raises(FileFormatError,
                       match=re.escape(f"{path}: entry 1 field {field!r} must be {expected}")):
        save_embeddings(path, entries)
    assert list(tmp_path.iterdir()) == []


def test_embedding_entries_with_overflowing_coords_are_refused(tmp_path):
    # their norm would overflow; the suite turns any RuntimeWarning into an error
    path = str(tmp_path / "emb.json")
    save_embeddings(path, [(SphereEmbedding(np.full(4, 0.5)), None, "a.xyz")])
    obj = json.loads(Path(path).read_text())
    obj["entries"][0]["coords"] = [1e308, 1e308]
    Path(path).write_text(json.dumps(obj))
    with pytest.raises(ValueError, match="coords must be finite, >= 0 and <= 1"):
        load_embeddings(path)


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
    text = Path(path).read_text()
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
    assert Path(a).read_bytes() == Path(b).read_bytes()


def test_svg_is_byte_deterministic(tmp_path):
    cloud = PointCloud(np.random.default_rng(9).normal(size=(25, 3)))
    a, b = str(tmp_path / "a.svg"), str(tmp_path / "b.svg")
    # one panel holding both the plain and the extreme coordinates
    panel = ("t=0", PointCloud(np.vstack([cloud.points, messy_cloud().points])))
    emit_svg_filmstrip([panel], a)
    emit_svg_filmstrip([panel], b)
    assert Path(a).read_bytes() == Path(b).read_bytes()


def test_svg_input_checks(tmp_path):
    path = str(tmp_path / "plot.svg")
    with pytest.raises(ValueError, match="at least one"):
        emit_svg_filmstrip([], path)


def reference_filmstrip(panels) -> str:
    """The filmstrip text written point by point: each coordinate a NumPy
    scalar of the panel's rows, formatted on its own."""
    def fmt(v):
        return f"{v:.6g}"

    planar = [cloud.points[:, :2] for _, cloud in panels]
    stacked = np.vstack(planar)
    lo, hi = stacked.min(axis=0), stacked.max(axis=0)
    span = float(max(hi - lo))
    pad = 0.04 * span if span > 0.0 else 1.0
    lo, hi = lo - pad, hi + pad
    width, height = hi[0] - lo[0], hi[1] - lo[1]
    gap = 0.05 * width
    total_w = len(panels) * width + (len(panels) - 1) * gap
    caption = 0.08 * height
    radius = 0.006 * float(max(width, height))
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" '
        f'viewBox="0 0 {fmt(total_w)} {fmt(height + caption)}" '
        f'width="960" height="{fmt(960.0 * (height + caption) / total_w)}">',
    ]
    for i, (pts, (title, _)) in enumerate(zip(planar, panels)):
        shift = i * (width + gap)
        lines.append(
            f'<text x="{fmt(shift + 0.02 * width)}" y="{fmt(0.9 * caption)}" '
            f'font-size="{fmt(0.6 * caption)}" font-family="sans-serif">{title}</text>')
        lines.append(f'<g transform="translate(0,{fmt(caption)})">')
        for px, py in pts:
            lines.append(f'<circle cx="{fmt(shift + (px - lo[0]))}" cy="{fmt(hi[1] - py)}" '
                         f'r="{fmt(radius)}" fill="{FRAME_COLOR}"/>')
        lines.append("</g>")
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("scale", [1e-8, 1e-3, 1.0, 7.3, 1e4, 1e8])
@pytest.mark.parametrize("offset", [0.0, -31.7, 1e5])
def test_filmstrip_bytes_match_the_point_by_point_reference(tmp_path, scale, offset):
    rng = np.random.default_rng(round(abs(offset) + 1e3 * math.log10(scale)) % 9973)
    panels = [(f"t={t:g}", PointCloud(offset + scale * (rng.normal(size=(60, 3)) + 3.0 * t)))
              for t in (0.0, 0.25, 0.5, 0.75, 1.0)]
    path = tmp_path / "strip.svg"
    emit_svg_filmstrip(panels, str(path))
    assert path.read_bytes() == reference_filmstrip(panels).encode()


def test_filmstrip_bytes_with_a_panel_larger_than_a_block(tmp_path):
    rng = np.random.default_rng(12)
    panels = [("t=0", PointCloud(rng.normal(size=(2 * BLOCK + 1, 3)))),
              ("t=1", PointCloud(rng.normal(size=(5, 3)) + 2.0))]
    path = tmp_path / "strip.svg"
    emit_svg_filmstrip(panels, str(path))
    assert path.read_bytes() == reference_filmstrip(panels).encode()


def test_filmstrip_titles_are_xml_text(tmp_path):
    path = tmp_path / "strip.svg"
    title = "a<b & c>d"
    emit_svg_filmstrip([(title, PointCloud(np.eye(3))), ("t=1", PointCloud(np.eye(3)))],
                       str(path))
    texts = ET.parse(path).getroot().findall("{http://www.w3.org/2000/svg}text")
    assert [t.text for t in texts] == [title, "t=1"]


def test_filmstrip_panels_and_determinism(tmp_path):
    rng = np.random.default_rng(10)
    panels = [(f"t={t:g}", PointCloud(rng.normal(size=(12, 3)) + t))
              for t in (0.0, 0.5, 1.0)]
    a, b = str(tmp_path / "a.svg"), str(tmp_path / "b.svg")
    emit_svg_filmstrip(panels, a)
    emit_svg_filmstrip(panels, b)
    text = Path(a).read_text()
    assert text.count("<text") == 3
    assert text.count("<g ") == 3
    assert text.count("<circle") == 36
    assert "t=0.5" in text
    assert Path(a).read_bytes() == Path(b).read_bytes()
    with pytest.raises(ValueError, match="at least one"):
        emit_svg_filmstrip([], str(tmp_path / "c.svg"))
