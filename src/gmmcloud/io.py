"""File formats: XYZ/CSV point clouds, JSON model and probe files, SVG.

XYZ holds one whitespace-separated "x y z" triple per line; '#' starts a
comment and a "# label: <tag>" comment round-trips PointCloud.label.
CSV holds an optional header row and takes the first three numeric
columns. Model, probe-set, and embedding files are JSON trees with an
explicit schema_version; floats serialize with the shortest decimal
representation that parses back to the identical double, so every
round-trip is exact. Writers refuse, before writing, what their readers
would refuse, replace the target atomically, and are byte-deterministic.
Both point-cloud readers go row by row into one flat array; clouds and
filmstrips are written WRITE_BLOCK_ROWS points at a time, never whole.
"""

from __future__ import annotations

import csv
import json
import os
import tempfile
from array import array
from collections.abc import Iterable
from contextlib import contextmanager
from dataclasses import astuple, dataclass
from itertools import zip_longest

import numpy as np

from . import em
from .embedding import ProbeSet, SphereEmbedding
from .model import EnsembleMember, Gmm, GmmEnsemble, PointCloud, checked_array, float_array
from .sampling import is_integer
from .selection import AicTable, akaike_weights, member_probabilities

SCHEMA_VERSION = "1"

_LABEL_COMMENT = "# label:"
_LABEL_RULE = "without a line break, non-empty and without surrounding whitespace"

# points per chunk of a point-cloud or filmstrip file: writing a 60 000-point
# XYZ file traces 1.3 MB in blocks of 4 096, 15.6 MB as one text
WRITE_BLOCK_ROWS = 4096


class FileFormatError(ValueError):
    """A file does not parse under its declared format."""


def _atomic_write_text(path: str, chunks: Iterable[str]):
    """Write the chunks of text, in order, to a temp file beside path and
    replace path with it; on any error the temp file is removed and path
    keeps what it held. An OSError names path, not the temp file."""
    if not path:
        raise ValueError("output path must be non-empty")
    directory = os.path.dirname(os.path.abspath(path))
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
        # mkstemp creates 0600; give the file the mode open(path, "w") would
        umask = os.umask(0)
        os.umask(umask)
        os.fchmod(fd, 0o666 & ~umask)
        with os.fdopen(fd, "w") as handle:
            for chunk in chunks:
                handle.write(chunk)
        os.replace(tmp, path)
    except BaseException as exc:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)
        if isinstance(exc, OSError):
            raise OSError(exc.errno, exc.strerror, path) from exc
        raise


def _blocks(rows: np.ndarray):
    """Consecutive slices of rows, WRITE_BLOCK_ROWS at most each."""
    for start in range(0, len(rows), WRITE_BLOCK_ROWS):
        yield rows[start:start + WRITE_BLOCK_ROWS]


def _is_label(label) -> bool:
    """Whether label reads back unchanged from an XYZ "# label:" line."""
    return (type(label) is str and label != "" and label == label.strip()
            and "\n" not in label and "\r" not in label)


def _is_csv(path: str) -> bool:
    return os.path.splitext(path)[1].lower() == ".csv"


def read_point_cloud(path: str) -> PointCloud:
    """Load a cloud from a CSV file (suffix .csv) or an XYZ file (any
    other suffix), read row by row into one flat array."""
    parse = _parse_csv if _is_csv(path) else _parse_xyz
    # newline="" leaves line ends inside quoted CSV fields to the csv module
    with open(path, "r", newline="" if parse is _parse_csv else None) as handle:
        coords, label = parse(handle, path)
    if not coords:
        raise FileFormatError(f"{path}: no points found")
    return PointCloud(np.frombuffer(coords).reshape(-1, 3), label=label)


def _parse_xyz(lines: Iterable[str], path: str) -> tuple[array, str | None]:
    """The coordinates of an XYZ file's lines, flat, and its label."""
    coords = array("d")
    label = None
    for lineno, line in enumerate(lines, start=1):
        # each line is split once; a data line, three fields not starting
        # a comment, is the common case and is tested first
        fields = line.split()
        if len(fields) == 3 and fields[0][0] != "#":
            try:
                coords.extend(map(float, fields))
            except ValueError:
                raise FileFormatError(f"{path}: line {lineno}: non-numeric coordinate "
                                      f"in {line.strip()!r}") from None
        elif fields and fields[0][0] == "#":
            line = line.strip()
            if line.lower().startswith(_LABEL_COMMENT):
                label = line[len(_LABEL_COMMENT):].strip() or None
        elif fields:
            raise FileFormatError(
                f"{path}: line {lineno}: expected 3 coordinates, got {len(fields)}")
    return coords, label


def _parse_csv(lines: Iterable[str], path: str) -> tuple[array, None]:
    """The first three numeric columns of a CSV file's rows, flat, and no label."""
    coords = array("d")
    numeric_cols, first = None, True
    reader = csv.reader(lines)
    for record in reader:
        if not any(f.strip() for f in record):
            continue
        if numeric_cols is None:
            cols = []
            for i, f in enumerate(record):
                try:
                    float(f)
                    cols.append(i)
                except ValueError:
                    pass
            if len(cols) < 3:
                if not first:
                    raise FileFormatError(f"{path}: line {reader.line_num}: "
                                          f"expected 3 numeric columns, got {len(cols)}")
                first = False
                continue  # the header
            numeric_cols = cols[:3]
        try:
            coords.extend([float(record[i]) for i in numeric_cols])
        except (ValueError, IndexError):
            raise FileFormatError(f"{path}: line {reader.line_num}: "
                                  f"expected numeric columns {numeric_cols}") from None
    return coords, None


def write_point_cloud(cloud: PointCloud, path: str):
    """Write a cloud as CSV (suffix .csv) or XYZ (any other suffix),
    atomically and byte-deterministically. An XYZ file keeps the label
    in one comment line, so a label that would not read back the same
    (see _is_label) raises ValueError before anything is written."""
    if _is_csv(path):
        header, sep = "x,y,z\n", ","
    else:
        header, sep = "", " "
        if cloud.label is not None:
            if not _is_label(cloud.label):
                raise ValueError(f"an XYZ label must be a string {_LABEL_RULE}, "
                                 f"got {cloud.label!r}")
            header = f"{_LABEL_COMMENT} {cloud.label}\n"
    _atomic_write_text(path, _point_cloud_text(cloud.points, header, sep))


def _point_cloud_text(points: np.ndarray, header: str, sep: str):
    """The header, then one chunk of "x<sep>y<sep>z" lines per block."""
    yield header
    for block in _blocks(points):
        # native floats repr as the shortest decimal that parses back exactly
        yield "".join(f"{x!r}{sep}{y!r}{sep}{z!r}\n" for x, y, z in block.tolist())


@dataclass(frozen=True)
class FitMetadata:
    """Provenance a model file carries alongside the ensemble; save_model
    adds em's fit constants, which load_model does not read."""

    seed: int
    candidate_ks: tuple[int, ...]
    training_n: int
    label: str | None = None


@dataclass(frozen=True)
class ModelFile:
    schema_version: str
    ensemble: GmmEnsemble
    aic_table: AicTable
    metadata: FitMetadata


def _gmm_from_obj(obj, offset) -> Gmm:
    """A stored mixture, built once, its means shifted by offset when
    given; means of another shape than (K, 3) reach Gmm unshifted, and
    its message names them."""
    means = obj["means"]
    if offset is not None:
        means = float_array("means", means)
        if means.ndim == 2 and means.shape[1] == 3:
            means = means + offset
    return Gmm(obj["weights"], means, obj["covariances"])


def _center_offset(meta, path: str) -> np.ndarray | None:
    """The center_offset a schema "1" file may store, its means taken
    relative to it; None when the means are in the cloud's own frame."""
    value = meta.get("center_offset")
    if value is None:
        return None
    try:
        return checked_array("center_offset", value, (3,), "three numbers")
    except ValueError:
        raise FileFormatError(f"{path}: center_offset must be three finite numbers") from None


def save_model(path: str, ensemble: GmmEnsemble, aic_table: AicTable,
               metadata: FitMetadata):
    """Write a model file, a NumPy integer seed as an int. Metadata, a
    table or member probabilities that load_model would refuse raise its
    error; nothing is written."""
    meta = {
        "seed": metadata.seed,
        "rel_tolerance": em.REL_TOLERANCE,
        "max_iterations": em.MAX_ITERATIONS,
        "kmeans_restarts": em.KMEANS_RESTARTS,
        "candidate_ks": list(metadata.candidate_ks),
        "training_n": metadata.training_n,
        "label": metadata.label,
    }
    meta["seed"] = _fit_metadata(meta, path).seed
    _checked_table(path, [astuple(r) for r in aic_table.rows],
                   [(m.model.k, m.weight) for m in ensemble.members])
    _save_json(path, "model_file", {
        "ensemble": [
            {"p": m.weight, "model": {"weights": m.model.weights.tolist(),
                                      "means": m.model.means.tolist(),
                                      "covariances": m.model.covariances.tolist()}}
            for m in ensemble.members
        ],
        "aic_table": [
            {"k": r.k, "aic": r.aic, "normalized": r.normalized, "kept": r.kept}
            for r in aic_table.rows
        ],
        "metadata": meta,
    })


def _save_json(path: str, kind: str, body: dict):
    """Write a JSON file of the given kind: schema_version, kind, then the
    fields of body in their order."""
    obj = {"schema_version": SCHEMA_VERSION, "kind": kind, **body}
    _atomic_write_text(path, (json.dumps(obj, indent=2) + "\n",))


def _load_json(path: str, kind: str):
    """The top-level object of a JSON file of the given kind."""
    with open(path, "r") as handle:
        try:
            obj = json.load(handle)
        except json.JSONDecodeError as exc:
            raise FileFormatError(f"{path}: not valid JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise FileFormatError(f"{path}: expected a JSON object, got {type(obj).__name__}")
    version = obj.get("schema_version")
    if version != SCHEMA_VERSION:
        raise FileFormatError(
            f"{path}: schema_version {version!r} not supported, expected {SCHEMA_VERSION!r}")
    if obj.get("kind") != kind:
        raise FileFormatError(f"{path}: expected a {kind} file, got {obj.get('kind')!r}")
    return obj


@contextmanager
def _fields_of(path: str):
    """Report a missing or mistyped field as a FileFormatError; value
    errors from the constructors pass through unchanged."""
    try:
        yield
    except KeyError as exc:
        raise FileFormatError(f"{path}: missing field {exc.args[0]!r}") from None
    except (TypeError, AttributeError) as exc:
        raise FileFormatError(f"{path}: malformed field: {exc}") from None


def load_model(path: str) -> ModelFile:
    """Read a model file; every member's means come back in the cloud's
    own frame, with a stored center_offset added to them. Its table and
    member probabilities are checked against their recomputation from
    its AIC scores (_checked_table)."""
    obj = _load_json(path, "model_file")
    with _fields_of(path):
        meta = obj["metadata"]
        offset = _center_offset(meta, path)
        members = [(m["p"], _gmm_from_obj(m["model"], offset)) for m in obj["ensemble"]]
        table = _checked_table(path, [(r["k"], r["aic"], r["normalized"], r["kept"])
                                      for r in obj["aic_table"]], [(g.k, p) for p, g in members])
        ensemble = GmmEnsemble(tuple(EnsembleMember(p, g) for p, g in members))
        return ModelFile(obj["schema_version"], ensemble, table, _fit_metadata(meta, path))


def _checked_table(path: str, rows, members) -> AicTable:
    """akaike_weights of the rows' (k, aic) pairs, if every row (k, aic,
    normalized, kept) is the one it computes and the members' (K, p) are
    its member_probabilities, in order; otherwise FileFormatError naming
    the row or member. A stored value is a bool exactly where the computed
    one is: True == 1.0 in Python, not in a model file."""
    try:
        # float(): an aic such as "102.0" or True fails its row's comparison
        table = akaike_weights((k, float(aic)) for k, aic, _, _ in rows)
    except (TypeError, ValueError) as exc:
        raise FileFormatError(f"{path}: aic_table: {exc}") from None
    for what, stored, computed in (
            ("aic_table row {} (k, aic, normalized, kept)", rows, map(astuple, table.rows)),
            ("member {} (K, p)", members, member_probabilities(table))):
        for i, (got, want) in enumerate(zip_longest(stored, computed, fillvalue=())):
            if [(type(v) is bool, v) for v in got] != [(type(v) is bool, v) for v in want]:
                raise FileFormatError(f"{path}: {what.format(i)} is {got or 'absent'}, "
                                      f"but the AIC scores give {want or 'none'}")
    return table


def _check_fields(path: str, owner: str, checks):
    """Raise FileFormatError for the first (name, ok, expected) check of
    an owner's fields that fails, naming the field and its type."""
    for name, ok, expected in checks:
        if not ok:
            raise FileFormatError(f"{path}: {owner}field {name!r} must be {expected}")


def _fit_metadata(meta, path: str) -> FitMetadata:
    """A model file's FitMetadata, each field's type checked; bools are
    no integers here. sample writes the label to an XYZ comment line."""
    seed, ks, n, label = meta["seed"], meta["candidate_ks"], meta["training_n"], meta["label"]
    _check_fields(path, "metadata ", (
        ("seed", is_integer(seed), "an integer"),
        ("candidate_ks", type(ks) is list and ks != [] and all(
            type(k) is int and k >= 1 for k in ks), "a non-empty list of integers >= 1"),
        ("training_n", type(n) is int and n >= 1, "an integer >= 1"),
        ("label", label is None or _is_label(label), f"a string or null {_LABEL_RULE}")))
    return FitMetadata(int(seed), tuple(ks), n, label)


def save_probe_set(path: str, probes: ProbeSet):
    _save_json(path, "probe_set", {
        "seed": probes.seed,
        "bounds": {"lo": probes.bounds[0].tolist(), "hi": probes.bounds[1].tolist()},
        "probes": probes.probes.tolist(),
    })


def load_probe_set(path: str) -> ProbeSet:
    obj = _load_json(path, "probe_set")
    with _fields_of(path):
        bounds = [obj["bounds"]["lo"], obj["bounds"]["hi"]]
        _check_fields(path, "", (("seed", is_integer(obj["seed"]), "an integer"),))
        return ProbeSet(obj["probes"], bounds, obj["seed"])


def _check_entry(path: str, i: int, label, source):
    """An embeddings entry's label is a string or null and its source a
    string, as save_embeddings and load_embeddings both check."""
    _check_fields(path, f"entry {i} ", (
        ("label", label is None or type(label) is str, "a string or null"),
        ("source", type(source) is str, "a string")))


def save_embeddings(path: str, entries):
    """entries: sequence of (SphereEmbedding, label or None, source name).
    An entry load_embeddings would refuse raises its error; nothing is written."""
    body = [{"label": label, "source": source, "coords": emb.coords.tolist()}
            for emb, label, source in entries]
    for i, entry in enumerate(body):
        _check_entry(path, i, entry["label"], entry["source"])
    _save_json(path, "embeddings", {"entries": body})


def load_embeddings(path: str) -> list[tuple[SphereEmbedding, str | None, str]]:
    """Read an embeddings file, each entry checked by _check_entry."""
    obj = _load_json(path, "embeddings")
    entries = []
    with _fields_of(path):
        for i, e in enumerate(obj["entries"]):
            label, source = e["label"], e["source"]
            _check_entry(path, i, label, source)
            entries.append((SphereEmbedding(e["coords"]), label, source))
    return entries


def format_aic_table(table: AicTable) -> str:
    lines = [f"{'K':>4}  {'AIC':>16}  {'weight':>12}  kept"]
    for r in table.rows:
        lines.append(f"{r.k:>4}  {r.aic:>16.6f}  {r.normalized:>12.6f}  {'yes' if r.kept else 'no'}")
    return "\n".join(lines)


FRAME_COLOR = "#1f6fb4"


def _fmt(v: float) -> str:
    return f"{v:.6g}"


def emit_svg_filmstrip(panels, path: str):
    """Side-by-side xy projections, one panel per (title, cloud), on a
    shared scale. Each title is written as XML text: &, < and > escaped."""
    panels = list(panels)
    if not panels:
        raise ValueError("need at least one panel to plot")
    _atomic_write_text(path, _filmstrip_text(panels))


def _filmstrip_text(panels):
    """The filmstrip's header, each panel's caption and circles, the latter
    one chunk per block of points, and its footer."""
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
    circle_tail = f'" r="{_fmt(radius)}" fill="{FRAME_COLOR}"/>\n'
    yield (f'<svg xmlns="http://www.w3.org/2000/svg" '
           f'viewBox="0 0 {_fmt(total_w)} {_fmt(height + caption)}" '
           f'width="960" height="{_fmt(960.0 * (height + caption) / total_w)}">\n')
    for i, (pts, (title, _)) in enumerate(zip(planar, panels)):
        shift = i * (width + gap)
        text = title.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
        yield (f'<text x="{_fmt(shift + 0.02 * width)}" y="{_fmt(0.9 * caption)}" '
               f'font-size="{_fmt(0.6 * caption)}" font-family="sans-serif">{text}</text>\n'
               f'<g transform="translate(0,{_fmt(caption)})">\n')
        for block in _blocks(pts):
            # the same float64 arithmetic as point by point, formatted as _fmt does
            cx = (shift + (block[:, 0] - lo[0])).tolist()
            cy = (hi[1] - block[:, 1]).tolist()
            yield "".join(f'<circle cx="{x:.6g}" cy="{y:.6g}{circle_tail}' for x, y in zip(cx, cy))
        yield "</g>\n"
    yield "</svg>\n"
