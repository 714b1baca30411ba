"""File formats: XYZ/CSV point clouds, JSON model and probe files, SVG.

XYZ holds one whitespace-separated "x y z" triple per line; '#' starts a
comment and a "# label: <tag>" comment round-trips PointCloud.label.
CSV holds an optional header row and takes the first three numeric
columns. Model, probe-set, and embedding files are JSON trees with an
explicit schema_version; floats serialize with the shortest decimal
representation that parses back to the identical double, so every
round-trip is exact. All writers replace the target atomically and are
byte-deterministic for identical inputs.
"""

from __future__ import annotations

import csv
import json
import os
import tempfile
from array import array
from collections.abc import Iterable
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from . import em
from .embedding import ProbeSet, SphereEmbedding
from .model import EnsembleMember, Gmm, GmmEnsemble, PointCloud
from .selection import AicRow, AicTable

SCHEMA_VERSION = "1"

_LABEL_COMMENT = "# label:"


class FileFormatError(ValueError):
    """A file does not parse under its declared format."""


def _atomic_write_text(path: str, text: str):
    if not path:
        raise ValueError("output path must be non-empty")
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    try:
        # mkstemp creates 0600; give the file the mode open(path, "w") would
        umask = os.umask(0)
        os.umask(umask)
        os.fchmod(fd, 0o666 & ~umask)
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _is_csv(path: str) -> bool:
    return os.path.splitext(path)[1].lower() == ".csv"


def read_point_cloud(path: str) -> PointCloud:
    """Load a cloud from a CSV file (suffix .csv) or an XYZ file (any
    other suffix)."""
    with open(path, "r") as handle:
        if _is_csv(path):
            return _parse_csv(handle.read(), path)
        return _parse_xyz(handle, path)


def _parse_xyz(lines: Iterable[str], path: str) -> PointCloud:
    """Points of an XYZ file, read line by line into one flat array."""
    coords = array("d")
    label = None
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            if line.lower().startswith(_LABEL_COMMENT):
                label = line[len(_LABEL_COMMENT):].strip() or None
            continue
        fields = line.split()
        if len(fields) != 3:
            raise FileFormatError(
                f"{path}: line {lineno}: expected 3 coordinates, got {len(fields)}")
        try:
            coords.extend(map(float, fields))
        except ValueError:
            raise FileFormatError(
                f"{path}: line {lineno}: non-numeric coordinate in {line!r}") from None
    if not coords:
        raise FileFormatError(f"{path}: no points found")
    return PointCloud(np.frombuffer(coords).reshape(-1, 3), label=label)


def _parse_csv(text: str, path: str) -> PointCloud:
    reader = list(csv.reader(text.splitlines()))
    rows = []
    numeric_cols = None
    first = True
    for lineno, record in enumerate(reader, start=1):
        if not record or all(not f.strip() for f in record):
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
                    raise FileFormatError(
                        f"{path}: line {lineno}: expected 3 numeric columns, got {len(cols)}")
                first = False
                continue  # the header, only ever the first non-empty row
            numeric_cols = cols[:3]
        try:
            rows.append([float(record[i]) for i in numeric_cols])
        except (ValueError, IndexError):
            raise FileFormatError(
                f"{path}: line {lineno}: expected numeric columns {numeric_cols}") from None
    if not rows:
        raise FileFormatError(f"{path}: no points found")
    return PointCloud(np.array(rows))


def write_point_cloud(cloud: PointCloud, path: str):
    """Write a cloud as CSV (suffix .csv) or XYZ (any other suffix),
    atomically and byte-deterministically."""
    lines = []
    # native floats repr as the shortest decimal that parses back exactly
    if _is_csv(path):
        lines.append("x,y,z")
        for x, y, z in cloud.points.tolist():
            lines.append(f"{x!r},{y!r},{z!r}")
    else:
        if cloud.label is not None:
            lines.append(f"{_LABEL_COMMENT} {cloud.label}")
        for x, y, z in cloud.points.tolist():
            lines.append(f"{x!r} {y!r} {z!r}")
    _atomic_write_text(path, "\n".join(lines) + "\n")


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


def _gmm_to_obj(model: Gmm):
    return {
        "weights": model.weights.tolist(),
        "means": model.means.tolist(),
        "covariances": model.covariances.tolist(),
    }


def _gmm_from_obj(obj, offset) -> Gmm:
    model = Gmm(obj["weights"], obj["means"], obj["covariances"])
    return model if offset is None else Gmm(model.weights, model.means + offset, model.covariances)


def _center_offset(meta, path: str) -> np.ndarray | None:
    """The center_offset a schema "1" file may store, its means taken
    relative to it; None when the means are in the cloud's own frame."""
    value = meta.get("center_offset")
    if value is None:
        return None
    offset = np.array(value, dtype=float)
    if offset.shape != (3,) or not np.all(np.isfinite(offset)):
        raise FileFormatError(f"{path}: center_offset must be three finite numbers")
    return offset


def save_model(path: str, ensemble: GmmEnsemble, aic_table: AicTable,
               metadata: FitMetadata):
    _save_json(path, "model_file", {
        "ensemble": [
            {"p": m.weight, "model": _gmm_to_obj(m.model)} for m in ensemble.members
        ],
        "aic_table": [
            {"k": r.k, "aic": r.aic, "normalized": r.normalized, "kept": r.kept}
            for r in aic_table.rows
        ],
        "metadata": {
            "seed": metadata.seed,
            "rel_tolerance": em.REL_TOLERANCE,
            "max_iterations": em.MAX_ITERATIONS,
            "kmeans_restarts": em.KMEANS_RESTARTS,
            "candidate_ks": list(metadata.candidate_ks),
            "training_n": metadata.training_n,
            "label": metadata.label,
        },
    })


def _save_json(path: str, kind: str, body: dict):
    """Write a JSON file of the given kind: schema_version, kind, then the
    fields of body in their order."""
    obj = {"schema_version": SCHEMA_VERSION, "kind": kind, **body}
    _atomic_write_text(path, json.dumps(obj, indent=2) + "\n")


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
    own frame, with a stored center_offset added to them."""
    obj = _load_json(path, "model_file")
    with _fields_of(path):
        meta = obj["metadata"]
        offset = _center_offset(meta, path)
        ensemble = GmmEnsemble(tuple(
            EnsembleMember(m["p"], _gmm_from_obj(m["model"], offset)) for m in obj["ensemble"]
        ))
        table = AicTable(tuple(
            AicRow(r["k"], r["aic"], r["normalized"], r["kept"]) for r in obj["aic_table"]
        ))
        return ModelFile(obj["schema_version"], ensemble, table, _fit_metadata(meta, path))


def _check_fields(path: str, owner: str, checks):
    """Raise FileFormatError for the first (name, ok, expected) check of
    an owner's fields that fails, naming the field and its type."""
    for name, ok, expected in checks:
        if not ok:
            raise FileFormatError(f"{path}: {owner}field {name!r} must be {expected}")


def _fit_metadata(meta, path: str) -> FitMetadata:
    """A model file's FitMetadata, each field's type checked; type(x) is
    int turns bools away."""
    seed, ks, n = meta["seed"], meta["candidate_ks"], meta["training_n"]
    label = meta.get("label")
    _check_fields(path, "metadata ", (
        ("seed", type(seed) is int, "an integer"),
        ("candidate_ks", type(ks) is list and ks != [] and all(
            type(k) is int and k >= 1 for k in ks), "a non-empty list of integers >= 1"),
        ("training_n", type(n) is int and n >= 1, "an integer >= 1"),
        ("label", label is None or type(label) is str, "a string or null")))
    return FitMetadata(seed, tuple(ks), n, label)


def save_probe_set(path: str, probes: ProbeSet):
    _save_json(path, "probe_set", {
        "seed": probes.seed,
        "bounds": {"lo": probes.bounds[0].tolist(), "hi": probes.bounds[1].tolist()},
        "probes": probes.probes.tolist(),
    })


def load_probe_set(path: str) -> ProbeSet:
    obj = _load_json(path, "probe_set")
    with _fields_of(path):
        bounds = np.array([obj["bounds"]["lo"], obj["bounds"]["hi"]])
        seed = obj["seed"]
        _check_fields(path, "", (("seed", type(seed) is int, "an integer"),))
        return ProbeSet(np.array(obj["probes"]), bounds, seed)


def save_embeddings(path: str, entries):
    """entries: sequence of (SphereEmbedding, label or None, source name)."""
    _save_json(path, "embeddings", {"entries": [
        {"label": label, "source": source, "coords": emb.coords.tolist()}
        for emb, label, source in entries
    ]})


def load_embeddings(path: str) -> list[tuple[SphereEmbedding, str | None, str]]:
    """Read an embeddings file; each entry's label is a string or null, and
    its source, when present, a string."""
    obj = _load_json(path, "embeddings")
    entries = []
    with _fields_of(path):
        for i, e in enumerate(obj["entries"]):
            label, source = e.get("label"), e.get("source", "")
            _check_fields(path, f"entry {i} ", (
                ("label", label is None or type(label) is str, "a string or null"),
                ("source", type(source) is str, "a string")))
            entries.append((SphereEmbedding(np.array(e["coords"])), label, source))
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
    circle_tail = f'" r="{_fmt(radius)}" fill="{FRAME_COLOR}"/>'
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" '
        f'viewBox="0 0 {_fmt(total_w)} {_fmt(height + caption)}" '
        f'width="960" height="{_fmt(960.0 * (height + caption) / total_w)}">',
    ]
    for i, (pts, (title, _)) in enumerate(zip(planar, panels)):
        shift = i * (width + gap)
        text = title.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
        lines.append(
            f'<text x="{_fmt(shift + 0.02 * width)}" y="{_fmt(0.9 * caption)}" '
            f'font-size="{_fmt(0.6 * caption)}" font-family="sans-serif">{text}</text>')
        lines.append(f'<g transform="translate(0,{_fmt(caption)})">')
        # the same float64 arithmetic as point by point, formatted as _fmt does
        cx = (shift + (pts[:, 0] - lo[0])).tolist()
        cy = (hi[1] - pts[:, 1]).tolist()
        lines.extend(f'<circle cx="{x:.6g}" cy="{y:.6g}{circle_tail}' for x, y in zip(cx, cy))
        lines.append("</g>")
    lines.append("</svg>")
    _atomic_write_text(path, "\n".join(lines) + "\n")
