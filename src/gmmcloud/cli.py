"""Command-line interface.

Every command is deterministic: a fixed invocation writes byte-identical
outputs on every run. Commands that draw random numbers take --seed.
"""

from __future__ import annotations

import math
import os
import warnings

import click

from .em import FitConfig, FitError, _check_component_count
from .embedding import embed as embed_model
from .embedding import PROBE_COUNT, evaluate, inflated_bounds, knn_classify, make_probe_set
from .geodesics import DEFAULT_TS, interpolate_point_clouds
from .io import (
    FitMetadata,
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
from .pipeline import (
    ExperimentConfig,
    format_report,
    run_generation_classification,
)
from .sampling import generate_point_cloud, rng_stream
from .selection import build_ensemble, default_candidate_ks
from .shapes import CLASS_PARAMETERS, DEMENTED, add_outliers, make_bent_tube, tube_spec_for_class

# the paper's experiment, whose settings eval-paper-pipeline's defaults show
STOCK = ExperimentConfig()


class FloatRange(click.FloatRange):
    """click.FloatRange that also rejects nan, which passes click's own
    bound comparisons."""

    def convert(self, value, param, ctx):
        number = super().convert(value, param, ctx)
        if math.isnan(number):
            self.fail(f"{value!r} is not a number", param, ctx)
        return number


class CommaList(click.ParamType):
    """A non-empty comma-separated list, each item converted by a click type."""

    def __init__(self, item: click.ParamType):
        self.item = item
        self.name = f"{item.name.split()[0]} list"

    def convert(self, value, param, ctx):
        if isinstance(value, tuple):
            return value
        items = tuple(self.item.convert(part.strip(), param, ctx)
                      for part in value.split(",") if part.strip())
        if not items:
            self.fail(f"expected a comma-separated {self.name}, got {value!r}", param, ctx)
        return items


POSITIVE_INTS = CommaList(click.IntRange(min=1))


def _check_ks(ks, n: int):
    """Reject a candidate K above the n points it would be fitted to, by
    em's rule, as a --ks usage error."""
    if ks is None:
        return
    try:
        _check_component_count(max(ks), n)
    except ValueError as exc:
        raise click.BadParameter(str(exc), param_hint="'--ks'") from None


def _check_directory(directory: str, out: str):
    """Raise the OSError, naming out, that a write into directory would end
    in when directory is missing or is no directory, so that a command
    fails before its fits. Nothing is created; the write keeps its error."""
    try:
        os.stat(os.path.join(directory, ""))  # the trailing slash: ENOTDIR unless a directory
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, out) from None


def _load(loader, path):
    """Read a file with one of the io loaders; a file it rejects becomes a
    one-line CLI error that names the file, instead of a traceback."""
    try:
        return loader(path)
    except ValueError as exc:
        message = str(exc)
        if not message.startswith(f"{path}:"):
            message = f"{path}: {message}"
        raise click.ClickException(message) from None


def _fit(fitter, *args, **kwargs):
    """Run a command's fits, print each warning they raise as one
    "Warning:" line on stderr, and turn a failed fit into a one-line CLI
    error instead of a traceback."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = fitter(*args, **kwargs)
        except FitError as exc:
            raise click.ClickException(str(exc)) from None
    for warning in caught:
        click.echo(f"Warning: {warning.message}", err=True)
    return result


class Commands(click.Group):
    """The command group. A file a command cannot open, read or write is
    one "Error: <path>: <reason>" line, not a traceback."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except OSError as exc:
            if exc.filename is None:
                raise
            raise click.ClickException(f"{exc.filename}: {exc.strerror}") from None


@click.group(cls=Commands)
def main():
    """Fit, sample, interpolate, embed, and classify 3D point-cloud shapes."""


@main.command()
@click.argument("cloud_path", type=click.Path(exists=True, dir_okay=False))
@click.option("--ks", default=None, type=POSITIVE_INTS,
              help="Comma-separated candidate component counts.")
@click.option("--seed", default=0, show_default=True, help="Fit seed.")
@click.option("-o", "--out", required=True, type=click.Path(dir_okay=False),
              help="Output model file (JSON).")
def fit(cloud_path, ks, seed, out):
    """Fit an AIC-weighted mixture ensemble to a point cloud."""
    cloud = _load(read_point_cloud, cloud_path)
    _check_ks(ks, len(cloud))
    _check_directory(os.path.dirname(out) or os.curdir, out)
    candidate_ks = ks or default_candidate_ks(len(cloud))
    ensemble, table = _fit(build_ensemble, cloud, candidate_ks, FitConfig(seed=seed))
    metadata = FitMetadata(
        seed=seed,
        candidate_ks=tuple(sorted(set(candidate_ks))),
        training_n=len(cloud),
        label=cloud.label,
    )
    save_model(out, ensemble, table, metadata)
    click.echo(format_aic_table(table))
    click.echo(f"wrote {out}")


@main.command()
@click.argument("model_path", type=click.Path(exists=True, dir_okay=False))
@click.option("--n", default=None, type=click.IntRange(min=1),
              help="Points to draw (default: training cloud size).")
@click.option("--seed", default=0, show_default=True, help="Sampling stream seed.")
@click.option("-o", "--out", required=True, type=click.Path(dir_okay=False),
              help="Output cloud file (.xyz or .csv).")
def sample(model_path, n, seed, out):
    """Draw a new point cloud from a fitted model file."""
    loaded = _load(load_model, model_path)
    count = n if n is not None else loaded.metadata.training_n
    cloud = generate_point_cloud(loaded.ensemble, count, rng_stream(seed),
                                 label=loaded.metadata.label)
    write_point_cloud(cloud, out)
    click.echo(f"wrote {count} points to {out}")


@main.command()
@click.argument("cloud_a", type=click.Path(exists=True, dir_okay=False))
@click.argument("cloud_b", type=click.Path(exists=True, dir_okay=False))
@click.option("--ts", default=",".join(str(t) for t in DEFAULT_TS), show_default=True,
              type=CommaList(FloatRange(0.0, 1.0)),
              help="Comma-separated interpolation parameters in [0, 1].")
@click.option("--n", default=None, type=click.IntRange(min=1),
              help="Points per frame (default: size of CLOUD_A).")
@click.option("--ks", default=None, type=POSITIVE_INTS,
              help="Comma-separated candidate component counts.")
@click.option("--seed", default=0, show_default=True, help="Fit and frame sampling seed.")
@click.option("-o", "--out", required=True, type=click.Path(file_okay=False),
              help="Output directory for frames and filmstrip.")
def interpolate(cloud_a, cloud_b, ts, n, ks, seed, out):
    """Morph between two clouds along the product-manifold geodesic."""
    x = _load(read_point_cloud, cloud_a)
    y = _load(read_point_cloud, cloud_b)
    _check_ks(ks, min(len(x), len(y)))
    existing = out  # os.makedirs makes what is missing below the nearest existing path
    while not os.path.lexists(existing):
        existing = os.path.dirname(existing) or os.curdir
    _check_directory(existing, out)
    result = _fit(interpolate_point_clouds, x, y, ts, n, candidate_ks=ks, seed=seed)
    os.makedirs(out, exist_ok=True)
    panels = []
    for i, (t, frame) in enumerate(zip(result.ts, result.frames)):
        frame_path = os.path.join(out, f"frame_{i:02d}_t{t:g}.xyz")
        write_point_cloud(frame, frame_path)
        panels.append((f"t={t:g}", frame))
        click.echo(f"wrote {frame_path}")
    strip_path = os.path.join(out, "filmstrip.svg")
    emit_svg_filmstrip(panels, strip_path)
    click.echo(f"wrote {strip_path}")


@main.command()
@click.option("--class", "class_label", required=True,
              type=click.Choice(sorted(CLASS_PARAMETERS)),
              help="Which stock shape class to draw.")
@click.option("--n", default=STOCK.n_points, show_default=True, type=click.IntRange(min=1),
              help="Points per cloud.")
@click.option("--seed", default=0, show_default=True, help="Shape sampling seed.")
@click.option("--outliers", default=0.0, show_default=True,
              type=FloatRange(0.0, 1.0, max_open=True),
              help="Fraction of points replaced by uniform box outliers.")
@click.option("-o", "--out", required=True, type=click.Path(dir_okay=False),
              help="Output cloud file (.xyz or .csv).")
def synth(class_label, n, seed, outliers, out):
    """Generate a synthetic bent-tube cloud of a stock class."""
    cloud = make_bent_tube(tube_spec_for_class(class_label, n_points=n), seed)
    cloud = add_outliers(cloud, outliers, inflated_bounds([cloud], margin_fraction=0.0), seed + 1)
    write_point_cloud(cloud, out)
    click.echo(f"wrote {len(cloud)} points to {out}")


@main.command()
@click.argument("cloud_paths", nargs=-1, required=True,
                type=click.Path(exists=True, dir_okay=False))
@click.option("--seed", default=0, show_default=True, help="Probe placement seed.")
@click.option("--count", default=PROBE_COUNT, show_default=True, type=click.IntRange(min=1),
              help="Number of probes.")
@click.option("-o", "--out", required=True, type=click.Path(dir_okay=False),
              help="Output probe-set file (JSON).")
def probes(cloud_paths, seed, count, out):
    """Draw a shared probe set over the bounding box of the given clouds."""
    clouds = [_load(read_point_cloud, p) for p in cloud_paths]
    save_probe_set(out, make_probe_set(clouds, seed, count))
    click.echo(f"wrote {count} probes to {out}")


@main.command()
@click.argument("model_paths", nargs=-1, required=True,
                type=click.Path(exists=True, dir_okay=False))
@click.option("--probes", "probes_path", required=True,
              type=click.Path(exists=True, dir_okay=False), help="Probe-set file.")
@click.option("-o", "--out", required=True, type=click.Path(dir_okay=False),
              help="Output embeddings file (JSON).")
def embed(model_paths, probes_path, out):
    """Embed fitted models on the unit hypersphere via probe densities."""
    probe_set = _load(load_probe_set, probes_path)
    entries = []
    for path in model_paths:
        loaded = _load(load_model, path)
        try:
            embedding = embed_model(loaded.ensemble, probe_set)
        except ValueError as exc:
            raise click.ClickException(f"{path}: {exc}") from None
        entries.append((embedding, loaded.metadata.label, os.path.basename(path)))
    save_embeddings(out, entries)
    click.echo(f"wrote {len(entries)} embeddings to {out}")


@main.command()
@click.option("--train", "train_path", required=True,
              type=click.Path(exists=True, dir_okay=False),
              help="Embeddings file with labels.")
@click.option("--test", "test_path", required=True,
              type=click.Path(exists=True, dir_okay=False),
              help="Embeddings file to classify.")
@click.option("--positive", default=DEMENTED, show_default=True,
              help="Label treated as the positive class in the metrics.")
def classify(train_path, test_path, positive):
    """1-NN classify embeddings and report accuracy per class."""
    train = [(emb, label) for emb, label, _ in _load(load_embeddings, train_path)
             if label is not None]
    if not train:
        raise click.ClickException("training embeddings carry no labels")
    test = _load(load_embeddings, test_path)
    sizes = sorted({emb.coords.size for emb, *_ in (*train, *test)})
    if len(sizes) > 1:
        raise click.ClickException(
            f"{train_path} and {test_path} hold embeddings of sizes {sizes}; "
            "embed every model on one probe set")
    pairs = []
    for emb, label, source in test:
        predicted = knn_classify(train, emb)
        click.echo(f"{source or '<unnamed>'}: predicted {predicted}")
        if label is not None:
            pairs.append((label, predicted))
    if pairs:
        try:
            metrics = evaluate(pairs, positive)
        except ValueError as exc:
            raise click.BadParameter(str(exc), param_hint="'--positive'") from None
        click.echo(
            f"accuracy {metrics.accuracy:.4f}  sensitivity {metrics.sensitivity:.4f}  "
            f"specificity {metrics.specificity:.4f}  (positive class: {positive})")
    else:
        click.echo("no labeled test embeddings; metrics skipped")


@main.command("eval-paper-pipeline")
@click.option("--seeds", default=",".join(map(str, STOCK.probe_seeds)), show_default=True,
              type=CommaList(click.INT), help="Comma-separated probe-set seeds to average over.")
@click.option("--seed", default=STOCK.seed, show_default=True,
              help="Base seed for shapes, fits, and generation.")
@click.option("--bases", default=STOCK.base_shapes_per_class, show_default=True,
              type=click.IntRange(min=1), help="Base shapes per class.")
@click.option("--counts", default=",".join(map(str, STOCK.generated_counts.values())),
              show_default=True, type=POSITIVE_INTS,
              help=f"Generated cloud counts: {','.join(STOCK.generated_counts)}.")
@click.option("--n-points", default=STOCK.n_points, show_default=True,
              type=click.IntRange(min=1), help="Points per cloud.")
@click.option("--ks", default=",".join(map(str, STOCK.candidate_ks)), show_default=True,
              type=POSITIVE_INTS, help="Comma-separated candidate component counts.")
def eval_paper_pipeline(seeds, seed, bases, counts, n_points, ks):
    """Run the synthetic generate-then-classify benchmark end to end."""
    if len(counts) != 2:
        raise click.BadParameter(
            f"expected two integers demented,nondemented, got {len(counts)}",
            param_hint="'--counts'")
    _check_ks(ks, n_points)
    config = ExperimentConfig(
        base_shapes_per_class=bases, generated_counts=dict(zip(STOCK.generated_counts, counts)),
        n_points=n_points, candidate_ks=ks, seed=seed, probe_seeds=seeds)
    click.echo(format_report(_fit(run_generation_classification, config)))


if __name__ == "__main__":
    main()
