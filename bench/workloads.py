"""The three benchmark workloads.

Each workload builds its inputs from the workload seed in `setup`, drives
gmmcloud through public commands or functions in `run` (the timed part),
and validates what `run` produced in `check`, outside the timed region.
`fitted` gives the (cloud, ensemble) pairs behind `nll_per_point` and
`quality` the workload's own metrics, both from the operation's outputs
and outside the timed region. Library calls go through module attributes
(`selection.build_ensemble`, not a name imported here) so the traced
run's hooks see them.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np
from click.testing import CliRunner

from gmmcloud import cli, io, selection, shapes
from gmmcloud.em import FitConfig
from gmmcloud.model import ensemble_log_density

POSITIVE = shapes.DEMENTED
LABELS = (shapes.DEMENTED, shapes.NONDEMENTED)
INTERPOLATE_TS = (0.0, 0.25, 0.5, 0.75, 1.0)
PAPER_MIN_ACCURACY = 0.90


class CheckFailed(Exception):
    """An operation completed but its outputs are wrong."""


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable[[int, Path], Any]
    run: Callable[[Any, Any], Any]
    check: Callable[[Any, Any], None]
    fitted: Callable[[Any, Any], list]
    quality: Callable[[Any, Any], dict]
    # hook spans the operation is predicted to fire; a predicted hook that
    # never fires makes its metrics missing rather than zero
    layers: frozenset
    # cloud size and K of the fit whose E- and M-steps are timed on their own
    step_fit: tuple[int, int]
    # input sets per run; a run cycles through them, each at least once
    inputs: int = 1


def invoke_cli(rec, args: list[str]) -> str:
    """Run one gmmcloud command in this process and return its stdout."""
    with rec.span("cli.main"):
        result = CliRunner().invoke(cli.main, args, catch_exceptions=False)
    if result.exit_code != 0:
        raise CheckFailed(f"gmmcloud {args[0]} exited {result.exit_code}: {result.output}")
    return result.output


def nll_per_point(fitted) -> float:
    """Mean over fitted clouds of the negative log-likelihood per point of
    each cloud under its own fitted ensemble."""
    return float(np.mean([
        -np.mean(ensemble_log_density(cloud.points, ensemble)) for cloud, ensemble in fitted
    ]))


def _ratios(values: dict) -> dict:
    return {name: {"value": value, "unit": "ratio"} for name, value in values.items()}


def _no_quality(state, output) -> dict:
    return {}


# paper_pipeline: the paper's experiment, `gmmcloud eval-paper-pipeline` with
# the stock settings written out and the workload seed as its base seed.
# The command prints only the classification metrics, so nll_per_point
# refits its base tubes the way the pipeline fits them.

_MEAN_LINE = re.compile(
    r"mean over \d+ probe seeds: accuracy (\S+)\s+sensitivity (\S+)\s+specificity (\S+)")


def _paper_setup(seed, workdir, bases=5, n_points=600, ks=(2, 4, 8), options=()):
    args = ["eval-paper-pipeline", "--seed", str(seed), "--bases", str(bases),
            "--n-points", str(n_points), "--ks", ",".join(map(str, ks)), *options]
    return {"args": args, "seed": seed, "bases": bases, "n_points": n_points, "ks": ks}


def _paper_run(state, rec):
    return invoke_cli(rec, state["args"])


def _paper_metrics(output: str) -> dict:
    match = _MEAN_LINE.search(output)
    if match is None:
        raise CheckFailed(f"no mean-metrics line in output: {output!r}")
    return dict(zip(("accuracy", "sensitivity", "specificity"), map(float, match.groups())))


def _paper_check(state, output):
    metrics = _paper_metrics(output)
    if not all(math.isfinite(v) for v in metrics.values()):
        raise CheckFailed(f"non-finite metrics: {metrics}")
    if metrics["accuracy"] < PAPER_MIN_ACCURACY:
        raise CheckFailed(f"accuracy {metrics['accuracy']} below {PAPER_MIN_ACCURACY}")


def _paper_fitted(state, output):
    """The pipeline's base tubes, with the tube seeds that
    run_generation_classification gives them, each refitted with
    build_ensemble at the pipeline's Ks and fit seed."""
    config = FitConfig(seed=state["seed"])
    fitted = []
    for ci, label in enumerate(sorted(LABELS)):
        spec = shapes.tube_spec_for_class(label, state["n_points"])
        for b in range(state["bases"]):
            cloud = shapes.make_bent_tube(spec, seed=state["seed"] * 10007 + ci * 101 + b)
            fitted.append((cloud, selection.build_ensemble(cloud, state["ks"], config)[0]))
    return fitted


def _paper_quality(state, output):
    return _ratios(_paper_metrics(output))


# large_fit: one K=8 fit of a 60 000-point stock tube through `gmmcloud fit`.

LARGE_N = 60_000


def _large_setup(seed, workdir, n_points=LARGE_N):
    cloud = shapes.make_bent_tube(shapes.tube_spec_for_class(POSITIVE, n_points), seed)
    path = workdir / "big.xyz"
    io.write_point_cloud(cloud, str(path))
    return {"cloud": path, "model": workdir / "big.model.json"}


def _large_run(state, rec):
    state["model"].unlink(missing_ok=True)
    return invoke_cli(rec, ["fit", str(state["cloud"]), "--ks", "8", "-o", str(state["model"])])


def _large_check(state, output):
    """The saved model loads, and its ensemble reproduces the fit exactly:
    the AIC table the command printed, each member's AIC on the training
    cloud, and the member weights renormalized from the kept Akaike
    weights, as build_ensemble assembles them."""
    loaded = io.load_model(str(state["model"]))
    table, members = loaded.aic_table, loaded.ensemble.members
    if io.format_aic_table(table) not in output:
        raise CheckFailed("the saved AIC table differs from the one the command printed")
    kept = [row for row in table.rows if row.kept]
    if [row.k for row in kept] != [m.model.k for m in members]:
        raise CheckFailed("saved members do not match the kept candidates")
    cloud = io.read_point_cloud(str(state["cloud"]))
    total = math.fsum(row.normalized for row in kept)
    for row, member in zip(kept, members):
        if member.weight != row.normalized / total:
            raise CheckFailed(f"member K={row.k} weight differs from its Akaike weight")
        if selection.aic_score(cloud, member.model) != row.aic:
            raise CheckFailed(f"member K={row.k} does not reproduce its AIC")


def _large_fitted(state, output):
    """The training cloud under the saved model."""
    return [(io.read_point_cloud(str(state["cloud"])),
             io.load_model(str(state["model"])).ensemble)]


# interpolate: `gmmcloud interpolate` between a nondemented and a demented
# 600-point tube with the automatic candidate Ks 1..32. Input seed s gives
# tube seeds 2s and 2s + 1 (seed 0 is the README pair). Between pairs the
# EM work varies by about 30 % (a capped K = 32 fit alone takes about 1 s
# of a 3.5 s pair) and the NLL of the fit by about 8 %, so a run cycles
# five pairs. The command writes only frames, so nll_per_point refits the
# input clouds of the first three pairs with the command's automatic Ks
# and fit seed.

INTERPOLATE_N = 600
INTERPOLATE_PAIRS = 5


def _interpolate_setup(seed, workdir, n_points=INTERPOLATE_N):
    paths = []
    for offset, label in enumerate((shapes.NONDEMENTED, shapes.DEMENTED)):
        cloud = shapes.make_bent_tube(shapes.tube_spec_for_class(label, n_points),
                                      2 * seed + offset)
        paths.append(workdir / f"{'ab'[offset]}.xyz")
        io.write_point_cloud(cloud, str(paths[-1]))
    return {"clouds": paths, "out": workdir / "morph", "n": n_points}


def _frame_paths(state):
    return [state["out"] / f"frame_{i:02d}_t{t:g}.xyz" for i, t in enumerate(INTERPOLATE_TS)]


def _interpolate_run(state, rec):
    for path in _frame_paths(state) + [state["out"] / "filmstrip.svg"]:
        path.unlink(missing_ok=True)
    ts = ",".join(f"{t:g}" for t in INTERPOLATE_TS)
    return invoke_cli(rec, ["interpolate", *map(str, state["clouds"]), "--ts", ts,
                            "-o", str(state["out"])])


def _interpolate_check(state, output):
    for path in _frame_paths(state):
        if not path.is_file():
            raise CheckFailed(f"missing frame {path.name}")
        points = io.read_point_cloud(str(path)).points
        if points.shape != (state["n"], 3) or not np.all(np.isfinite(points)):
            raise CheckFailed(f"{path.name} holds {points.shape} points or non-finite values")
    svg = state["out"] / "filmstrip.svg"
    if not svg.is_file() or "<svg" not in svg.read_text():
        raise CheckFailed("missing or empty filmstrip.svg")


def _interpolate_fitted(state, output):
    clouds = [io.read_point_cloud(str(path)) for path in state["clouds"]]
    return [(c, selection.build_ensemble(c, selection.default_candidate_ks(len(c)),
                                         FitConfig(seed=0))[0]) for c in clouds]


_CLI_FIT = {"cli.main", "selection.build_ensemble", "em.fit_em", "em.kmeans_init"}

WORKLOADS = {
    w.name: w for w in (
        Workload("paper_pipeline", _paper_setup, _paper_run, _paper_check, _paper_fitted,
                 _paper_quality,
                 frozenset(_CLI_FIT | {"pipeline.run_generation_classification",
                                       "shapes.make_bent_tube",
                                       "sampling.generate_point_cloud",
                                       "embedding.make_probe_set", "embedding.embed",
                                       "embedding.knn_classify"}),
                 (600, 8)),
        Workload("large_fit", _large_setup, _large_run, _large_check, _large_fitted,
                 _no_quality,
                 frozenset(_CLI_FIT | {"io.read", "io.write"}),
                 (LARGE_N, 8)),
        Workload("interpolate", _interpolate_setup, _interpolate_run, _interpolate_check,
                 _interpolate_fitted, _no_quality,
                 frozenset(_CLI_FIT | {"io.read", "io.write", "sampling.generate_point_cloud",
                                       "geodesics.project_to_k", "geodesics.match_components",
                                       "geodesics.product_geodesic"}),
                 (INTERPOLATE_N, 32), INTERPOLATE_PAIRS),
    )
}
