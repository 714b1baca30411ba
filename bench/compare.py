"""Compare benchmark runs of a parent commit and a change, metric by metric.

    python3 bench/compare.py PARENT_DIR CHANGE_DIR

Each directory holds the saved stdout of bench/run.py runs, one file per
run. Make the runs in pairs, parent and change on the same seed, and
alternate which side of a pair runs first. For every workload and metric
the report gives each side's median and quartiles, the share of pairs the
change won (ties count for neither side) and a verdict:

- better: the change won at least nine tenths of the pairs and the
  medians differ by more than the parent's own quartile spread;
- worse: the change's median is worse than the parent's by more than the
  metric's bound;
- unresolved: the parent's quartile spread, as a share of its median, is
  wider than the bound, unless every change run beats every parent run;
- within bound: none of the above;
- missing: a run reported the metric as missing.

Bounds and directions come from BENCHMARK.json; the workload's own
metrics that the record carries use the table below. A metric without a
bound gets "better" or "no bound".
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WIN_SHARE = 0.9
# Metrics of the record line only, with their direction and bound. Wall
# times vary with host load, which run_rel's gauge cancels and they do
# not, so no set of runs has fixed a bound for them.
RECORD_METRICS = {
    "run_s": ("lower", None),
    "reference_ms": ("lower", None),
    "accuracy": ("higher", 0.05),
    "sensitivity": ("higher", 0.05),
    "specificity": ("higher", 0.05),
    "error_rate": ("lower", 0.0),
}


def read_run(path: Path) -> dict:
    """The record and result lines of one saved run."""
    lines = [line for line in path.read_text().splitlines() if line.startswith("{")]
    result = json.loads(lines[-1])
    record = next(json.loads(line)["record"] for line in reversed(lines)
                  if line.startswith('{"record"'))
    metrics = dict(result["metrics"])
    if not record["trace"]:
        metrics.update(record["workload_metrics"])
    return {"workload": record["workload"], "seed": record["seed"], "trace": record["trace"],
            "environment": record["environment"], "metrics": metrics}


def read_runs(directory: Path) -> list[dict]:
    return [read_run(p) for p in sorted(directory.iterdir()) if p.is_file()]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def directions(benchmark: dict) -> dict:
    out = dict(RECORD_METRICS)
    for metric in benchmark["end_to_end"]:
        out[metric["name"]] = (metric["better"], metric["bound"])
    for metric in benchmark["per_layer"]:
        out[metric["name"]] = (metric["better"], None)
    return out


def pair_up(parent: list[dict], change: list[dict]) -> list[tuple[dict, dict]]:
    """Pairs on equal seeds, in the order the runs were read."""
    by_seed = defaultdict(list)
    for run in change:
        by_seed[run["seed"]].append(run)
    pairs = []
    for run in parent:
        if by_seed[run["seed"]]:
            pairs.append((run, by_seed[run["seed"]].pop(0)))
    return pairs


def verdict(parent: list[float], change: list[float], wins: float, better: str,
            bound: float | None) -> str:
    sign = 1.0 if better == "lower" else -1.0
    p1, pm, p3 = quartiles(parent)
    _, cm, _ = quartiles(change)
    spread = (p3 - p1) / abs(pm) if pm else 0.0
    worse = sign * (cm - pm) / abs(pm) if pm else sign * (cm - pm)
    all_better = all(sign * (c - p) < 0 for c in change for p in parent)
    if wins >= WIN_SHARE and sign * (pm - cm) > p3 - p1:
        return "better"
    if bound is None:
        return "no bound"
    if spread > bound and not all_better:
        return "unresolved"
    if worse > bound:
        return "worse"
    return "within bound"


def compare(parent: list[dict], change: list[dict], benchmark: dict) -> list[dict]:
    rules = directions(benchmark)
    rows = []
    keys = sorted({(r["workload"], r["trace"]) for r in parent + change})
    for workload, trace in keys:
        side_p = [r for r in parent if (r["workload"], r["trace"]) == (workload, trace)]
        side_c = [r for r in change if (r["workload"], r["trace"]) == (workload, trace)]
        pairs = pair_up(side_p, side_c)
        names = sorted({n for r in side_p + side_c for n in r["metrics"]})
        for name in names:
            better, bound = rules.get(name, ("lower", None))
            values_p = [r["metrics"].get(name, {}).get("value") for r in side_p]
            values_c = [r["metrics"].get(name, {}).get("value") for r in side_c]
            row = {"workload": workload, "trace": trace, "metric": name, "pairs": len(pairs)}
            if not values_p or not values_c or None in values_p + values_c:
                rows.append(row | {"verdict": "missing"})
                continue
            sign = 1.0 if better == "lower" else -1.0
            decided = [(p["metrics"][name]["value"], c["metrics"][name]["value"])
                       for p, c in pairs]
            won = sum(1 for p, c in decided if sign * (c - p) < 0)
            wins = won / len(decided) if decided else 0.0
            rows.append(row | {
                "parent": quartiles(values_p), "change": quartiles(values_c),
                "wins": wins, "verdict": verdict(values_p, values_c, wins, better, bound)})
    return rows


def environment_differences(runs: list[dict]) -> list[str]:
    seen = {}
    for run in runs:
        env = {k: v for k, v in run["environment"].items() if k != "seed"}
        seen.setdefault(json.dumps(env, sort_keys=True), env)
    if len(seen) <= 1:
        return []
    return [json.dumps(env, sort_keys=True) for env in seen.values()]


def format_rows(rows: list[dict]) -> str:
    lines = [f"{'workload':<17} {'metric':<24} {'parent median [q1, q3]':<34} "
             f"{'change median [q1, q3]':<34} {'wins':>5}  verdict"]
    for row in rows:
        if row["verdict"] == "missing":
            lines.append(f"{row['workload']:<17} {row['metric']:<24} {'':<34} {'':<34} "
                         f"{'':>5}  missing")
            continue
        p1, pm, p3 = row["parent"]
        c1, cm, c3 = row["change"]
        lines.append(
            f"{row['workload']:<17} {row['metric']:<24} "
            f"{f'{pm:.6g} [{p1:.6g}, {p3:.6g}]':<34} {f'{cm:.6g} [{c1:.6g}, {c3:.6g}]':<34} "
            f"{row['wins']:>5.2f}  {row['verdict']}")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args(argv)
    parent, change = read_runs(args.parent), read_runs(args.change)
    differences = environment_differences(parent + change)
    if differences:
        print("warning: runs come from different environments and are not comparable:")
        for env in differences:
            print(f"  {env}")
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    print(format_rows(compare(parent, change, benchmark)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
