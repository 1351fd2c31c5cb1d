"""Summarize saved benchmark runs into a ``BENCH_<pr>.json`` file.

Each input file holds the standard output of one run of

    python3 perfbench/run.py --workload W --seed S --seconds 15 --trace T

made on the parent commit (``--parent``) or on the change (``--change``).
The file's ``# name: value`` lines give the machine and the run, and its last
line is the run's result object.  A parent run and a change run with the
same workload and seed form a pair.

For each workload, side and end-to-end metric of ``BENCHMARK.json`` the
summary gives the median and quartiles of the untraced runs
(``statistics.quantiles(n=4, method="inclusive")``), the pairs the change
wins (ties count for neither side), the ratio of the medians, and whether
the medians differ by more than the parent's interquartile range (null for
a single parent run, which has no spread), and whether the change's median
is within the metric's ``bound`` of the parent's in the worse direction
(``within_bound``).  ``gain_shown`` holds when the metric's gain is shown:
at least 10 pairs, the change winning at least 9 in 10 of them, and its
median better than the parent's by more than the parent's interquartile
range (``medians_differ_beyond_parent_iqr`` holds for a loss too).  The median operations attempted per run go beside
``peak_rss_mb``, since the harness keeps every operation it runs, and are
printed with it.  Traced
runs are listed apart and left out of the summary.  Two traced runs may trace
different numbers of cycles, so their ``self_s`` totals do not compare; each
traced run also gets ``per_call_s``, each layer's ``self_s / calls`` for the
layers it called at least once.  Runs are listed in the
order of their file names, so name the files in the order the runs were made.

    python3 scripts/bench_summary.py --pr 12 --parent runs/*_parent.txt \\
        --change runs/*_change.txt --description "what was compared"

writes ``BENCH_12.json`` at the root of the checkout, or ``--out PATH``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COMMAND = "python3 perfbench/run.py --workload W --seed S --seconds 15 --trace T"
MACHINE_KEYS = ("cpu", "nproc", "python")


def read_run(path: Path, side: str) -> dict:
    """The run in one saved output: its header fields and its result object."""
    lines = path.read_text().splitlines()
    header = {}
    for line in lines:
        if line.startswith("# "):
            name, sep, value = line[2:].partition(": ")
            if sep:
                header.setdefault(name, value.strip())
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        raise SystemExit(f"{path}: the last line is not a result object") from None
    missing = [key for key in ("workload", "seed", "trace", *MACHINE_KEYS) if key not in header]
    if missing or not isinstance(result, dict) or "metrics" not in result:
        raise SystemExit(f"{path}: not the output of perfbench/run.py (missing {missing})")
    return {
        "workload": header["workload"],
        "seed": int(header["seed"]),
        "side": side,
        "trace": int(header["trace"]),
        "machine": {key: header[key] for key in MACHINE_KEYS},
        "file": path.name,
        "result": result,
    }


def quartiles(values: list[float]) -> list[float]:
    if len(values) == 1:
        return values * 3
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [q1, median, q3]


def per_call_s(metrics: dict) -> dict[str, float]:
    """Each layer's ``<layer>.self_s / <layer>.calls``, where calls > 0."""
    out = {}
    for name, calls in metrics.items():
        layer = name.removesuffix(".calls")
        if layer != name and calls["value"] > 0 and f"{layer}.self_s" in metrics:
            out[layer] = metrics[f"{layer}.self_s"]["value"] / calls["value"]
    return out


def summarize(runs: list[dict], metrics: list[dict]) -> dict:
    """Per workload: each end-to-end metric's quartiles per side, the wins of
    the change over the pairs, and the failed operations per side."""
    summary = {}
    for workload in sorted({run["workload"] for run in runs}):
        mine = [run for run in runs if run["workload"] == workload and run["trace"] == 0]
        by_seed = {}
        for run in mine:
            by_seed.setdefault(run["seed"], {}).setdefault(run["side"], []).append(run)
        pairs = [
            (sides["parent"][0], sides["change"][0])
            for _, sides in sorted(by_seed.items())
            if len(sides.get("parent", ())) == 1 and len(sides.get("change", ())) == 1
        ]
        entry = {}
        for metric in metrics:
            name, lower = metric["name"], metric["better"] == "lower"

            def value(run):
                return run["result"]["metrics"][name]["value"]

            measured = [run for run in mine if name in run["result"]["metrics"]]
            sides = {
                side: [value(run) for run in measured if run["side"] == side]
                for side in ("parent", "change")
            }
            if not sides["parent"] or not sides["change"]:
                continue
            parent, change = quartiles(sides["parent"]), quartiles(sides["change"])
            worst = parent[1] * (1 + metric["bound"] if lower else 1 - metric["bound"])
            wins = sum(
                (value(c) < value(p)) if lower else (value(c) > value(p)) for p, c in pairs
            )
            gain = parent[1] - change[1] if lower else change[1] - parent[1]
            entry[name] = {
                "better": metric["better"],
                "pairs": len(pairs),
                "change_wins": wins,
                "parent_q1_median_q3": [round(x, 4) for x in parent],
                "change_q1_median_q3": [round(x, 4) for x in change],
                "median_ratio": round(change[1] / parent[1], 3) if parent[1] else None,
                "medians_differ_beyond_parent_iqr": (
                    abs(change[1] - parent[1]) > parent[2] - parent[0]
                    if len(sides["parent"]) > 1 else None  # one run has no spread
                ),
                "within_bound": change[1] <= worst if lower else change[1] >= worst,
                "gain_shown": (
                    len(pairs) >= 10 and wins * 10 >= len(pairs) * 9
                    and gain > parent[2] - parent[0]
                ),
            }
            if name == "peak_rss_mb":
                entry[name]["attempted_median"] = {
                    side: statistics.median([run["result"]["attempted"] for run in measured
                                             if run["side"] == side])
                    for side in ("parent", "change")
                }
        for key in ("attempted", "failed"):
            entry[key] = {
                side: sum(run["result"][key] for run in mine if run["side"] == side)
                for side in ("parent", "change")
            }
        entry["all_correct"] = all(run["result"]["correct"] for run in mine)
        summary[workload] = entry
    return summary


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pr", required=True, help="number in the output name BENCH_<pr>.json")
    parser.add_argument("--parent", nargs="+", type=Path, required=True, help="runs of the parent")
    parser.add_argument("--change", nargs="+", type=Path, required=True, help="runs of the change")
    parser.add_argument("--description", default="", help="what was compared, and how")
    parser.add_argument("--out", type=Path, help="output path (default: BENCH_<pr>.json at the root)")
    args = parser.parse_args(argv)

    runs = [read_run(path, "parent") for path in args.parent]
    runs += [read_run(path, "change") for path in args.change]
    runs.sort(key=lambda run: run["file"])
    machines = {json.dumps(run.pop("machine"), sort_keys=True) for run in runs}
    if len(machines) != 1:
        raise SystemExit(f"the runs come from {len(machines)} different machines or Pythons")
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    out = {
        "description": args.description,
        "machine": json.loads(machines.pop()),
        "command": COMMAND,
        "runs": [run for run in runs if run["trace"] == 0],
        "traced": [dict(run, per_call_s=per_call_s(run["result"]["metrics"]))
                   for run in runs if run["trace"] == 1],
        "summary": summarize(runs, metrics),
    }
    path = args.out or ROOT / f"BENCH_{args.pr}.json"
    path.write_text(json.dumps(out, indent=1) + "\n")
    print(f"wrote {path} from {len(runs)} runs")
    for workload, entry in out["summary"].items():
        rss = entry.get("peak_rss_mb")
        if rss:
            print("%s: peak_rss_mb median %s -> %s MB at median attempted %s -> %s ops" % (
                workload, rss["parent_q1_median_q3"][1], rss["change_q1_median_q3"][1],
                rss["attempted_median"]["parent"], rss["attempted_median"]["change"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
