"""``scripts/bench_summary.py`` pairs saved benchmark runs by workload and
seed and summarizes each end-to-end metric per side."""

import json
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_summary.py"


def run_output(workload, seed, ops_per_s, trace=0, failed=0, cpu="Test CPU", rss=24.0,
               attempted=40):
    metrics = {
        "setup_s": {"value": 0.04, "unit": "s"},
        "ops_per_s": {"value": ops_per_s, "unit": "1/s"},
        "op_p50_ms": {"value": 1000 / ops_per_s, "unit": "ms"},
        "op_p90_ms": {"value": 1500 / ops_per_s, "unit": "ms"},
        "peak_rss_mb": {"value": rss, "unit": "MB"},
    }
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    return (
        f"# cpu: {cpu}\n# nproc: 2\n# python: 3.11.7\n# workload: {workload}\n"
        f"# seed: {seed}\n# seconds: 15.0\n# trace: {trace}\n# 4 cycles of 1 1 1 1 s (wall)\n"
        f"ops_per_s {ops_per_s} 1/s\n{json.dumps(result)}\n"
    )


def summarize(tmp_path, runs, *extra):
    files = {"parent": [], "change": []}
    for index, (side, text) in enumerate(runs):
        path = tmp_path / f"{index:02d}_{side}.txt"
        path.write_text(text)
        files[side].append(str(path))
    out = tmp_path / "BENCH_x.json"
    done = subprocess.run(
        [sys.executable, str(SCRIPT), "--pr", "x", "--out", str(out),
         "--parent", *files["parent"], "--change", *files["change"], *extra],
        capture_output=True, text=True, timeout=60,
    )
    return done, (json.loads(out.read_text()) if done.returncode == 0 else None)


def test_pairs_runs_and_summarizes_each_metric(tmp_path):
    runs = [
        ("parent", run_output("cli", 1, 8.0)),
        ("change", run_output("cli", 1, 10.0)),
        ("change", run_output("cli", 2, 11.0)),
        ("parent", run_output("cli", 2, 9.0)),
        ("parent", run_output("cli", 3, 10.0)),
        ("change", run_output("cli", 3, 9.5, failed=1)),
        ("change", run_output("cli", 4, 30.0, trace=1)),
        ("parent", run_output("reject", 5, 700.0)),
        ("change", run_output("reject", 5, 700.0)),
    ]
    done, bench = summarize(tmp_path, runs, "--description", "synthetic")
    assert done.returncode == 0, done.stderr
    assert bench["description"] == "synthetic"
    assert bench["machine"] == {"cpu": "Test CPU", "nproc": "2", "python": "3.11.7"}
    assert len(bench["runs"]) == 8 and [r["seed"] for r in bench["traced"]] == [4]
    cli = bench["summary"]["cli"]
    ops = cli["ops_per_s"]
    assert ops["pairs"] == 3 and ops["change_wins"] == 2
    assert ops["parent_q1_median_q3"] == [8.5, 9.0, 9.5]
    assert ops["change_q1_median_q3"] == [9.75, 10.0, 10.5]
    assert ops["median_ratio"] == round(10.0 / 9.0, 3)
    assert ops["medians_differ_beyond_parent_iqr"] is False
    assert cli["op_p50_ms"]["change_wins"] == 2  # lower is better
    assert cli["failed"] == {"parent": 0, "change": 1} and cli["all_correct"] is False
    reject = bench["summary"]["reject"]["ops_per_s"]
    assert reject["pairs"] == 1 and reject["change_wins"] == 0  # a tie counts for neither
    assert reject["medians_differ_beyond_parent_iqr"] is None
    assert not any(m["gain_shown"] for e in bench["summary"].values() for m in e.values()
                   if isinstance(m, dict) and "gain_shown" in m)  # fewer than 10 pairs


def test_marks_each_metric_within_its_bound_in_the_worse_direction(tmp_path):
    """BENCHMARK.json bounds ops_per_s by 0.2 (higher is better), op_p50_ms
    by 0.2 and peak_rss_mb by 0.1 (lower is better)."""
    runs = []
    for seed, (parent, change) in enumerate([(10.0, 7.5), (10.0, 8.5), (10.0, 8.0)]):
        runs += [("parent", run_output("scale", seed, parent, rss=20.0, attempted=100)),
                 ("change", run_output("scale", seed, change, rss=21.0 + seed,
                                       attempted=130 + seed))]
    for seed, (parent, change) in enumerate([(10.0, 13.0), (10.0, 14.0)], start=5):
        runs += [("parent", run_output("catalog", seed, parent, rss=20.0)),
                 ("change", run_output("catalog", seed, change, rss=23.0))]
    done, bench = summarize(tmp_path, runs)
    assert done.returncode == 0, done.stderr
    scale, catalog = bench["summary"]["scale"], bench["summary"]["catalog"]
    # median 8.0 is 20% below 10.0, on the bound; op_p50 125 ms is 25% above 100 ms
    assert scale["ops_per_s"]["within_bound"] is True
    assert scale["op_p50_ms"]["within_bound"] is False
    # median 22 MB is 10% above 20 MB, on the bound; 23 MB is 15% above it
    assert scale["peak_rss_mb"]["within_bound"] is True
    assert catalog["peak_rss_mb"]["within_bound"] is False
    assert catalog["ops_per_s"]["within_bound"] is True
    assert catalog["op_p50_ms"]["within_bound"] is True
    assert scale["peak_rss_mb"]["attempted_median"] == {"parent": 100, "change": 131}
    lines = done.stdout.splitlines()
    assert "scale: peak_rss_mb median 20.0 -> 22.0 MB at median attempted 100 -> 131 ops" in lines
    assert "catalog: peak_rss_mb median 20.0 -> 23.0 MB at median attempted 40.0 -> 40.0 ops" in lines


def test_refuses_runs_from_different_machines_and_foreign_files(tmp_path):
    runs = [("parent", run_output("cli", 1, 8.0)), ("change", run_output("cli", 1, 9.0, cpu="Other"))]
    done, _ = summarize(tmp_path, runs)
    assert done.returncode != 0 and "different machines" in done.stderr
    done, _ = summarize(tmp_path, [("parent", "no result here\n"), ("change", run_output("cli", 1, 9.0))])
    assert done.returncode != 0 and "result object" in done.stderr


def test_shows_a_gain_on_ten_pairs_won_nine_times_beyond_the_parent_spread(tmp_path):
    """``gain_shown`` needs at least 10 pairs, 9 in 10 of them won (a tie
    counts for neither side) and a median better by more than the parent's
    interquartile range; a loss as large differs beyond it but shows none."""
    parent = [100.0 + seed % 5 for seed in range(10)]  # quartiles 101, 102, 103
    workloads = {
        "catalog": [p + 10 for p in parent[:9]] + [parent[9] - 1],  # won 9 of 10
        "cli": [p + 10 for p in parent[:8]] + [parent[8], parent[9] - 1],  # 8, and a tie
        "reject": [p - 10 for p in parent],  # a loss beyond the spread
        "scale": [p + 1.5 for p in parent],  # won 10 of 10, by less than the spread
    }
    runs = []
    for workload, change in workloads.items():
        for seed, (p, c) in enumerate(zip(parent, change)):
            runs += [("parent", run_output(workload, seed, p)),
                     ("change", run_output(workload, seed, c))]
    runs += [("parent", run_output("nine", seed, p)) for seed, p in enumerate(parent[:9])]
    runs += [("change", run_output("nine", seed, p + 10)) for seed, p in enumerate(parent[:9])]
    done, bench = summarize(tmp_path, runs)
    assert done.returncode == 0, done.stderr
    summary = bench["summary"]
    catalog = summary["catalog"]
    assert catalog["ops_per_s"]["change_wins"] == 9 and catalog["ops_per_s"]["gain_shown"] is True
    assert catalog["op_p50_ms"]["gain_shown"] is True  # lower is better
    assert summary["cli"]["ops_per_s"]["change_wins"] == 8
    assert summary["cli"]["ops_per_s"]["gain_shown"] is False
    reject = summary["reject"]
    assert reject["ops_per_s"]["medians_differ_beyond_parent_iqr"] is True
    assert reject["ops_per_s"]["gain_shown"] is False and reject["op_p50_ms"]["gain_shown"] is False
    assert summary["scale"]["ops_per_s"]["change_wins"] == 10
    assert summary["scale"]["ops_per_s"]["gain_shown"] is False
    assert summary["nine"]["ops_per_s"]["pairs"] == 9
    assert summary["nine"]["ops_per_s"]["gain_shown"] is False
