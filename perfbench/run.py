"""Benchmark of the ``metriclie`` package, run from the root of a checkout.

    python3 perfbench/run.py --workload catalog --seed 1 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing traced:

* ``setup_s``: ``import metriclie`` in a fresh process, median of 11;
* ``ops_per_s``: operations completed per second;
* ``op_p50_ms``, ``op_p90_ms``: latency per operation;
* ``peak_rss_mb``: peak resident memory of the run's processes.

An operation is a catalog row (``catalog``), a sampling try (``reject``,
one kind per module tag), a step of the ladder (``scale``, three kinds) or
a command (``cli``, four kinds).  The figures are for an even mix of the
kinds, so that they do not move with the share of each kind in a run.  Times are given at a fixed reference speed of the machine (see
``probe.py``): on a shared host the wall clock of the same work varies by
half between minutes.  The wall-clock figures are printed beside them;
both leave out the probes' own time.

``--trace 1`` runs the workload untraced for a third of the time (at least
one cycle), then replays the same cycles with every public function of the
package traced (see ``tracing.py``), and reports calls and self time per
function and the tracing overhead.

The package is imported from ``src/`` of the checkout, never from an
installed copy.  Every run checks the outputs of every operation; the last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Lines before it describe the
machine and the run, and print every metric by name with its unit.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import probe
import tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent

SETUP_REPEATS = 11
SETUP_CODE = """\
import time
t = time.perf_counter()
import metriclie
print(time.perf_counter() - t)"""

LAYER_FUNCTIONS = {
    "exact_linalg": ("rref", "solve_affine", "kernel_basis", "signature_of", "matmul"),
    "lie_core": ("bracket", "validate_jacobi", "lower_central_series", "center"),
    "cochain_complex": ("wedge_pair", "differential", "differential_matrix"),
    "quadratic_cohomology": ("cocycle_defect", "check_admissible"),
    "double_construction": ("build_double", "verify_metric", "fingerprint"),
    "catalog": ("instantiate", "run_catalog"),
    "schema": ("loads_document", "dumps_document", "metric_to_payload"),
    "cli": ("main",),
}
VEC_OPS = ("vec_add", "vec_sub", "vec_scale")


def import_package():
    """Import ``metriclie`` from this checkout, or exit non-zero without a result."""
    if not (SRC / "metriclie" / "__init__.py").is_file():
        sys.exit("perfbench: no package at %s; run from a full checkout" % SRC)
    sys.path.insert(0, str(SRC))
    import metriclie

    if Path(metriclie.__file__).resolve().parent != (SRC / "metriclie").resolve():
        sys.exit("perfbench: imported metriclie from %s, not %s" % (metriclie.__file__, SRC))
    return metriclie


def measure_setup_s(env: dict) -> tuple[float, float]:
    """Median time of ``import metriclie`` in fresh processes, at the
    reference speed and as measured."""
    normalized, raw = [], []
    for attempt in range(SETUP_REPEATS + 1):
        done = subprocess.run(
            probe.child_command(SETUP_CODE),
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=60, check=True,
        )
        if attempt:  # the first import may compile bytecode
            seconds = float(done.stdout)
            raw.append(seconds)
            normalized.append(seconds * probe.REFERENCE_S / probe.child_kernel_s(done.stderr))
    return statistics.median(normalized), statistics.median(raw)


def machine_info(args) -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip() or "none (not a git checkout)"
    except (OSError, subprocess.SubprocessError):
        commit = "none (git unavailable)"
    sources = hashlib.sha256()
    for path in sorted((SRC / "metriclie").rglob("*.py")):
        sources.update(path.read_bytes())
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "commit": commit,
        "source_sha256": sources.hexdigest()[:16],
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "loop": "closed, one caller, one process, one thread",
    }


class Phase:
    """Whole cycles of a workload, run until ``stop(cycles_done, elapsed_s)``
    while the machine's speed is probed (see ``probe.py``).

    Afterwards every timed op's ``latency_s`` leaves the probes out, and
    ``normalized`` maps each op to its latency at the reference speed.
    """

    def __init__(self, workload, stop) -> None:
        self.ops, self.cycle_s = [], []
        self.normalized = {}
        with probe.SpeedProbe() as speed:
            start = mark = time.perf_counter()
            for cycle in workload.cycles():
                self.ops.extend(cycle)
                now = time.perf_counter()
                self.cycle_s.append(speed.work_s(mark, now)[0])
                mark = now
                if stop(len(self.cycle_s), speed.work_s(start, now)[0]):
                    break
        # Wall time of the cycles and the same at the reference speed, both
        # without the probes, and the probes' own time.
        self.elapsed_s, self.work_s = speed.work_s(start, mark)
        self.probes_s = mark - start - self.elapsed_s
        for op in self.ops:
            if op.latency_s is not None:
                begin = op.start
                op.latency_s, self.normalized[op] = speed.work_s(begin, begin + op.latency_s)


def by_kind_ms(phase) -> dict[str, list[float]]:
    """Latencies at the reference speed, by kind of op.  A failed op counts
    as taking the whole run."""
    out: dict[str, list[float]] = {}
    for op in phase.ops:
        if op.latency_s is not None:
            out.setdefault(op.label, []).append(
                (phase.normalized[op] if op.ok else phase.work_s) * 1e3
            )
    return out


def end_to_end(phase, setup_s, wl) -> dict:
    """Every timing at the reference speed, on an even mix of the kinds of
    op: a percentile is taken per kind and averaged over the kinds, and the
    throughput is that of ops of the mean latency over the kinds, with the
    run's share of time between ops.  So a seed that spends more of its run
    on one kind does not move the figures."""
    by_kind = by_kind_ms(phase)
    ops_ms = sum(phase.normalized.values()) * 1e3
    mean_ms = statistics.fmean(statistics.fmean(v) for v in by_kind.values())
    rss_kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (ops_ms / (phase.work_s * mean_ms), "1/s"),
        "op_p50_ms": (statistics.fmean(wl.percentile(v, 50) for v in by_kind.values()), "ms"),
        "op_p90_ms": (statistics.fmean(wl.percentile(v, 90) for v in by_kind.values()), "ms"),
        "peak_rss_mb": (rss_kb / 1024, "MB"),
    }


def per_layer(tracer, workload, untraced, traced) -> dict:
    """Calls and self times (wall) of the traced phase; the overhead compares
    it with the untraced phase at the reference speed."""
    stats = tracer.stats
    out = {}
    for module, names in LAYER_FUNCTIONS.items():
        for name in names:
            stat = stats.get((module, name))
            out["%s.%s.calls" % (module, name)] = (stat.calls if stat else 0, "count")
            out["%s.%s.self_s" % (module, name)] = (stat.self_s if stat else 0.0, "s")
    vec = [stats[("exact_linalg", name)] for name in VEC_OPS if ("exact_linalg", name) in stats]
    out["exact_linalg.vec_ops.calls"] = (sum(s.calls for s in vec), "count")
    out["exact_linalg.vec_ops.self_s"] = (sum(s.self_s for s in vec), "s")
    rref = stats.get(("exact_linalg", "rref"))
    out["exact_linalg.rref.cells"] = (rref.extra if rref else 0, "cells")
    dumps = stats.get(("schema", "dumps_document"))
    out["schema.dumps_document.bytes"] = (dumps.extra if dumps else 0, "B")
    tries = workload.counters.get("tries", 0)
    out["quadratic_cohomology.solvable_per_try"] = (
        workload.counters.get("solvable", 0) / tries if tries else 0.0, "ratio"
    )
    for module in LAYER_FUNCTIONS:
        total = sum(s.self_s for (m, _), s in stats.items() if m == module)
        out["%s.self_s" % module] = (total, "s")
    wall_s = traced.elapsed_s + traced.probes_s
    out["outside_traced.self_s"] = (wall_s - tracer.top_level_s, "s")
    out["trace.overhead_s"] = (traced.work_s - untraced.work_s, "s")
    out["trace.overhead_share"] = (traced.work_s / untraced.work_s - 1, "ratio")
    return out


def measure(workload_cls, args, expected, tiny=False) -> tuple[dict, int, int, list]:
    """One run: returns (metrics, attempted, failed, detail lines)."""
    import workloads as wl

    lines = []
    if args.trace:
        workload = workload_cls(ROOT, args.seed, expected, tiny=tiny, in_process=True)
        try:
            untraced = Phase(workload, lambda n, t: t >= args.seconds / 3)
            count = len(untraced.cycle_s)
            with tracing.Tracer() as tracer:
                traced = Phase(workload, lambda n, t: n >= count)
        finally:
            workload.close()
        metrics = per_layer(tracer, workload, untraced, traced)
        ops = untraced.ops + traced.ops
        lines.append(
            "# traced %d cycles: untraced %.3f s, traced %.3f s (wall)"
            % (count, untraced.elapsed_s, traced.elapsed_s)
        )
        lines.append(
            "# the speed probes took %.3f s of the traced phase, counted in the self "
            "time of the function they interrupted" % traced.probes_s
        )
        lines.append(
            "# waiting time: none; the program is single-threaded and has no queues, "
            "so no layer waits"
        )
    else:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
        setup_s, setup_wall_s = measure_setup_s(env)
        start = time.perf_counter()
        workload = workload_cls(ROOT, args.seed, expected, tiny=tiny)
        inputs_s = time.perf_counter() - start
        cpu0, children0 = time.process_time(), os.times()
        try:
            phase = Phase(workload, lambda n, t: t >= args.seconds)
        finally:
            workload.close()
        children1 = os.times()
        cpu_s = time.process_time() - cpu0 + (
            children1.children_user + children1.children_system
            - children0.children_user - children0.children_system
        )
        ops = phase.ops
        metrics = end_to_end(phase, setup_s, wl)
        lines.append("# setup (import) %.4f s wall" % setup_wall_s)
        lines.append("# inputs built in %.3f s" % inputs_s)
        lines.append(
            "# %d cycles of %s s (wall)"
            % (len(phase.cycle_s), " ".join("%.3f" % c for c in phase.cycle_s))
        )
        lines.append(
            "# wall %.3f s, process cpu %.3f s (children included), %.3f s at reference speed"
            % (phase.elapsed_s, cpu_s, phase.work_s)
        )
        for name, value, unit in workload.details(ops, phase.elapsed_s, phase.cycle_s):
            lines.append("%-40s %14.6g %s (wall)" % (name, value, unit))
        lines.append(
            "# latency samples by kind: "
            + ", ".join("%s %d" % (kind, len(v)) for kind, v in by_kind_ms(phase).items())
        )
    attempted = len(ops)
    failed = sum(1 for op in ops if not op.ok)
    lines.append("%-40s %14d %s" % ("ops_attempted", attempted, "count"))
    lines.append("%-40s %14d %s" % ("ops_failed", failed, "count"))
    return metrics, attempted, failed, lines


def main(argv=None) -> int:
    import_package()
    import workloads as wl

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    expected = json.loads((HERE / "expected.json").read_text())
    for key, value in machine_info(args).items():
        print("# %s: %s" % (key, value))
    metrics, attempted, failed, lines = measure(wl.WORKLOADS[args.workload], args, expected)
    for line in lines:
        print(line)
    for name, (value, unit) in metrics.items():
        print("%-40s %14.6g %s" % (name, value, unit))
    result = {
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
