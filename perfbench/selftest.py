"""Quick self-test of the benchmark on tiny inputs.

    python3 perfbench/selftest.py

Runs every workload at tiny sizes, untraced and traced, and checks that
each run passes its output checks and emits exactly the metrics that
``BENCHMARK.json`` lists, with their units.  Then checks the contract of
the command line: the last line of a run is the result object, and in a
directory without the package the benchmark exits non-zero and prints no
result.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import run


def expect(condition: bool, message: str) -> None:
    if not condition:
        sys.exit("selftest FAILED: " + message)


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    wanted = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    run.import_package()
    import workloads as wl

    expected = json.loads((run.HERE / "expected.json").read_text())
    expect(
        sorted(w["name"] for w in spec["workloads"]) == sorted(wl.WORKLOADS),
        "BENCHMARK.json workloads differ from the implemented ones",
    )
    for name, cls in wl.WORKLOADS.items():
        for trace in (0, 1):
            args = argparse.Namespace(workload=name, seed=2026, seconds=0.01, trace=trace)
            metrics, attempted, failed, _ = run.measure(cls, args, expected, tiny=True)
            got = {metric: unit for metric, (_, unit) in metrics.items()}
            expect(got == wanted[trace], "%s --trace %d emits %s" % (name, trace, sorted(got)))
            expect(attempted > 0 and failed == 0, "%s --trace %d failed its checks" % (name, trace))
            print("ok  %-8s --trace %d  %d metrics, %d ops checked" % (name, trace, len(got), attempted))

    command = [sys.executable, str(run.HERE / "run.py"), "--workload", "reject", "--seed", "3",
               "--seconds", "0.01", "--trace", "0"]
    done = subprocess.run(command, cwd=run.ROOT, capture_output=True, text=True, timeout=170)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    expect(done.returncode == 0 and result["correct"], "run.py did not end with a correct result")
    expect(sorted(result) == ["attempted", "correct", "failed", "metrics"], "result keys")
    print("ok  run.py prints the result object last")

    bare = run.ROOT / ".perfbench_tmp" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(run.HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        done = subprocess.run(
            [sys.executable, "perfbench/run.py", *command[2:]],
            cwd=bare, capture_output=True, text=True, timeout=170,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        with contextlib.suppress(OSError):
            bare.parent.rmdir()
    expect(done.returncode != 0 and '"correct"' not in done.stdout, "ran without the package")
    print("ok  without the package it exits %d and prints no result" % done.returncode)
    return 0


if __name__ == "__main__":
    sys.exit(main())
