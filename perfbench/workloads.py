"""The four benchmark workloads, their inputs and their output checks.

Every workload is a closed loop with one caller.  ``cycles()`` yields one
cycle of work at a time, as a list of :class:`Op` records; the runner only
stops between cycles, so every run measures whole cycles and a partial
cycle never changes the mix of operations.

Why these workloads (see also ``BENCHMARK.json``):

* ``catalog``: many small algebras.  Dense brackets and the repeated lower
  central series dominate; ``cochain_complex`` barely runs.
* ``reject``: the rejection study of random cocycles on one 5-dim algebra.
  Wedge products, affine solves and vector arithmetic dominate; the Lie
  bracket and the double construction hardly run.
* ``scale``: few, large inputs through the layers ``catalog`` uses.  A
  cache tuned for small dimensions gains nothing here; asymptotic changes
  gain most.
* ``cli``: single-document commands, each paying interpreter start and
  import; the only workload that runs ``schema`` and ``cli``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import os
import random
import shutil
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

from metriclie import catalog, cli, cochain_complex, double_construction
from metriclie import exact_linalg, lie_core, quadratic_cohomology

clock = time.perf_counter


class Op:
    """One checked operation: its kind, when it started and how long it took
    (None for a check without a timed call), and whether its output was
    correct."""

    __slots__ = ("latency_s", "ok", "label", "start")

    def __init__(self, latency_s: float | None, ok: bool, label: str, start: float | None = None) -> None:
        self.latency_s = latency_s
        self.ok = ok
        self.label = label
        self.start = start


class Workload:
    """Defaults for the workloads below.

    A workload is built from the checkout root, the seed and the pinned
    expectations; ``tiny`` shrinks the inputs for the self-test and
    ``in_process`` replaces subprocesses by calls in this process.
    """

    name = ""
    # Work counters of the last ``cycles()`` run, for the per-layer ratios.
    counters: dict[str, int] = {}

    def cycles(self):
        """Yield one cycle of ops at a time."""
        raise NotImplementedError

    def details(self, ops, elapsed_s, cycle_s) -> list[tuple[str, float, str]]:
        raise NotImplementedError

    def close(self) -> None:
        pass


def fingerprint_text(fp) -> str:
    """The fingerprint fields the checks pin, in a stable text form."""
    return "%d|%s|%s|%d|%s|%s" % (
        fp.dim,
        fp.signature.as_tuple(),
        tuple(fp.series_dims),
        fp.center_dim,
        fp.center_signature.as_tuple(),
        fp.derived_signature.as_tuple(),
    )


def digest(text: str | bytes) -> str:
    data = text.encode() if isinstance(text, str) else text
    return hashlib.sha256(data).hexdigest()[:16]


# ---------------------------------------------------------------------------
# catalog
# ---------------------------------------------------------------------------


class Catalog(Workload):
    """The classified catalog at the default samples, one row per call."""

    name = "catalog"

    def __init__(self, root: Path, seed: int, expected: dict, tiny: bool = False, in_process: bool = False) -> None:
        entries = catalog.ENTRIES[:4] if tiny else catalog.ENTRIES
        self.expected = expected["catalog"]["tiny" if tiny else "full"]
        samples = catalog.default_samples()
        self.points = []
        for entry in entries:
            axes = [[(name, value) for value in samples[name]] for name in entry.params]
            for point in itertools.product(*axes):
                self.points.append((entry, {name: (value,) for name, value in point}))

    def cycles(self):
        while True:
            ops = []
            rows = []
            for entry, samples in self.points:
                start = clock()
                report = catalog.run_catalog(samples, entries=[entry])
                latency = clock() - start
                ok = len(report.rows) == 1 and report.rows[0].ok
                if ok:
                    row = report.rows[0]
                    ok = row.fingerprint.dim <= 10 and row.fingerprint.series_dims[1] > 0
                    rows.append(row)
                ops.append(Op(latency, ok, "row", start))
            if not self._pass_ok(rows):
                for op in ops:
                    op.ok = False
            yield ops

    def _pass_ok(self, rows) -> bool:
        """95 rows, the pinned number of fingerprint collision groups and the
        pinned digest of the ordered row fingerprints."""
        lines = []
        groups: dict[str, set[str]] = {}
        for row in rows:
            text = fingerprint_text(row.fingerprint)
            lines.append("%s %s %s" % (row.entry_id, row.params, text))
            groups.setdefault(text, set()).add(row.entry_id)
        collisions = sum(1 for ids in groups.values() if len(ids) > 1)
        return (
            len(rows) == self.expected["rows"]
            and collisions == self.expected["collision_groups"]
            and digest("\n".join(lines)) == self.expected["digest"]
        )

    @staticmethod
    def details(ops, elapsed_s, cycle_s):
        lat = latencies_ms(ops)
        return [
            ("catalog.rows_per_s", len(lat) / elapsed_s, "rows/s"),
            ("catalog.row_p50_ms", percentile(lat, 50), "ms"),
            ("catalog.row_p90_ms", percentile(lat, 90), "ms"),
            ("catalog.pass_s", percentile(cycle_s, 50), "s"),
        ]


# ---------------------------------------------------------------------------
# reject
# ---------------------------------------------------------------------------

REJECT_TAGS = ("r01", "r10", "r11", "r02", "r11w", "r21", "r03", "r22w")
REJECT_TARGET = 50
TRIES_PER_CALL = 60
# A run that finishes the study at its seed goes on with a fresh study.
STUDY_STRIDE = 1_000_003


def five_dim_three_step() -> lie_core.LieAlgebra:
    """[X1,X2]=Z, [X1,Z]=Y, [X2,X3]=Y on the basis (X1,X2,X3,Z,Y)."""
    unit = exact_linalg.unit_vector
    return lie_core.LieAlgebra(
        5,
        {(0, 1): unit(5, 3), (0, 3): unit(5, 4), (1, 2): unit(5, 4)},
        labels=("X1", "X2", "X3", "Z", "Y"),
    )


def cochain_from_vector(vec, n: int, degree: int, value_dim: int, scalar: bool):
    values = {}
    pos = 0
    for key in itertools.combinations(range(n), degree):
        value = tuple(vec[pos : pos + value_dim])
        pos += value_dim
        if any(value):
            values[key] = value
    return cochain_complex.Cochain(n, degree, value_dim, scalar, values)


def cochain_to_vector(c) -> list[Fraction]:
    out = []
    zero = (Fraction(0),) * c.value_dim
    for key in itertools.combinations(range(c.n), c.degree):
        out.extend(c.values.get(key, zero))
    return out


class Reject(Workload):
    """The rejection study: random quadratic cocycles on the 5-dim three-step
    algebra, with module tags cycled per rejection, until 50 cocycles are
    rejected at the final filtration stage.

    The random sequence is the one of the acceptance test's sampler: one
    ``Fraction(randint(-4, 4), randint(1, 3))`` per closed-kernel basis
    vector, in order, so seed 2026 replays acceptance criterion 4.  A
    sampler call makes at most 60 tries.
    """

    name = "reject"

    def __init__(self, root: Path, seed: int, expected: dict, tiny: bool = False, in_process: bool = False) -> None:
        self.seed = seed
        self.rounds_per_cycle = 1 if tiny else 4
        self.algebra = five_dim_three_step()
        pinned = expected["reject"]
        self.trajectory = pinned["calls"] if seed == pinned["seed"] else None

    def cycles(self):
        """One cycle is four rounds of the module tags (one rejection per tag
        and round; one round when tiny), or the end of a study: every run
        sees all tags in the study's own measure."""
        self.counters = {"tries": 0, "solvable": 0}
        ops = [self._zero_cocycle_control()]
        for study in itertools.count():
            rg = random.Random(self.seed + STUDY_STRIDE * study)
            trajectory = self.trajectory if study == 0 else None
            rejected = 0
            call = 0
            while rejected < REJECT_TARGET:
                tag = REJECT_TAGS[rejected % len(REJECT_TAGS)]
                tries, solvable = self._sample(rg, tag)
                if trajectory is not None and (
                    call >= len(trajectory) or trajectory[call] != [len(tries), int(solvable)]
                ):
                    tries[-1].ok = False
                call += 1
                ops += tries
                if solvable:
                    rejected += 1
                    if rejected % (self.rounds_per_cycle * len(REJECT_TAGS)) == 0:
                        yield ops
                        ops = []
            if trajectory is not None and call != len(trajectory):
                ops.append(Op(None, False, "trajectory"))
            yield ops
            ops = []

    def _zero_cocycle_control(self) -> Op:
        """The zero cocycle on g41 with module r01 fails (A_2), with a witness
        supported on Y only."""
        z = quadratic_cohomology.zero_cocycle(catalog.g41(), catalog.orthonormal_module([1]))
        report = quadratic_cohomology.check_admissible(z)
        cond = report.condition(2)
        ok = not report.overall and not cond.a_passed
        if ok:
            l0 = cond.a_witness[0]
            ok = l0[3] != 0 and all(c == 0 for c in l0[:3])
        return Op(None, ok, "control")

    def _sample(self, rg: random.Random, tag: str):
        """One sampler call; the last op is the solvable try, if any.  The
        kind of a try is its module tag."""
        module = catalog.module_for_tag(tag)
        l = self.algebra
        n, m = l.dim, module.dim
        d2 = cochain_complex.differential_matrix(l, module, 2)
        closed = exact_linalg.kernel_basis(d2)
        d3 = cochain_complex.differential_matrix(l, None, 3)
        ops = []
        for _ in range(TRIES_PER_CALL):
            start = clock()
            total = exact_linalg.zero_vector(d2.cols)
            for vec in closed:
                coeff = Fraction(rg.randint(-4, 4), rg.randint(1, 3))
                if coeff:
                    total = exact_linalg.vec_add(total, exact_linalg.vec_scale(coeff, vec))
            alpha = cochain_from_vector(total, n, 2, m, False)
            rhs = cochain_to_vector(quadratic_cohomology.half_wedge_square(module, alpha))
            solution = exact_linalg.solve_affine(d3, rhs)
            latency = clock() - start
            self.counters["tries"] += 1
            if solution is None:
                ops.append(Op(latency, True, tag, start))
                continue
            self.counters["solvable"] += 1
            ops.append(Op(latency, self._rejected(module, alpha, solution[0]), tag, start))
            return ops, True
        return ops, False

    def _rejected(self, module, alpha, particular) -> bool:
        """The sampled pair is a cocycle and fails (A_2) or (B_2)."""
        gamma = cochain_from_vector(particular, self.algebra.dim, 3, 1, True)
        try:
            z = quadratic_cohomology.QuadraticCocycle(self.algebra, module, alpha, gamma)
        except quadratic_cohomology.CocycleError:
            return False
        last = quadratic_cohomology.check_admissible(z).condition(2)
        return not (last.a_passed and last.b_passed)

    @staticmethod
    def details(ops, elapsed_s, cycle_s):
        lat = latencies_ms(ops)
        return [
            ("reject.tries_per_s", len(lat) / elapsed_s, "tries/s"),
            ("reject.try_p50_ms", percentile(lat, 50), "ms"),
            ("reject.try_p99_ms", percentile(lat, 99), "ms"),
        ]


# ---------------------------------------------------------------------------
# scale
# ---------------------------------------------------------------------------


def heisenberg(k: int) -> lie_core.LieAlgebra:
    """h_{2k+1}: [X_i, Y_i] = Z."""
    n = 2 * k + 1
    z = exact_linalg.unit_vector(n, n - 1)
    return lie_core.LieAlgebra(n, {(i, k + i): z for i in range(k)})


def filiform(n: int) -> lie_core.LieAlgebra:
    """The standard filiform algebra: [X1, X_i] = X_{i+1} for 1 < i < n."""
    unit = exact_linalg.unit_vector
    return lie_core.LieAlgebra(n, {(0, i): unit(n, i + 1) for i in range(1, n - 1)})


class Scale(Workload):
    """A fixed ladder of few, large inputs; one cycle is one pass."""

    name = "scale"

    def __init__(self, root: Path, seed: int, expected: dict, tiny: bool = False, in_process: bool = False) -> None:
        k, f, a = (2, 5, 6) if tiny else (7, 12, 40)
        self.expected = expected["scale"]
        self.module = catalog.orthonormal_module([1, 1])
        self.doubles = [("T*h_%d" % (2 * k + 1), heisenberg(k)), ("T*fil_%d" % f, filiform(f))]
        # Abelian by construction, so the Jacobi check is left to verify_metric.
        self.verify_name = "verify_ab%d" % a
        self.metric = double_construction.MetricLieAlgebra(
            lie_core.LieAlgebra(a, {}, validate=False), exact_linalg.Matrix.identity(a)
        )

    def cycles(self):
        while True:
            ops = []
            for name, algebra in self.doubles:
                start = clock()
                z = quadratic_cohomology.zero_cocycle(algebra, self.module)
                fp = double_construction.fingerprint(double_construction.build_double(z))
                latency = clock() - start
                ops.append(Op(latency, fingerprint_text(fp) == self.expected[name], name, start))
            start = clock()
            report = double_construction.verify_metric(self.metric)
            ops.append(Op(clock() - start, report.ok, self.verify_name, start))
            yield ops

    def details(self, ops, elapsed_s, cycle_s):
        verify = [op.latency_s for op in ops if op.label == self.verify_name]
        return [
            ("scale.pass_s", percentile(cycle_s, 50), "s"),
            ("scale.verify40_s", percentile(verify, 50), "s"),
        ]


# ---------------------------------------------------------------------------
# cli
# ---------------------------------------------------------------------------


class Cli(Workload):
    """Rounds of single-document commands, one op per command.

    Each command runs in its own ``python -m metriclie.cli`` process, or,
    for the traced run, as an in-process ``cli.main`` call.  ``double``
    writes a metric document and ``verify`` reads the same one back.
    """

    name = "cli"

    def __init__(self, root: Path, seed: int, expected: dict, tiny: bool = False, in_process: bool = False) -> None:
        self.root = root
        self.expected = expected["cli"]
        self.in_process = in_process
        self.tmp = root / ".perfbench_tmp" / str(os.getpid())
        self.tmp.mkdir(parents=True, exist_ok=True)
        self.out = self.tmp / "double.json"
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(root / "src"), os.environ.get("PYTHONPATH")) if p
        )

    def commands(self):
        return [
            ("double", ["double", "cocycles/g64_quad.json", "--out", str(self.out)]),
            ("verify", ["verify", str(self.out)]),
            ("admissible", ["admissible", "cocycles/g64_quad.json"]),
            ("cohomology", ["cohomology", "algebras/g64.json", "--degree", "3"]),
        ]

    def _call(self, argv):
        if self.in_process:
            buffer = io.StringIO()
            with contextlib.redirect_stdout(buffer):
                code = cli.main(argv)
            return code, buffer.getvalue()
        done = subprocess.run(
            [sys.executable, "-m", "metriclie.cli", *argv],
            cwd=self.root,
            env=self.env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        return done.returncode, done.stdout

    def cycles(self):
        while True:
            self.out.unlink(missing_ok=True)
            ops = []
            for label, argv in self.commands():
                start = clock()
                code, stdout = self._call(argv)
                latency = clock() - start
                ops.append(Op(latency, code == 0 and self._output_ok(label, stdout), label, start))
            yield ops

    def _output_ok(self, label: str, stdout: str) -> bool:
        try:
            doc = json.loads(stdout)
        except json.JSONDecodeError:
            return False
        payload = doc.get("payload", {})
        if doc.get("kind") != "report" or payload.get("ok") is not True:
            return False
        if label == "double":
            return self.out.is_file() and digest(self.out.read_bytes()) == self.expected["double_digest"]
        if label == "cohomology":
            return payload.get("dim") == self.expected["cohomology_dim"]
        return True

    def close(self) -> None:
        shutil.rmtree(self.tmp, ignore_errors=True)
        with contextlib.suppress(OSError):
            self.tmp.parent.rmdir()

    @staticmethod
    def details(ops, elapsed_s, cycle_s):
        def p50_ms(label):
            return percentile([op.latency_s * 1e3 for op in ops if op.label == label], 50)

        return [
            ("cli.round_s", percentile(cycle_s, 50), "s"),
            ("cli.double_p50_ms", p50_ms("double"), "ms"),
            ("cli.verify_p50_ms", p50_ms("verify"), "ms"),
        ]


WORKLOADS = {w.name: w for w in (Catalog, Reject, Scale, Cli)}


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------


def latencies_ms(ops) -> list[float]:
    return [op.latency_s * 1e3 for op in ops if op.latency_s is not None]


def percentile(values, q: int) -> float:
    """The q-th percentile by linear interpolation between order statistics."""
    ordered = sorted(values)
    if not ordered:
        return float("nan")
    pos = (len(ordered) - 1) * q / 100
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)
