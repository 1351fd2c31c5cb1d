"""Timing wrappers installed around the public functions of ``metriclie``.

The package is not edited: :class:`Tracer` replaces each public function
with a wrapper in every ``metriclie.*`` module namespace that holds a
reference to it, so calls made through ``from .x import f`` bindings are
counted as well, and puts the originals back on exit.  Spans are not kept
one by one; each function accumulates its call count and its self time,
which is the span time minus the time covered by the spans of the traced
functions it called.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

MODULES = (
    "exact_linalg",
    "lie_core",
    "cochain_complex",
    "quadratic_cohomology",
    "double_construction",
    "catalog",
    "schema",
    "cli",
)

# Work counters beside the calls, from a call's arguments and result:
# matrix cells given to rref, and bytes of the documents written.
EXTRAS = {
    ("exact_linalg", "rref"): lambda args, result: args[0].rows * args[0].cols,
    ("schema", "dumps_document"): lambda args, result: len(result.encode()),
}


class Stat:
    __slots__ = ("calls", "self_s", "extra")

    def __init__(self) -> None:
        self.calls = 0
        self.self_s = 0.0
        self.extra = 0


class Tracer:
    """Context manager that traces every public ``metriclie`` function."""

    def __init__(self) -> None:
        self.stats: dict[tuple[str, str], Stat] = {}
        # One accumulator of child span time per open span; the first one
        # collects the spans that the benchmark itself opened.
        self._stack: list[list[float]] = [[0.0]]
        self._restore: list[tuple[object, str, object]] = []

    @property
    def top_level_s(self) -> float:
        return self._stack[0][0]

    def _wrap(self, key: tuple[str, str], fn):
        stat = self.stats.setdefault(key, Stat())
        stack = self._stack
        clock = time.perf_counter
        measure = EXTRAS.get(key)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span = clock() - start
                stack.pop()
                stack[-1][0] += span
                stat.calls += 1
                stat.self_s += span - frame[0]
            if measure is not None:
                stat.extra += measure(args, result)
            return result

        return wrapper

    def _targets(self):
        for short in MODULES:
            module = sys.modules["metriclie." + short]
            for name, value in vars(module).items():
                if (
                    not name.startswith("_")
                    and inspect.isfunction(value)
                    and value.__module__ == module.__name__
                ):
                    yield (short, name), value

    def __enter__(self) -> "Tracer":
        namespaces = [
            m for name, m in sys.modules.items()
            if name == "metriclie" or name.startswith("metriclie.")
        ]
        for key, original in list(self._targets()):
            wrapper = self._wrap(key, original)
            for namespace in namespaces:
                for name, value in list(vars(namespace).items()):
                    if value is original:
                        self._restore.append((namespace, name, value))
                        setattr(namespace, name, wrapper)
        matrix = sys.modules["metriclie.exact_linalg"].Matrix
        original = matrix.__matmul__
        self._restore.append((matrix, "__matmul__", original))
        matrix.__matmul__ = self._wrap(("exact_linalg", "matmul"), original)
        return self

    def __exit__(self, *exc) -> None:
        for owner, name, value in reversed(self._restore):
            setattr(owner, name, value)
        self._restore.clear()
