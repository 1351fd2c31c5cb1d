"""Machine-speed probes, to separate shared-machine noise from program time.

On a shared host the same code runs at very different speeds from one
minute to the next, and from one second to the next: process CPU time
follows wall time, so the slowdown is not time spent descheduled but a
slower core (a busy sibling thread, shared caches).  While a
:class:`SpeedProbe` is active, a timer signal interrupts the run every
100 ms and times a fixed pure-Python kernel of small ``Fraction`` vector
arithmetic, the instruction mix of the package.  Time between two probes
is rescaled to the reference speed, ``measured * REFERENCE_S / kernel
time``, with the mean kernel time of the two; the probes' own time is left
out.  The kernel is the benchmark's own code, so a change to the package
never changes it.
"""

from __future__ import annotations

import bisect
import signal
import sys
import textwrap
import time
from fractions import Fraction
from pathlib import Path

# The kernel time that normalized figures refer to: about its typical time
# on the reference machine (Intel Xeon at 2.1 GHz under KVM, Python 3.11.7).
REFERENCE_S = 0.0009
PROBE_EVERY_S = 0.1

clock = time.perf_counter


def kernel() -> tuple:
    v = tuple(Fraction(i % 5 - 2, 1 + i % 3) for i in range(24))
    total = (Fraction(0),) * 24
    for k in range(12):
        c = Fraction(k % 7 - 3, 1 + k % 2)
        total = tuple(a + c * b for a, b in zip(total, v))
    return total


def kernel_s(repeats: int = 2) -> float:
    """The fastest of a few kernel runs: the core's speed right now."""
    best = float("inf")
    for _ in range(repeats):
        start = clock()
        kernel()
        best = min(best, clock() - start)
    return best


CHILD_TEMPLATE = """\
import sys
try:
{body}
finally:
    sys.path.insert(0, {here!r})
    import probe
    sys.stderr.write("\\nkernel_s %r\\n" % probe.kernel_s(5))
"""


def child_command(body: str) -> list[str]:
    """A ``python -c`` command that runs ``body``, then writes the kernel
    time on its own core as the last line of its standard error."""
    code = CHILD_TEMPLATE.format(body=textwrap.indent(body, "    "), here=str(Path(__file__).parent))
    return [sys.executable, "-c", code]


def child_kernel_s(stderr: str) -> float:
    return float(stderr.rsplit("kernel_s", 1)[1])


class SpeedProbe:
    """Context manager that probes the kernel on a timer signal, and
    measures intervals of the run without the probes, as measured and at
    the reference speed."""

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.kernels: list[float] = []

    def probe(self, *_signal) -> None:
        start = clock()
        kernel_time = kernel_s()
        self.starts.append(start)
        self.ends.append(clock())
        self.kernels.append(kernel_time)

    def __enter__(self) -> "SpeedProbe":
        self.probe()
        self._previous = signal.signal(signal.SIGALRM, self.probe)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.probe()

    def work_s(self, start: float, end: float) -> tuple[float, float]:
        """The time in [start, end] outside the probes, as measured and at
        the reference speed."""
        raw = normalized = 0.0
        last = len(self.starts) - 1
        k = max(bisect.bisect_right(self.starts, start) - 1, 0)
        t = max(start, self.ends[k])
        while t < end:
            next_start = self.starts[k + 1] if k < last else end
            stop = min(next_start, end)
            if stop > t:
                kernel_time = (self.kernels[k] + self.kernels[min(k + 1, last)]) / 2
                raw += stop - t
                normalized += (stop - t) * REFERENCE_S / kernel_time
            if k == last:
                break
            k += 1
            t = max(t, self.ends[k])
        return raw, normalized
