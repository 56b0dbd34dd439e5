"""Host-speed calibration: a fixed kernel timed beside the program.

The benchmark shares a host with other tenants, and that host's speed
drifts by 1.2-1.9x over tens of seconds to minutes (CPU time equals
wall time throughout, so the CPU itself runs slower).  The closed
loops therefore report their times in *normalised seconds*: host
seconds divided by the run's :func:`slowdown`, i.e. about the seconds
the run would have taken on the host at its nominal speed.  Their rates
scale the other way.

The kernel owes nothing to the program (it imports only the standard
library and numpy) and runs in a child process of its own
(:class:`Calibrator`), so a change to the program cannot change it, and
its memory and garbage never mix with the program's: a faster program
still reads faster, and ``peak_rss_mb`` is the program's alone.  It
mixes the three kinds of work a request does -- an object-heavy event
queue, random reads over a working set larger than a core's caches,
and numpy integer sorting -- because a slow phase slows each of them by
a different amount.

Samples are taken only while the program is idle (between closed-loop
requests, and right after each set-up), so work the program left
running in the background would slow the kernel and flatter the
figures; the report prints host seconds beside the normalised ones so
that such a case shows.

Run as a script, this file is the child: it times one kernel pass per
line read from standard input and prints the seconds, until EOF.
"""

from __future__ import annotations

import heapq
import random
import statistics
import subprocess
import sys
import time
from typing import List, Sequence

import numpy as np

#: Nominal seconds of one :func:`kernel` pass: the median on a 2-vCPU
#: Xeon VM.  Only a scale: both sides of a comparison divide by it.
REFERENCE_S = 0.050
#: How strongly request time follows kernel time.  A slow phase slows
#: the kernel more than the program.  On the same VM, log(request time
#: / that config's median) against log(kernel time), both as medians
#: over windows of 18 requests, had slope 0.75 (correlation 0.95) over
#: 369 cold requests and 0.74 (0.81) over 216 warm runs; across five
#: separate warm-engine runs it was about 0.5.  0.6 keeps the error of
#: either estimate within 10% over a 2x range of kernel times.
ELASTICITY = 0.6

_WORKING_SET = 250_000
_READS = 60_000
_big: List[int] = []
_reads: List[int] = []


class _Event:
    __slots__ = ("t", "kind", "ref")

    def __init__(self, t, kind, ref):
        self.t, self.kind, self.ref = t, kind, ref


def _events(n: int = 15_000) -> int:
    rng = random.Random(7)
    queue: list = []
    counts: dict = {}
    for i in range(n):
        heapq.heappush(queue, (rng.random(), i, _Event(i, i % 5, None)))
        if len(queue) > 256:
            _, _, event = heapq.heappop(queue)
            counts[event.kind] = counts.get(event.kind, 0) + 1
    return len(counts)


def _memory() -> int:
    if not _big:
        _big.extend(range(_WORKING_SET))
        _reads.extend(random.Random(3).choices(range(_WORKING_SET), k=_READS))
    total = 0
    for i in _reads:
        total += _big[i]
    return total


def _numpy() -> int:
    edges = np.random.default_rng(5).integers(0, 200_000, size=(80_000, 2))
    keys = np.unique(edges[:, 0] * 200_000 + edges[:, 1])
    return int(np.argsort(keys[::-1], kind="stable")[0])


def kernel() -> None:
    """One pass of the fixed calibration work."""
    _events()
    _memory()
    _numpy()


def sample() -> float:
    """Seconds one :func:`kernel` pass takes right now."""
    started = time.perf_counter()
    kernel()
    return time.perf_counter() - started


class Calibrator:
    """A child process that times one kernel pass per :meth:`sample` call.

    Use as a context manager: leaving it closes the child's input and
    waits for it to exit.
    """

    def __init__(self) -> None:
        self._child = subprocess.Popen(
            [sys.executable, __file__],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        self.sample()  # the first pass allocates the working set

    def sample(self) -> float:
        self._child.stdin.write("\n")
        self._child.stdin.flush()
        line = self._child.stdout.readline()
        if not line:
            raise RuntimeError("the calibration child exited")
        return float(line)

    def close(self) -> None:
        try:
            self._child.stdin.close()
            self._child.wait(timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            self._child.kill()
            self._child.wait()

    def __enter__(self) -> "Calibrator":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def host_slowdown(passes: int) -> float:
    """:func:`slowdown` over ``passes`` samples taken now."""
    with Calibrator() as calibrator:
        return slowdown([calibrator.sample() for _ in range(passes)])


def slowdown(samples: Sequence[float]) -> float:
    """How much slower than nominal the host ran the program.

    ``(median sample / REFERENCE_S) ** ELASTICITY``; 1.0 when there are
    no samples (nothing to correct by).
    """
    if not samples:
        return 1.0
    return (statistics.median(samples) / REFERENCE_S) ** ELASTICITY


def _serve() -> None:
    for _ in sys.stdin:
        print(sample(), flush=True)


if __name__ == "__main__":
    _serve()
