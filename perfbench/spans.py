"""In-memory spans for the traced run, recorded from outside the program.

The traced run wraps the public entry points of each layer for the
duration of the run (:func:`instrument`) and the workload drivers open
one root span per request.  Nothing inside the program changes; spans
sit at the layer boundaries:

========================  ==============================================
span                      wraps
========================  ==============================================
``request``               one client request (root; driver-owned)
``workloads.build``       ``Benchmark.flat`` / ``Benchmark.dp``
``sim.run``               ``Runner.run`` (nested build/store excluded
                          from its self time)
``store.load``            ``ResultStore.load``
``store.save``            ``ResultStore.save``
``service.submit``        ``await submit(...)`` (driver-owned)
``service.await``         ``await job`` (driver-owned)
========================  ==============================================

A span nests under the innermost open span *of the same thread and
asyncio task*.  Calls the program makes from its own worker threads or
scheduler tasks therefore become unparented spans rather than leaking
into whichever request happened to be open; they still count toward the
per-call layer numbers, not toward any request's self-time tree.
"""

from __future__ import annotations

import asyncio
import contextlib
import contextvars
import itertools
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional

#: Self-times of one request must sum to its root span within this many
#: seconds (they are equal by construction when spans nest properly; the
#: slack covers float rounding only).
SELF_TIME_EPSILON_S = 1e-6

#: Layer a span's self time is charged to (its name up to the first dot;
#: the root's own self time is the driver's).
ROOT = "request"
DRIVER = "driver"


def layer_of(name: str) -> str:
    return DRIVER if name == ROOT else name.split(".", 1)[0]


@dataclass
class Span:
    id: int
    name: str
    start: float
    parent: Optional[int]
    request: Optional[int]  # id shared by one request's spans
    owner: tuple  # (thread id, task id): nesting never crosses it
    end: Optional[float] = None
    attrs: Dict[str, object] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return (self.end if self.end is not None else self.start) - self.start

    def to_dict(self) -> dict:
        return {
            "id": self.id,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "request": self.request,
            **({"attrs": self.attrs} if self.attrs else {}),
        }


def _owner() -> tuple:
    try:
        task = asyncio.current_task()
    except RuntimeError:  # no running loop in this thread
        task = None
    return (threading.get_ident(), id(task) if task is not None else None)


class SpanRecorder:
    """Collects spans in memory; written out once the run ends."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._current: contextvars.ContextVar[Optional[Span]] = (
            contextvars.ContextVar("perfbench_span", default=None)
        )

    def _open(self, name: str, start: float, root: bool) -> Span:
        owner = _owner()
        parent = None if root else self._current.get()
        if parent is not None and (parent.end is not None or parent.owner != owner):
            parent = None
        with self._lock:
            span_id = next(self._ids)
            span = Span(
                id=span_id,
                name=name,
                start=start,
                parent=parent.id if parent is not None else None,
                request=(
                    span_id if root else (parent.request if parent else None)
                ),
                owner=owner,
            )
            self.spans.append(span)
        return span

    @contextlib.contextmanager
    def span(
        self, name: str, *, root: bool = False, start: Optional[float] = None
    ) -> Iterator[Span]:
        """Open a span (a request root with ``root=True``) around a block.

        ``start`` backdates a root to the request's due time, so open-loop
        lateness shows up as the driver's self time.
        """
        span = self._open(
            name, time.perf_counter() if start is None else start, root
        )
        token = self._current.set(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._current.reset(token)

    def named(self, name: str) -> List[Span]:
        return [s for s in self.spans if s.name == name and s.end is not None]


def _covered(start: float, end: float, intervals) -> float:
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    total = 0.0
    cursor = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, cursor), min(hi, end)
        if hi > lo:
            total += hi - lo
            cursor = hi
    return total


def self_times(spans: List[Span]) -> Dict[int, float]:
    """Span id -> duration minus the part its children cover."""
    children: Dict[int, List[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    out = {}
    for span in spans:
        if span.end is None:
            continue
        kids = [(c.start, c.end) for c in children.get(span.id, []) if c.end]
        out[span.id] = span.duration - _covered(span.start, span.end, kids)
    return out


@dataclass
class RequestBreakdown:
    """Per-layer self time summed over every request tree."""

    root_s: float
    layer_self_s: Dict[str, float]
    #: Largest |sum of a request's self times - its root duration|.
    max_gap_s: float
    requests: int
    #: Requests whose gap exceeds :data:`SELF_TIME_EPSILON_S`.
    violations: int

    @property
    def ok(self) -> bool:
        return self.violations == 0


def breakdown(spans: List[Span]) -> RequestBreakdown:
    """Charge every request's self times to layers and check they sum."""
    selfs = self_times(spans)
    by_request: Dict[int, List[Span]] = {}
    for span in spans:
        if span.request is not None and span.end is not None:
            by_request.setdefault(span.request, []).append(span)
    layers: Dict[str, float] = {}
    root_total = 0.0
    max_gap = 0.0
    violations = 0
    for request_id, members in by_request.items():
        root = next(s for s in members if s.id == request_id)
        total = 0.0
        for span in members:
            layers[layer_of(span.name)] = (
                layers.get(layer_of(span.name), 0.0) + selfs[span.id]
            )
            total += selfs[span.id]
        root_total += root.duration
        gap = abs(total - root.duration)
        max_gap = max(max_gap, gap)
        violations += gap > SELF_TIME_EPSILON_S
    return RequestBreakdown(root_total, layers, max_gap, len(by_request), violations)


def sim_counts(result) -> Dict[str, int]:
    """Work counts of one simulated run, read from ``SimResult.stats``."""
    stats = result.stats
    launched = stats.child_kernels_launched
    return {
        "ctas": sum(k.num_ctas for k in stats.kernels.values()),
        "kernels": len(stats.kernels),
        "launched": launched,
        "decisions": (
            launched
            + stats.child_kernels_declined
            + stats.child_kernels_consolidated
            + stats.child_kernels_aggregated
            + stats.child_kernels_reused
        ),
    }


@contextlib.contextmanager
def instrument(recorder: SpanRecorder) -> Iterator[None]:
    """Wrap the layers' public entry points with spans, then restore them.

    Patches class attributes only for the duration of the block, so the
    untraced run executes the program's own functions untouched.
    """
    from repro.api import ResultStore, Runner
    from repro.workloads.base import Benchmark

    def wrap(owner, attr, name, note=None):
        original = getattr(owner, attr)

        def traced(*args, **kwargs):
            with recorder.span(name) as span:
                result = original(*args, **kwargs)
                if note is not None:
                    note(span, result)
                return result

        traced.__wrapped__ = original
        setattr(owner, attr, traced)
        return owner, attr, original

    def note_load(span, result):
        span.attrs["hit"] = result is not None

    def note_run(span, result):
        span.attrs.update(sim_counts(result))

    patches = [
        wrap(Benchmark, "flat", "workloads.build"),
        wrap(Benchmark, "dp", "workloads.build"),
        wrap(Runner, "run", "sim.run", note_run),
        wrap(ResultStore, "load", "store.load", note_load),
        wrap(ResultStore, "save", "store.save"),
    ]
    try:
        yield
    finally:
        for owner, attr, original in reversed(patches):
            setattr(owner, attr, original)
