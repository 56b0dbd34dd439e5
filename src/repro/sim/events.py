"""Discrete-event core used by the GPU simulator.

A bucketed calendar queue with stable FIFO ordering among same-time
events and O(1) lazy cancellation.  The simulator advances a cycle-valued
clock from event to event; there is no per-cycle stepping anywhere in the
system, which is what keeps a Python reproduction of a multi-million-cycle
GPU run tractable.

Events scheduled for the same timestamp share one bucket (appended in
``seq`` order); a heap orders the distinct timestamps, so a burst of
same-time events costs one heap operation in total and ``run`` drains
each bucket in one sweep.  Cancellation is lazy: dead entries are skipped
on delivery, and the buckets are compacted whenever cancelled entries
outnumber live ones, so long runs that cancel and reschedule per-SMX
timers millions of times cannot bloat the queue beyond 2x its live size.

Delivery order is exactly ``(time, seq)``, the order of the per-event
reference queue (:class:`repro.check.reference.ReferenceEventQueue`):
``seq`` is globally monotonic, so an event scheduled *during* a batch at
the current timestamp lands in a fresh bucket that is drained next.
"""

from __future__ import annotations

import heapq
from typing import Callable, Dict, List, Optional

from repro.errors import SimulationError

#: Below this many queued entries compaction is not worth the rebuild.
_COMPACT_MIN = 64


class Event:
    """A scheduled callback.  ``cancel()`` marks it dead in O(1)."""

    __slots__ = ("time", "seq", "callback", "cancelled", "_queue")

    def __init__(self, time: float, seq: int, callback: Callable[[], None]):
        self.time = time
        self.seq = seq
        self.callback = callback
        self.cancelled = False
        self._queue: Optional["EventQueue"] = None

    def cancel(self) -> None:
        if not self.cancelled:
            self.cancelled = True
            queue = self._queue
            if queue is not None:
                queue._note_cancelled()

    def __lt__(self, other: "Event") -> bool:
        return (self.time, self.seq) < (other.time, other.seq)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "live"
        return f"Event(t={self.time}, seq={self.seq}, {state})"


class EventQueue:
    """Calendar/bucket event queue draining whole same-time batches.

    Events scheduled for the same timestamp share one bucket (appended
    in ``seq`` order, which *is* arrival order because ``seq`` is
    monotonic); a heap orders the distinct timestamps.  ``pop`` drains
    the earliest bucket once and then serves its events in O(1), so a
    burst of same-time events costs one heap operation total.

    Drained events are detached from the queue (``_queue = None``):
    cancelling one after the drain no longer perturbs the dead-entry
    counter, and the cancellation is honoured at delivery time instead —
    observably identical to a per-event queue, where the entry would
    still be queued and be skipped on pop.
    """

    def __init__(self) -> None:
        self._buckets: Dict[float, List[Event]] = {}
        self._times: List[float] = []
        self._size = 0  # events currently held in buckets (incl. cancelled)
        self._next_seq = 0
        self._cancelled = 0  # dead entries still sitting in buckets
        self.now: float = 0.0
        # The drained-but-undelivered remainder of the current batch.
        self._pending: List[Event] = []
        self._pending_pos = 0

    def __len__(self) -> int:
        n = self._size - self._cancelled
        pending = self._pending
        for i in range(self._pending_pos, len(pending)):
            if not pending[i].cancelled:
                n += 1
        return n

    def schedule(self, time: float, callback: Callable[[], None]) -> Event:
        """Schedule ``callback`` at absolute ``time`` (>= now)."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule event at t={time} before now={self.now}"
            )
        seq = self._next_seq
        self._next_seq = seq + 1
        event = Event(time, seq, callback)
        event._queue = self
        bucket = self._buckets.get(time)
        if bucket is None:
            self._buckets[time] = [event]
            heapq.heappush(self._times, time)
        else:
            bucket.append(event)
        self._size += 1
        return event

    def schedule_in(self, delay: float, callback: Callable[[], None]) -> Event:
        """Schedule ``callback`` after ``delay`` cycles."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        return self.schedule(self.now + delay, callback)

    def _note_cancelled(self) -> None:
        """A scheduled event was cancelled; compact if mostly dead."""
        self._cancelled += 1
        if self._size >= _COMPACT_MIN and self._cancelled * 2 > self._size:
            buckets: Dict[float, List[Event]] = {}
            size = 0
            for time, bucket in self._buckets.items():
                live = [e for e in bucket if not e.cancelled]
                if live:
                    buckets[time] = live
                    size += len(live)
            self._buckets = buckets
            # A sorted list is a valid binary min-heap.
            self._times = sorted(buckets)
            self._size = size
            self._cancelled = 0

    def _drain_batch(self) -> Optional[List[Event]]:
        """Detach and return all live events at the earliest timestamp."""
        times = self._times
        buckets = self._buckets
        while times:
            time = heapq.heappop(times)
            bucket = buckets.pop(time)
            self._size -= len(bucket)
            batch: Optional[List[Event]] = None
            for event in bucket:
                event._queue = None
                if event.cancelled:
                    self._cancelled -= 1
                elif batch is None:
                    batch = [event]
                else:
                    batch.append(event)
            if batch is not None:
                self.now = time
                return batch
        return None

    def pop(self) -> Optional[Event]:
        """Pop the next live event, advancing the clock; None if drained."""
        pending = self._pending
        i = self._pending_pos
        n = len(pending)
        while i < n:
            event = pending[i]
            i += 1
            if not event.cancelled:
                self._pending_pos = i
                return event
        if n:
            self._pending = []
        self._pending_pos = 0
        batch = self._drain_batch()
        if batch is None:
            return None
        self._pending = batch
        self._pending_pos = 1
        return batch[0]

    def pop_batch(self) -> Optional[List[Event]]:
        """All live events sharing the next timestamp, advancing the clock.

        Callers must re-check ``event.cancelled`` before executing each
        event: a callback earlier in the batch may cancel a later one.
        """
        first = self.pop()
        if first is None:
            return None
        batch = [first]
        pending = self._pending
        for i in range(self._pending_pos, len(pending)):
            event = pending[i]
            if not event.cancelled:
                batch.append(event)
        self._pending = []
        self._pending_pos = 0
        return batch

    def peek_time(self) -> Optional[float]:
        """Time of the next live event without popping it."""
        pending = self._pending
        for i in range(self._pending_pos, len(pending)):
            if not pending[i].cancelled:
                return self.now
        times = self._times
        buckets = self._buckets
        while times:
            time = times[0]
            bucket = buckets[time]
            for event in bucket:
                if not event.cancelled:
                    return time
            heapq.heappop(times)
            del buckets[time]
            self._size -= len(bucket)
            self._cancelled -= len(bucket)
            for event in bucket:
                event._queue = None
        return None

    def run(self, max_events: Optional[int] = None) -> int:
        """Drain the queue batch-wise, running callbacks; returns count.

        Execution order and the budget-exhaustion check are identical to
        a per-event pop loop; cancellations that land after an event was
        drained are honoured at delivery time.
        """
        executed = 0
        pending = self._pending
        pos = self._pending_pos
        if pos < len(pending):
            # Remainder left by an external pop() before run() was called.
            batch: Optional[List[Event]] = pending[pos:]
            self._pending = []
            self._pending_pos = 0
        else:
            batch = self._drain_batch()
        drain = self._drain_batch
        unlimited = max_events is None
        while batch is not None:
            for event in batch:
                if event.cancelled:
                    continue
                if not unlimited and executed >= max_events:
                    raise SimulationError(
                        f"event budget exhausted after {executed} events "
                        "(likely a livelock in the simulated system)"
                    )
                event.callback()
                executed += 1
            batch = drain()
        if not unlimited and executed >= max_events:
            raise SimulationError(
                f"event budget exhausted after {executed} events "
                "(likely a livelock in the simulated system)"
            )
        return executed
