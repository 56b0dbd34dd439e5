"""Unit tests for the discrete-event core.

The ordering-contract tests check the calendar queue against the
per-event :class:`~repro.check.reference.ReferenceEventQueue`: identical
delivery order on ties, under cancellation, under schedule-during-run,
and identical budget semantics.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.check.reference import ReferenceEventQueue
from repro.errors import SimulationError
from repro.sim.events import EventQueue

QUEUES = {"engine": EventQueue, "reference": ReferenceEventQueue}


class TestScheduling:
    def test_runs_in_time_order(self):
        queue = EventQueue()
        order = []
        queue.schedule(30, lambda: order.append("c"))
        queue.schedule(10, lambda: order.append("a"))
        queue.schedule(20, lambda: order.append("b"))
        queue.run()
        assert order == ["a", "b", "c"]

    def test_same_time_events_run_fifo(self):
        queue = EventQueue()
        order = []
        for tag in "abcde":
            queue.schedule(5.0, lambda t=tag: order.append(t))
        queue.run()
        assert order == list("abcde")

    def test_clock_advances_to_event_time(self):
        queue = EventQueue()
        seen = []
        queue.schedule(42.5, lambda: seen.append(queue.now))
        queue.run()
        assert seen == [42.5]
        assert queue.now == 42.5

    def test_schedule_in_is_relative(self):
        queue = EventQueue()
        times = []
        queue.schedule(10, lambda: queue.schedule_in(5, lambda: times.append(queue.now)))
        queue.run()
        assert times == [15]

    def test_cannot_schedule_in_the_past(self):
        queue = EventQueue()
        queue.schedule(10, lambda: None)
        queue.pop()
        with pytest.raises(SimulationError):
            queue.schedule(5, lambda: None)

    def test_negative_delay_rejected(self):
        with pytest.raises(SimulationError):
            EventQueue().schedule_in(-1, lambda: None)


class TestCancellation:
    def test_cancelled_event_does_not_run(self):
        queue = EventQueue()
        ran = []
        event = queue.schedule(10, lambda: ran.append(1))
        event.cancel()
        queue.run()
        assert ran == []

    def test_len_ignores_cancelled(self):
        queue = EventQueue()
        event = queue.schedule(10, lambda: None)
        queue.schedule(20, lambda: None)
        assert len(queue) == 2
        event.cancel()
        assert len(queue) == 1

    def test_peek_time_skips_cancelled(self):
        queue = EventQueue()
        first = queue.schedule(10, lambda: None)
        queue.schedule(20, lambda: None)
        first.cancel()
        assert queue.peek_time() == 20

    def test_peek_time_empty(self):
        assert EventQueue().peek_time() is None


class TestRun:
    def test_run_returns_executed_count(self):
        queue = EventQueue()
        for i in range(5):
            queue.schedule(i, lambda: None)
        assert queue.run() == 5

    def test_events_scheduled_during_run_execute(self):
        queue = EventQueue()
        order = []

        def first():
            order.append("first")
            queue.schedule_in(1, lambda: order.append("second"))

        queue.schedule(0, first)
        queue.run()
        assert order == ["first", "second"]

    def test_budget_exhaustion_raises(self):
        queue = EventQueue()

        def rearm():
            queue.schedule_in(1, rearm)

        queue.schedule(0, rearm)
        with pytest.raises(SimulationError):
            queue.run(max_events=100)

    def test_pop_on_empty_returns_none(self):
        assert EventQueue().pop() is None


class TestDrainedFastPath:
    """Dead entries are dropped at delivery or by compaction."""

    def test_pop_still_skips_dead_entries_when_live_ones_remain(self):
        queue = EventQueue()
        dead = queue.schedule(1.0, lambda: None)
        live = queue.schedule(2.0, lambda: None)
        dead.cancel()
        assert queue.pop() is live
        assert queue._cancelled == 0

    def test_compaction_threshold_rebuilds_heap(self):
        queue = EventQueue()
        events = [queue.schedule(float(i), lambda: None) for i in range(64)]
        for event in events[:33]:  # 33 * 2 > 64 crosses the threshold
            event.cancel()
        assert queue._cancelled == 0  # compaction fired and reset it
        assert queue._size == 31
        assert len(queue._times) == 31  # the timestamp heap was rebuilt
        assert len(queue) == 31


# ---------------------------------------------------------------------------
# Ordering contract against the per-event reference queue
# ---------------------------------------------------------------------------
@st.composite
def tie_heavy_scripts(draw):
    """A schedule/cancel script with deliberately heavy time collisions."""
    n = draw(st.integers(min_value=1, max_value=40))
    # Few distinct timestamps -> most events tie, exercising batch drains.
    times = draw(
        st.lists(
            st.sampled_from([0.0, 1.0, 1.0, 2.5, 2.5, 2.5, 7.0, 100.0]),
            min_size=n, max_size=n,
        )
    )
    cancels = draw(
        st.lists(
            st.integers(min_value=0, max_value=n - 1),
            min_size=0, max_size=n // 2, unique=True,
        )
    )
    return times, cancels


@given(script=tie_heavy_scripts())
@settings(max_examples=80, deadline=None)
def test_queue_matches_reference_on_ties(script):
    times, cancels = script
    order = {name: [] for name in QUEUES}
    queues = {name: cls() for name, cls in QUEUES.items()}
    for name, queue in queues.items():
        handles = [
            queue.schedule(t, lambda n=name, i=i: order[n].append(i))
            for i, t in enumerate(times)
        ]
        for index in cancels:
            handles[index].cancel()
        queue.run()
    assert order["engine"] == order["reference"]
    assert queues["engine"].now == queues["reference"].now


def test_tie_drain_preserves_seq_order_for_midbatch_schedules():
    """Same-time events scheduled *during* a batch run after it.

    ``seq`` is globally monotonic, so a new event at the current
    timestamp must sort after every already-scheduled tie — the calendar
    queue delivers it from a fresh bucket, the reference from a later
    min-scan; both in the same place.
    """
    for name, cls in QUEUES.items():
        queue = cls()
        order = []

        def first(queue=queue, order=order):
            order.append("first")
            queue.schedule(5.0, lambda: order.append("tail"))

        queue.schedule(5.0, first)
        queue.schedule(5.0, lambda: order.append("second"))
        queue.run()
        assert order == ["first", "second", "tail"], name


def test_earlier_event_cancelling_later_tie_is_honoured():
    for name, cls in QUEUES.items():
        queue = cls()
        order = []
        later = []

        def first(order=order, later=later):
            order.append("first")
            later[0].cancel()

        queue.schedule(5.0, first)
        later.append(queue.schedule(5.0, lambda: order.append("dead")))
        queue.schedule(5.0, lambda: order.append("third"))
        queue.run()
        assert order == ["first", "third"], name


def test_budget_exhaustion_matches_reference_semantics():
    for name, cls in QUEUES.items():
        queue = cls()

        def rearm(queue=queue):
            queue.schedule_in(1, rearm)

        queue.schedule(0, rearm)
        with pytest.raises(SimulationError, match="event budget exhausted"):
            queue.run(max_events=100)

    # The budget is checked before the pop: an exactly-consumed budget
    # raises even when the queue is empty, on both implementations.
    for name, cls in QUEUES.items():
        queue = cls()
        queue.schedule(0, lambda: None)
        with pytest.raises(SimulationError, match="after 1 events"):
            queue.run(max_events=1)


def test_len_and_peek_track_cancellation():
    for name, cls in QUEUES.items():
        queue = cls()
        events = [queue.schedule(float(i % 3), lambda: None) for i in range(9)]
        assert len(queue) == 9, name
        assert queue.peek_time() == 0.0, name
        for event in events[::3]:  # i = 0, 3, 6: every event at t=0
            event.cancel()
        assert len(queue) == 6, name
        assert queue.peek_time() == 1.0, name
        assert queue.pop().time == 1.0, name


def test_fully_cancelled_queue_is_drained():
    queue = EventQueue()
    events = [queue.schedule(float(i), lambda: None) for i in range(5)]
    for event in events:
        event.cancel()
    # Below _COMPACT_MIN nothing compacts at cancel time...
    assert queue._size == 5
    assert len(queue) == 0
    # ...and the dead buckets are dropped once the queue is polled.
    assert queue.pop() is None
    assert queue.peek_time() is None
    assert queue._size == 0 and queue._cancelled == 0


def test_compaction_drops_dead_entries_and_keeps_order():
    queue = EventQueue()
    order = []
    events = [
        queue.schedule(float(i % 8), lambda i=i: order.append(i))
        for i in range(64)
    ]
    for event in events[1::2]:
        event.cancel()
    events[0].cancel()  # the 33rd cancel: 33 * 2 > 64 crosses the threshold
    assert queue._cancelled == 0  # compaction fired and reset the counter
    assert queue._size == 31
    assert len(queue) == 31
    queue.run()
    # Surviving events still run in (time, seq) order.
    assert order == sorted(
        (i for i in range(2, 64, 2)),
        key=lambda i: (i % 8, i),
    )


def test_schedule_in_past_rejected():
    for name, cls in QUEUES.items():
        queue = cls()
        queue.schedule(10.0, lambda: None)
        assert queue.pop() is not None, name
        with pytest.raises(SimulationError):
            queue.schedule(5.0, lambda: None)
