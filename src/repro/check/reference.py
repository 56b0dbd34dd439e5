"""Naive reference implementations for differential engine validation.

The production engine (:class:`repro.sim.engine.GPUSimulator`) steps in
batches: a bucketed calendar event queue, SMX progress in parallel lists
with a cached horizon, a GMU that skips fruitless dispatch scans, per-spec
dispatch caches and shared child-grid templates, a dict-based L2 LRU fed
``range`` footprints.  Each of those gets a deliberately naive counterpart
here with *identical semantics*: a linear-scan event list, object-state
SMXs whose horizons are recomputed from scratch, a GMU that always scans,
a list-based LRU fed materialized line lists, and per-event dispatch that
builds every CTA and child spec through the validating constructors.
:func:`run_differential` runs the same application through both engines
and asserts the event streams are identical event-for-event and the final
stats are bit-identical, which is how an ordering bug in an optimization
surfaces even when the makespan happens to cancel out.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.check.golden import GoldenMismatch, canonical_events, diff_traces
from repro.errors import SimulationError
from repro.obs.tracer import KERNEL_FIRST_DISPATCH, Tracer
from repro.sim.config import WARP_SIZE, GPUConfig
from repro.sim.engine import GPUSimulator
from repro.sim.events import Event
from repro.sim.gmu import GMU
from repro.sim.instances import (
    EPSILON,
    CTAInstance,
    KernelInstance,
    KernelState,
    PendingDecision,
)
from repro.sim.kernel import Application, ChildRequest, spec_from_request
from repro.sim.memory import MemorySystem, Region, SetAssociativeCache


class ReferenceEventQueue:
    """List-based event queue: linear min-scan, eager removal.

    Same contract as :class:`repro.sim.events.EventQueue` (stable FIFO
    among same-time events via the sequence number, monotone clock), none
    of the heap/compaction machinery.  O(n) per pop — only for tests.
    """

    def __init__(self) -> None:
        self._events: List[Event] = []
        self._next_seq = 0
        self.now: float = 0.0

    def __len__(self) -> int:
        return sum(1 for e in self._events if not e.cancelled)

    def schedule(self, time: float, callback: Callable[[], None]) -> Event:
        if time < self.now:
            raise SimulationError(
                f"cannot schedule event at t={time} before now={self.now}"
            )
        event = Event(time, self._next_seq, callback)
        self._next_seq += 1
        event._queue = self
        self._events.append(event)
        return event

    def schedule_in(self, delay: float, callback: Callable[[], None]) -> Event:
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        return self.schedule(self.now + delay, callback)

    def _note_cancelled(self) -> None:
        """Eagerly drop cancelled events (the naive strategy)."""
        self._events = [e for e in self._events if not e.cancelled]

    def pop(self) -> Optional[Event]:
        events = self._events
        if not events:
            return None
        best = min(events, key=lambda e: (e.time, e.seq))
        events.remove(best)
        self.now = best.time
        return best

    def peek_time(self) -> Optional[float]:
        events = self._events
        if not events:
            return None
        return min(events, key=lambda e: (e.time, e.seq)).time

    def run(self, max_events: Optional[int] = None) -> int:
        executed = 0
        while True:
            if max_events is not None and executed >= max_events:
                raise SimulationError(
                    f"event budget exhausted after {executed} events "
                    "(likely a livelock in the simulated system)"
                )
            event = self.pop()
            if event is None:
                return executed
            event.callback()
            executed += 1


def _recomputed_target(cta: CTAInstance) -> float:
    """A CTA's next progress target, derived from scratch.

    The optimized :class:`SMX` trusts the incrementally maintained
    ``next_target``; the reference re-derives it every time from the
    decision list and the warp critical paths.
    """
    if cta.next_decision < len(cta.decisions):
        return cta.decisions[cta.next_decision].at_consumed
    return max(cta.warp_total)


class ReferenceSMX:
    """Object-state SMX: progress lives on the CTAs, horizons are rescanned.

    Same processor-sharing semantics as :class:`repro.sim.smx.SMX`, none
    of its parallel-array state, cached horizon or decision counter.
    """

    __slots__ = ("index", "config", "capacity", "resident", "used_threads",
                 "used_regs", "used_shmem", "used_warps", "_total_demand",
                 "_last_update")

    def __init__(self, index: int, config: GPUConfig):
        self.index = index
        self.config = config
        self.capacity = config.issue_width
        self.resident: List[CTAInstance] = []
        self.used_threads = 0
        self.used_regs = 0
        self.used_shmem = 0
        self.used_warps = 0
        self._total_demand = 0.0
        self._last_update = 0.0

    # ------------------------------------------------------------------
    # Resource accounting
    # ------------------------------------------------------------------
    def can_fit(self, *, threads: int, regs: int, shmem: int) -> bool:
        cfg = self.config
        return (
            len(self.resident) < cfg.max_ctas_per_smx
            and self.used_threads + threads <= cfg.max_threads_per_smx
            and self.used_regs + regs <= cfg.registers_per_smx
            and self.used_shmem + shmem <= cfg.shared_mem_per_smx
        )

    @property
    def scale(self) -> float:
        """Current uniform progress rate of resident CTAs (<= 1)."""
        if self._total_demand <= self.capacity:
            return 1.0
        return self.capacity / self._total_demand

    # ------------------------------------------------------------------
    # Progress integration
    # ------------------------------------------------------------------
    def advance(self, now: float) -> None:
        """Integrate progress of resident CTAs up to ``now``."""
        last = self._last_update
        if now <= last:
            if now - last < -EPSILON:
                raise SimulationError(
                    f"SMX {self.index} asked to advance backwards "
                    f"({last} -> {now})"
                )
            return
        if self.resident:
            step = self.scale * (now - last)
            for cta in self.resident:
                consumed = cta.consumed + step
                total = cta.total_work
                cta.consumed = consumed if consumed < total else total
        self._last_update = now

    def add(self, cta: CTAInstance, now: float) -> None:
        """Place a CTA on this SMX (caller must have checked ``can_fit``)."""
        if not self.can_fit(threads=cta.num_threads, regs=cta.regs, shmem=cta.shmem):
            raise SimulationError(f"CTA {cta!r} does not fit on SMX {self.index}")
        self.advance(now)
        cta.smx_index = self.index
        self.resident.append(cta)
        self.used_threads += cta.num_threads
        self.used_regs += cta.regs
        self.used_shmem += cta.shmem
        self.used_warps += cta.num_warps
        self._total_demand += cta.demand

    def remove(self, cta: CTAInstance, now: float) -> None:
        self.advance(now)
        try:
            self.resident.remove(cta)
        except ValueError:
            raise SimulationError(
                f"CTA {cta!r} not resident on SMX {self.index}"
            ) from None
        self.used_threads -= cta.num_threads
        self.used_regs -= cta.regs
        self.used_shmem -= cta.shmem
        self.used_warps -= cta.num_warps
        self._total_demand -= cta.demand
        if self._total_demand < EPSILON:
            self._total_demand = 0.0
        cta.smx_index = -1

    def refresh_demand(self, cta: CTAInstance, now: float) -> None:
        """Re-derive a resident CTA's demand after its warp work changed.

        The caller must have already advanced this SMX to ``now`` (decision
        processing does), so the demand change applies from ``now`` onward.
        """
        self.advance(now)
        old = cta.demand
        new = cta.refresh_demand()
        self._total_demand += new - old
        if self._total_demand < EPSILON:
            self._total_demand = 0.0

    # ------------------------------------------------------------------
    # Event horizon
    # ------------------------------------------------------------------
    def next_event_time(self, now: float) -> Optional[float]:
        """Earliest completion or decision point, recomputed from scratch."""
        if not self.resident:
            return None
        self.advance(now)
        slack = min(_recomputed_target(c) - c.consumed for c in self.resident)
        if slack <= 0.0:
            return now
        return now + slack / self.scale

    def ctas_with_fired_decisions(self) -> List[CTAInstance]:
        return [
            c
            for c in self.resident
            if c.next_decision < len(c.decisions)
            and _recomputed_target(c) <= c.consumed + EPSILON
        ]

    def pop_finished(self, now: float) -> List[CTAInstance]:
        """Advance to ``now`` and detach every CTA whose compute is done."""
        self.advance(now)
        finished = [c for c in self.resident if c.compute_finished]
        for cta in finished:
            self.remove(cta, now)
        return finished


class ReferenceGMU(GMU):
    """GMU that scans for dispatchable heads on every call.

    Binding and retirement are the production GMU's; the dispatchable-head
    counter and its short-circuit are not used (the reference dispatch
    path never calls ``note_cta_taken``).
    """

    def _refresh_head(self, swq: int) -> None:
        queue = self._streams.get(swq)
        if queue and queue[0].state is KernelState.PENDING:
            queue[0].state = KernelState.EXECUTING

    def dispatchable_kernels(self) -> Iterator[KernelInstance]:
        """Bound-stream head kernels with undispatched CTAs, round-robin.

        The cursor persists across calls so successive dispatch rounds
        rotate fairly over streams, like the RR CTA scheduler in Table II.
        This is the dispatch loop's inner scan, so the head checks are
        plain attribute reads (no property dispatch).
        """
        bound = self._bound_list
        if not bound:
            return
        n = len(bound)
        start = self._rr_cursor % n
        streams = self._streams
        executing = KernelState.EXECUTING
        offsets = range(n - 1, -1, -1) if self.reverse_rr else range(n)
        for offset in offsets:
            index = start + offset
            if index >= n:
                index -= n
            queue = streams.get(bound[index])
            if not queue:
                continue
            head = queue[0]
            if head.state is executing and head.next_cta_index < head.num_ctas:
                self._rr_cursor = (index + 1) % n
                yield head


class ReferenceLRUCache(SetAssociativeCache):
    """Set-associative LRU with list-based sets (O(ways) scans).

    Same replacement semantics as the dict-based optimized cache: a list
    ordered LRU-first, hits move the line to the tail (MRU), misses evict
    the head when the set is full.
    """

    def __init__(self, config) -> None:
        super().__init__(config)
        self._sets = [[] for _ in range(self.num_sets)]

    def flush(self) -> None:
        self._sets = [[] for _ in range(self.num_sets)]

    def access_line(self, line: int) -> bool:
        ways = self._sets[line % self.num_sets]
        if line in ways:
            self.hits += 1
            ways.remove(line)
            ways.append(line)
            return True
        self.misses += 1
        if len(ways) >= self.associativity:
            ways.pop(0)
        ways.append(line)
        return False

    def access_lines(self, lines) -> Tuple[int, int]:
        # access_line maintains the hit/miss counters; only tally the
        # per-stream return value here.
        hits = 0
        total = 0
        for line in lines:
            total += 1
            if self.access_line(line):
                hits += 1
        return hits, total - hits

    def contains_line(self, line: int) -> bool:
        return line in self._sets[line % self.num_sets]


class ReferenceMemorySystem(MemorySystem):
    """Memory system on the list-based LRU, every footprint materialized."""

    cache_cls = ReferenceLRUCache

    def cta_access(
        self, regions: Sequence[Region], smx_index: int = -1, now: float = 0.0
    ) -> Tuple[float, float]:
        return self._access_lines(self.region_lines(regions), smx_index, now)


class ReferenceSimulator(GPUSimulator):
    """The engine with its batch-stepping paths replaced by per-event ones.

    Every optimized component is swapped for its reference, and the
    dispatch and SMX-event paths run the per-event bodies: CTAs are
    built through ``CTAInstance`` and ``spec_from_request`` with no
    per-spec caches, SMXs are searched with ``can_fit``, and every
    reschedule builds a fresh callback.
    """

    queue_factory = ReferenceEventQueue
    smx_factory = ReferenceSMX
    gmu_factory = ReferenceGMU
    memory_factory = ReferenceMemorySystem

    def _dispatch_round(self) -> bool:
        free_slots = (
            self.config.max_ctas_per_smx * len(self.smxs) - self._res_total_ctas
        )
        if free_slots == 0:
            return False
        placed = False
        for kernel in self.gmu.dispatchable_kernels():
            if self._place_cta_of(kernel):
                placed = True
                free_slots -= 1
                if free_slots == 0:
                    return placed
        while self._dtbl_pending:
            head = self._dtbl_pending[0]
            if not head.has_undispatched_ctas:
                self._dtbl_pending.popleft()
                continue
            if not self._place_cta_of(head):
                break
            placed = True
        return placed

    def _find_smx(self, *, threads: int, regs: int, shmem: int) -> Optional[ReferenceSMX]:
        n = len(self.smxs)
        max_ctas = self.config.max_ctas_per_smx
        for offset in range(n):
            smx = self.smxs[(self._smx_rr + offset) % n]
            if len(smx.resident) >= max_ctas:
                continue
            if smx.can_fit(threads=threads, regs=regs, shmem=shmem):
                self._smx_rr = (self._smx_rr + offset + 1) % n
                return smx
        return None

    def _dispatch_cta(self, kernel: KernelInstance, smx: ReferenceSMX) -> None:
        now = self.queue.now
        spec = kernel.spec
        cta_index = kernel.take_next_cta_index()
        threads = spec.cta_thread_range(cta_index)
        start, stop = threads.start, threads.stop
        if kernel.record.first_dispatch_time is None:
            kernel.record.first_dispatch_time = now
            if self.tracer.enabled:
                self.tracer.emit(
                    KERNEL_FIRST_DISPATCH,
                    ts=now,
                    kernel_id=kernel.kernel_id,
                    kernel=spec.name,
                    queuing_latency=kernel.record.queuing_latency,
                )

        items = spec.thread_items[start:stop]
        # Memory footprint of the CTA's unconditional work.
        if spec.mem_bases is None:
            stall = self.memory.stall_cycles(1.0)
        elif spec.contiguous_footprint:
            base = int(spec.mem_bases[start])
            extent = (
                int(spec.mem_bases[stop - 1])
                - base
                + int(items[-1]) * spec.mem_stride
            )
            stall, _ = self.memory.cta_access([(base, extent)], smx.index, now)
        else:
            bases = spec.mem_bases[start:stop]
            stall, _ = self.memory.cta_access_arrays(
                bases, items * spec.mem_stride, smx.index, now
            )

        # Per-warp critical path and issue occupancy.
        cost_total = spec.cycles_per_item + spec.accesses_per_item * stall
        issue_frac = spec.cycles_per_item / cost_total if cost_total > 0 else 0.0
        n = stop - start
        init = self.cta_init_cycles
        num_warps = (n + WARP_SIZE - 1) // WARP_SIZE
        if spec.contiguous_footprint:
            # Uniform child grid: every warp's max is items_per_thread
            # (the remainder thread is never alone with a smaller count
            # unless it is the only thread in the CTA).
            per_warp = int(items[0]) if n > 1 else int(items[-1])
            wt = init + per_warp * cost_total
            wi = init + per_warp * cost_total * issue_frac
            warp_total = [wt] * num_warps
            warp_issue = [wi] * num_warps
        else:
            thread_total = items * cost_total
            warp_starts = np.arange(0, n, WARP_SIZE)
            warp_max = np.maximum.reduceat(thread_total, warp_starts)
            warp_total = (init + warp_max).tolist()
            warp_issue = (init + warp_max * issue_frac).tolist()

        decisions: List[PendingDecision] = []
        if spec.child_requests:
            for tid in range(start, stop):
                reqs = spec.child_requests.get(tid)
                if not reqs:
                    continue
                warp = (tid - start) // WARP_SIZE
                for req in reqs:
                    decisions.append(
                        PendingDecision(
                            at_consumed=req.at_fraction * warp_total[warp],
                            warp=warp,
                            tid=tid,
                            request=req,
                        )
                    )

        cta = CTAInstance(
            kernel,
            cta_index,
            num_threads=spec.threads_per_cta,
            num_warps=len(warp_total),
            regs=spec.threads_per_cta * spec.regs_per_thread,
            shmem=spec.shmem_per_cta,
            warp_total=warp_total,
            warp_issue=warp_issue,
            decisions=decisions,
            demand_scale=self.latency_hiding,
        )
        executed = int(items.sum())
        if kernel.is_child:
            self.stats.items_in_child += executed
        else:
            self.stats.items_in_parent += executed
        self._place_on_smx(cta, smx, now)

    def _make_child_kernel(
        self, parent: KernelInstance, parent_cta: CTAInstance, req: ChildRequest
    ) -> KernelInstance:
        child_spec = spec_from_request(req, depth=parent.spec.depth + 1)
        stream = self.stream_policy.stream_for(parent.kernel_id, parent_cta.cta_index)
        child = KernelInstance(
            next(self._kernel_ids),
            child_spec,
            stream_id=stream,
            is_child=True,
            parent_cta=parent_cta,
            items_per_thread=req.items_per_thread,
        )
        self._unfinished_kernels += 1
        return child

    def _reschedule_smx(self, smx: ReferenceSMX) -> None:
        event = self._smx_events[smx.index]
        if event is not None:
            event.cancel()
            self._smx_events[smx.index] = None
        when = smx.next_event_time(self.queue.now)
        if when is not None:
            self._smx_events[smx.index] = self.queue.schedule(
                max(when, self.queue.now),
                lambda s=smx: self._on_smx_event(s),
            )

    def _on_smx_event(self, smx: ReferenceSMX) -> None:
        self._smx_events[smx.index] = None
        now = self.queue.now
        smx.advance(now)
        progressed = False
        for cta in smx.ctas_with_fired_decisions():
            self._process_decisions(cta, smx, now)
            progressed = True
        finished = smx.pop_finished(now)
        if finished:
            progressed = True
            for cta in finished:
                self._detach_cta(cta, smx, now)
            self._record_state()
            for cta in finished:
                self._on_cta_compute_done(cta, now)
            self._dispatch()
        if progressed:
            self._reschedule_smx(smx)
        else:
            # Pure float drift: nudge strictly forward so we cannot spin.
            when = smx.next_event_time(now)
            if when is not None:
                self._smx_events[smx.index] = self.queue.schedule(
                    max(when, now + 1e-3), lambda s=smx: self._on_smx_event(s)
                )


@dataclass
class DifferentialMismatch:
    """Where the optimized and reference runs diverged."""

    kind: str  # "events" or "stats"
    detail: str
    trace_divergence: Optional[GoldenMismatch] = None

    def __str__(self) -> str:
        return f"differential mismatch [{self.kind}]: {self.detail}"


def run_differential(
    app: Application,
    *,
    config=None,
    policy_factory: Optional[Callable[[], object]] = None,
    stream_policy_factory: Optional[Callable[[], object]] = None,
    sim_kwargs: Optional[Dict[str, object]] = None,
) -> Optional[DifferentialMismatch]:
    """Run ``app`` through the production and reference engines and compare.

    Policies and stream policies are stateful across a run, so fresh
    instances are built per engine via the factories (defaults: the
    engine's own defaults).  Returns None when the event streams are
    identical and the final stats round-trip dicts are equal; otherwise a
    :class:`DifferentialMismatch` naming the first divergence.
    """
    kwargs = dict(sim_kwargs or {})

    def build(sim_cls):
        tracer = Tracer()
        sim = sim_cls(
            config=config,
            policy=policy_factory() if policy_factory else None,
            stream_policy=(
                stream_policy_factory() if stream_policy_factory else None
            ),
            tracer=tracer,
            **kwargs,
        )
        return sim, tracer

    optimized, opt_tracer = build(GPUSimulator)
    reference, ref_tracer = build(ReferenceSimulator)
    opt_result = optimized.run(app)
    ref_result = reference.run(app)

    divergence = diff_traces(
        canonical_events(ref_tracer.events()),
        canonical_events(opt_tracer.events()),
    )
    if divergence is not None:
        return DifferentialMismatch(
            kind="events",
            detail=str(divergence),
            trace_divergence=divergence,
        )
    opt_stats = opt_result.stats.to_dict()
    ref_stats = ref_result.stats.to_dict()
    if opt_stats != ref_stats:
        diffs = [
            key
            for key in sorted(set(opt_stats) | set(ref_stats))
            if opt_stats.get(key) != ref_stats.get(key)
        ]
        return DifferentialMismatch(
            kind="stats",
            detail=(
                "event streams match but SimStats differ in fields "
                f"{diffs} (optimized vs reference)"
            ),
        )
    return None
