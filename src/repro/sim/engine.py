"""The GPU simulator engine.

Event-driven orchestration of the pieces in this package: root kernels enter
the :class:`~repro.sim.gmu.GMU`, CTAs are dispatched round-robin onto
processor-sharing :class:`~repro.sim.smx.SMX` units, device-side launch
calls fire as the parent CTA's execution crosses each request's
``at_fraction`` progress point, go through the active
:class:`~repro.core.policies.LaunchPolicy`, and (if approved) pay the
:class:`~repro.sim.launch.LaunchUnit`'s ``A*x + b`` latency before
re-entering the GMU as child kernels.  Parent CTAs that finish computing
while their children are alive relinquish SMX resources and wait — the
device-synchronization semantics of Section II-C.

Declined launches (SPAWN's throttling, or a static THRESHOLD) extend the
launching warp's timeline by the serial fallback loop, exactly the
work-redistribution effect the paper exploits; approved launches only add
the header reads and the asynchronous API call cost.

The hot paths step in batches: the event queue drains whole same-time
buckets, CTA dispatch reads per-spec constants cached on the spec
(:func:`_spec_dispatch_cache`) and child grids share templates keyed by
their request shape.  None of this may change *what* happens or in which
order: callbacks run in exactly the ``(time, seq)`` order of a per-event
engine, events are scheduled and cancelled exactly when a per-event
engine would (deferring that churn renumbers ``seq`` and reorders
same-time ties), and every arithmetic statement on the simulated timeline
is operation-for-operation the scalar form.  The per-event oracle,
:class:`repro.check.reference.ReferenceSimulator`, checks this contract
event-for-event (DESIGN §13).
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from collections import deque
from functools import partial
from typing import Deque, Dict, List, Optional

import numpy as np

from repro.core.metrics import MetricsMonitor
from repro.core.policies import (
    AlwaysLaunchPolicy,
    DecisionKind,
    LaunchPolicy,
    LaunchRequest,
)
from repro.errors import SimulationError
from repro.obs.tracer import (
    CTA_DISPATCH,
    CTA_FINISH,
    KERNEL_ARRIVAL,
    KERNEL_COMPLETE,
    KERNEL_FIRST_DISPATCH,
    KERNEL_LAUNCH_CALL,
    KERNEL_SUSPEND,
    LAUNCH_DECISION,
    LAUNCH_MERGE,
    NULL_TRACER,
    Tracer,
)
from repro.runtime.streams import PerChildStream, StreamPolicy
from repro.sim.config import WARP_SIZE, GPUConfig
from repro.sim.events import Event, EventQueue
from repro.sim.gmu import GMU
from repro.sim.instances import (
    CTAInstance,
    CTAState,
    KernelInstance,
    KernelState,
    PendingDecision,
)
from repro.sim.kernel import Application, ChildRequest, KernelSpec
from repro.sim.launch import LaunchUnit
from repro.sim.memory import MemorySystem
from repro.sim.merge import build_merged_spec, merge_key
from repro.sim.smx import SMX
from repro.sim.stats import SimStats


class SimResult:
    """Outcome of one simulated application run."""

    def __init__(self, app_name: str, policy_name: str, stats: SimStats):
        self.app_name = app_name
        self.policy_name = policy_name
        self.stats = stats

    @property
    def makespan(self) -> float:
        return self.stats.makespan

    def summary(self) -> Dict[str, float]:
        return self.stats.summary()

    def to_dict(self) -> Dict[str, object]:
        """JSON-serializable payload (see :meth:`from_dict`)."""
        return {
            "app_name": self.app_name,
            "policy_name": self.policy_name,
            "stats": self.stats.to_dict(),
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "SimResult":
        """Rebuild a result saved with :meth:`to_dict` (disk cache path)."""
        return cls(
            app_name=payload["app_name"],
            policy_name=payload["policy_name"],
            stats=SimStats.from_dict(payload["stats"]),
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SimResult({self.app_name!r}, policy={self.policy_name!r}, "
            f"makespan={self.makespan:.0f})"
        )


class GPUSimulator:
    """Runs one :class:`~repro.sim.kernel.Application` under one policy."""

    #: Component factories, overridable for differential validation
    #: (:mod:`repro.check.reference` swaps in naive reference
    #: implementations) and for seeding deliberate bugs in conformance
    #: tests.  Production code never overrides these.
    queue_factory = EventQueue
    smx_factory = SMX
    gmu_factory = GMU
    memory_factory = MemorySystem

    def __init__(
        self,
        config: Optional[GPUConfig] = None,
        policy: Optional[LaunchPolicy] = None,
        stream_policy: Optional[StreamPolicy] = None,
        *,
        tracer: Optional[Tracer] = None,
        trace_interval: float = 1000.0,
        max_events: int = 20_000_000,
        api_call_cycles: float = 40.0,
        cta_init_cycles: float = 50.0,
        dtbl_coalesce_cycles: float = 150.0,
        max_lines_per_cta: int = 4096,
        latency_hiding: float = 0.35,
        bind_policy: str = "fcfs",
        merge_bug: Optional[str] = None,
    ):
        self.config = config or GPUConfig()
        self.policy = policy or AlwaysLaunchPolicy()
        self.stream_policy = stream_policy or PerChildStream()
        #: Structured event tracer (repro.obs); the disabled default makes
        #: every instrumentation site a single attribute check.
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.trace_interval = trace_interval
        self.max_events = max_events
        self.api_call_cycles = api_call_cycles
        self.cta_init_cycles = cta_init_cycles
        self.dtbl_coalesce_cycles = dtbl_coalesce_cycles
        self.max_lines_per_cta = max_lines_per_cta
        if not 0 < latency_hiding <= 1:
            raise SimulationError("latency_hiding must be in (0, 1]")
        self.latency_hiding = latency_hiding
        #: SWQ→HWQ binding policy forwarded to the GMU ("fcfs" or "acs").
        self.bind_policy = bind_policy
        if merge_bug not in (None, "unpadded", "cross_warp"):
            raise SimulationError(f"unknown merge_bug {merge_bug!r}")
        #: TEST-ONLY seeded defects in the merge path ("unpadded" breaks
        #: CTA conservation, "cross_warp" breaks warp-scope isolation);
        #: exists so conformance tests can prove the checker catches them.
        self._merge_bug = merge_bug
        # Per-run state, created in _reset().
        self.queue: EventQueue
        self.smxs: List[SMX]
        self.gmu: GMU
        self.launch_unit: LaunchUnit
        self.memory: MemorySystem
        self.metrics: MetricsMonitor
        self.stats: SimStats

    # ------------------------------------------------------------------
    # Run lifecycle
    # ------------------------------------------------------------------
    def run(self, app: Application) -> SimResult:
        app.validate(self.config)
        self._reset()
        self._app = app
        self._host_index = 0
        self._submit_next_root()
        self.queue.run(self.max_events)
        if self._unfinished_kernels:
            raise SimulationError(
                f"simulation drained with {self._unfinished_kernels} kernels "
                "unfinished (deadlock in the modelled system)"
            )
        self.stats.finalize(self._last_completion)
        self.stats.l2_hits = self.memory.l2.hits
        self.stats.l2_misses = self.memory.l2.misses
        self.stats.peak_ccqs_depth = self.metrics.peak_n
        return SimResult(app.name, self.policy.describe(), self.stats)

    def _reset(self) -> None:
        cfg = self.config
        self.queue = self.queue_factory()
        self.tracer.bind_clock(lambda: self.queue.now)
        self.smxs = [self.smx_factory(i, cfg) for i in range(cfg.num_smx)]
        if self.bind_policy != "fcfs":
            # Only pass the kwarg when non-default so partially-applied
            # factories (conformance tests seed bugs via functools.partial)
            # never see a duplicate keyword.
            self.gmu = self.gmu_factory(
                cfg, tracer=self.tracer, bind_policy=self.bind_policy
            )
        else:
            self.gmu = self.gmu_factory(cfg, tracer=self.tracer)
        self.launch_unit = LaunchUnit(
            cfg.launch, self.queue, self._on_kernel_arrival, tracer=self.tracer
        )
        self.memory = self.memory_factory(
            cfg.memory,
            max_lines_per_cta=self.max_lines_per_cta,
            num_smx=cfg.num_smx,
        )
        self.metrics = MetricsMonitor(window_cycles=cfg.metric_window_cycles)
        self.stats = SimStats(trace_interval=self.trace_interval)
        self.stats.set_capacity(
            warps=cfg.max_warps_per_smx * cfg.num_smx,
            regs=cfg.registers_per_smx * cfg.num_smx,
            shmem=cfg.shared_mem_per_smx * cfg.num_smx,
        )
        self.stream_policy.reset()
        self.policy.bind(self.metrics, cfg)
        self.policy.set_audit(self.tracer.enabled)
        self._kernel_ids = itertools.count()
        self._smx_events: List[Optional[Event]] = [None] * cfg.num_smx
        self._smx_rr = 0
        self._dtbl_pending: Deque[KernelInstance] = deque()
        # Merge buffering (consolidate / aggregate): the active policy
        # advertises its scope; non-merging policies leave it None and the
        # whole machinery stays dormant (one attribute check per hook).
        self._merge_scope: Optional[str] = getattr(
            self.policy, "merge_scope", None
        )
        self._merge_batch: Optional[int] = (
            getattr(self.policy, "batch_ctas", None)
            if self._merge_scope == "cta"
            else None
        )
        # (parent CTA -> compat key -> buffered entries) for cta/block
        # scopes; (parent kernel -> compat key -> entries) for grid scope.
        self._cta_merge: Dict[CTAInstance, Dict[tuple, list]] = {}
        self._grid_merge: Dict[KernelInstance, Dict[tuple, list]] = {}
        self._unfinished_kernels = 0
        self._last_completion = 0.0
        self._res_parent_ctas = 0
        self._res_child_ctas = 0
        self._res_total_ctas = 0  # resident CTAs GPU-wide (free-slot math)
        self._res_warps = 0
        self._res_regs = 0
        self._res_shmem = 0
        self._dispatching = False
        # CTA shapes that failed placement this dispatch pass (re-seeded at
        # the top of every _dispatch call).
        self._failed_shapes: set = set()
        # One bound callback per SMX instead of a fresh lambda per
        # reschedule (tens of thousands per run).
        self._smx_callbacks = [
            partial(self._on_smx_event, smx) for smx in self.smxs
        ]
        # Child-grid template cache: grids materialized from identical
        # ChildRequests (which recur once per parent thread) share their
        # thread_items array and the whole per-spec dispatch cache; only
        # the absolute footprint bases depend on the request's mem_base.
        self._child_templates: Dict[tuple, tuple] = {}

    def _submit_next_root(self) -> None:
        spec = self._app.kernels[self._host_index]
        kernel = KernelInstance(
            next(self._kernel_ids), spec, stream_id=self._host_index, is_child=False
        )
        kernel.record.launch_call_time = self.queue.now
        if self.tracer.enabled:
            self.tracer.emit(
                KERNEL_LAUNCH_CALL,
                kernel_id=kernel.kernel_id,
                kernel=spec.name,
                is_child=False,
                num_ctas=kernel.num_ctas,
                stream=kernel.stream_id,
            )
        self._unfinished_kernels += 1
        self._on_kernel_arrival(kernel)

    # ------------------------------------------------------------------
    # Kernel arrival and dispatch
    # ------------------------------------------------------------------
    def _on_kernel_arrival(self, kernel: KernelInstance) -> None:
        kernel.record.arrival_time = self.queue.now
        self.stats.kernels[kernel.kernel_id] = kernel.record
        self.gmu.submit(kernel)
        if self.tracer.enabled:
            self.tracer.emit(
                KERNEL_ARRIVAL,
                kernel_id=kernel.kernel_id,
                kernel=kernel.spec.name,
                is_child=kernel.is_child,
                num_ctas=kernel.num_ctas,
                stream=kernel.stream_id,
                pending=self.gmu.pending_kernels,
            )
        self._dispatch()

    def _on_dtbl_arrival(self, kernel: KernelInstance) -> None:
        kernel.record.arrival_time = self.queue.now
        kernel.state = KernelState.EXECUTING
        kernel.via_dtbl = True
        self.stats.kernels[kernel.kernel_id] = kernel.record
        self._dtbl_pending.append(kernel)
        if self.tracer.enabled:
            self.tracer.emit(
                KERNEL_ARRIVAL,
                kernel_id=kernel.kernel_id,
                kernel=kernel.spec.name,
                is_child=kernel.is_child,
                num_ctas=kernel.num_ctas,
                stream=kernel.stream_id,
                via_dtbl=True,
            )
        self._dispatch()

    def _dispatch(self) -> None:
        """Place as many CTAs as resources allow (RR over kernels and SMXs)."""
        if self._dispatching:
            # Nested completion notifications re-enter here; the outer loop
            # picks up any newly dispatchable work.
            return
        self._dispatching = True
        # Within one dispatch pass resources only shrink, so a CTA shape
        # that failed to fit once cannot fit later in the same pass.
        self._failed_shapes = set()
        try:
            while self._dispatch_round():
                pass
        finally:
            self._dispatching = False

    def _dispatch_round(self) -> bool:
        free_slots = (
            self.config.max_ctas_per_smx * len(self.smxs) - self._res_total_ctas
        )
        if free_slots == 0:
            return False
        placed = False
        gmu = self.gmu
        note_taken = gmu.note_cta_taken  # dtbl heads bypass the GMU
        for kernel in gmu.dispatchable_kernels():
            if self._place_cta_of(kernel):
                note_taken(kernel)
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

    def _place_cta_of(self, kernel: KernelInstance) -> bool:
        spec = kernel.spec
        shape = (
            spec.threads_per_cta,
            spec.threads_per_cta * spec.regs_per_thread,
            spec.shmem_per_cta,
        )
        if shape in self._failed_shapes:
            return False
        smx = self._find_smx(threads=shape[0], regs=shape[1], shmem=shape[2])
        if smx is None:
            self._failed_shapes.add(shape)
            return False
        self._dispatch_cta(kernel, smx)
        return True

    def _find_smx(self, *, threads: int, regs: int, shmem: int) -> Optional[SMX]:
        smxs = self.smxs
        n = len(smxs)
        cfg = self.config
        max_ctas = cfg.max_ctas_per_smx
        max_threads = cfg.max_threads_per_smx
        max_regs = cfg.registers_per_smx
        max_shmem = cfg.shared_mem_per_smx
        rr = self._smx_rr
        for offset in range(n):
            index = rr + offset
            if index >= n:
                index -= n
            smx = smxs[index]
            if (
                len(smx.resident) < max_ctas
                and smx.used_threads + threads <= max_threads
                and smx.used_regs + regs <= max_regs
                and smx.used_shmem + shmem <= max_shmem
            ):
                self._smx_rr = (rr + offset + 1) % n
                return smx
        return None

    # ------------------------------------------------------------------
    # CTA dispatch: footprint, timing, decision points
    # ------------------------------------------------------------------
    def _dispatch_cta(self, kernel: KernelInstance, smx: SMX) -> None:
        now = self.queue.now
        spec = kernel.spec
        cache = spec.__dict__.get("_dispatch_cache")
        if cache is None:
            cache = _spec_dispatch_cache(spec)
        (starts, stops, sizes, warps, executed_sums, per_warps, bases,
         extents, dec_tids) = cache
        cta_index = kernel.next_cta_index
        if cta_index >= kernel.num_ctas:
            raise SimulationError(
                f"kernel {spec.name!r} has no CTAs left to dispatch"
            )
        kernel.next_cta_index = cta_index + 1
        record = kernel.record
        if record.first_dispatch_time is None:
            record.first_dispatch_time = now
            if self.tracer.enabled:
                self.tracer.emit(
                    KERNEL_FIRST_DISPATCH,
                    ts=now,
                    kernel_id=kernel.kernel_id,
                    kernel=spec.name,
                    queuing_latency=record.queuing_latency,
                )

        start = starts[cta_index]
        stop = stops[cta_index]
        n = sizes[cta_index]
        items = None
        # Memory footprint of the CTA's unconditional work.
        if spec.mem_bases is None:
            stall = self.memory.stall_cycles(1.0)
        elif bases is not None:
            stall, _ = self.memory.cta_access(
                [(bases[cta_index], extents[cta_index])], smx.index, now
            )
        else:
            items = spec.thread_items[start:stop]
            stall, _ = self.memory.cta_access_arrays(
                spec.mem_bases[start:stop],
                items * spec.mem_stride,
                smx.index,
                now,
            )

        # Per-warp critical path and issue occupancy.
        cost_total = spec.cycles_per_item + spec.accesses_per_item * stall
        issue_frac = spec.cycles_per_item / cost_total if cost_total > 0 else 0.0
        init = self.cta_init_cycles
        num_warps = warps[cta_index]
        if per_warps is not None:
            per_warp = per_warps[cta_index]
            wt = init + per_warp * cost_total
            wi = init + per_warp * cost_total * issue_frac
            warp_total = [wt] * num_warps
            warp_issue = [wi] * num_warps
        else:
            if items is None:
                items = spec.thread_items[start:stop]
            thread_total = items * cost_total
            warp_starts = np.arange(0, n, WARP_SIZE)
            warp_max = np.maximum.reduceat(thread_total, warp_starts)
            warp_total = (init + warp_max).tolist()
            warp_issue = (init + warp_max * issue_frac).tolist()

        decisions: List[PendingDecision] = []
        if dec_tids is not None:
            child_requests = spec.child_requests
            pos = bisect_left(dec_tids, start)
            end = len(dec_tids)
            while pos < end:
                tid = dec_tids[pos]
                if tid >= stop:
                    break
                pos += 1
                warp = (tid - start) // WARP_SIZE
                wt_warp = warp_total[warp]
                for req in child_requests[tid]:
                    decisions.append(
                        PendingDecision(
                            at_consumed=req.at_fraction * wt_warp,
                            warp=warp,
                            tid=tid,
                            request=req,
                        )
                    )

        cta = _make_cta(
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
        if kernel.is_child:
            self.stats.items_in_child += executed_sums[cta_index]
        else:
            self.stats.items_in_parent += executed_sums[cta_index]
        self._place_on_smx(cta, smx, now)

    def _place_on_smx(self, cta: CTAInstance, smx: SMX, now: float) -> None:
        smx.add(cta, now)
        cta.dispatch_time = now
        if self.tracer.enabled:
            self.tracer.emit(
                CTA_DISPATCH,
                ts=now,
                kernel_id=cta.kernel.kernel_id,
                kernel=cta.kernel.spec.name,
                cta_index=cta.cta_index,
                smx=smx.index,
                is_child=cta.is_child,
                warps=cta.num_warps,
                threads=cta.num_threads,
                regs=cta.regs,
                shmem=cta.shmem,
            )
        if cta.is_child:
            self.metrics.on_cta_started(now)
            self._res_child_ctas += 1
        else:
            self._res_parent_ctas += 1
        self._res_total_ctas += 1
        self._res_warps += cta.num_warps
        self._res_regs += cta.regs
        self._res_shmem += cta.shmem
        self._record_state()
        self._reschedule_smx(smx)

    # ------------------------------------------------------------------
    # Launch decisions (fired on the progress axis)
    # ------------------------------------------------------------------
    def _process_decisions(self, cta: CTAInstance, smx: SMX, now: float) -> None:
        fired = cta.pop_fired_decisions()
        if not fired:
            return
        kernel = cta.kernel
        spec = kernel.spec
        batches: Dict[int, List[KernelInstance]] = {}
        # Warp-scope aggregation groups within ONE decision pass: requests
        # fired together by the same warp merge; nothing is buffered across
        # passes (a warp's lanes launch in lockstep or not at all).
        warp_groups: Dict[tuple, list] = {}
        for decision in fired:
            req = decision.request
            kind = self.policy.decide(
                LaunchRequest(
                    time=now,
                    items=req.items,
                    num_ctas=req.num_ctas,
                    items_per_thread=req.items_per_thread,
                    depth=spec.depth + 1,
                )
            )
            if kind is DecisionKind.SERIAL:
                if self.tracer.enabled:
                    self._trace_decision(kind, decision, req, cta, now, None)
                self._apply_serial(cta, decision, req)
                continue
            if kind is DecisionKind.REUSE:
                if self.tracer.enabled:
                    self._trace_decision(kind, decision, req, cta, now, None)
                self._apply_reuse(cta, req)
                continue
            if kind is DecisionKind.CONSOLIDATE or kind is DecisionKind.AGGREGATE:
                if self.tracer.enabled:
                    self._trace_decision(kind, decision, req, cta, now, None)
                if kind is DecisionKind.CONSOLIDATE:
                    self.stats.child_kernels_consolidated += 1
                else:
                    self.stats.child_kernels_aggregated += 1
                # The parent still pays the launch API cost and waits on
                # the eventual merged kernel; only kernel creation is
                # deferred to the flush point.
                cta.outstanding_children += 1
                self._apply_launch_cost(cta, decision, req)
                self._buffer_merge(cta, decision, req, now, warp_groups)
                continue
            child = self._make_child_kernel(kernel, cta, req)
            if self.tracer.enabled:
                self._trace_decision(kind, decision, req, cta, now, child)
            self.metrics.advance(now)
            self.metrics.on_ctas_admitted(child.num_ctas)
            self.stats.child_kernels_launched += 1
            self.stats.child_ctas_launched += child.num_ctas
            self.stats.launch_times.append(now)
            cta.outstanding_children += 1
            self._apply_launch_cost(cta, decision, req)
            if kind is DecisionKind.COALESCE:
                child.record.launch_call_time = now
                self.queue.schedule_in(
                    self.dtbl_coalesce_cycles,
                    lambda k=child: self._on_dtbl_arrival(k),
                )
            else:
                batches.setdefault(decision.warp, []).append(child)
        for (warp, _mkey), entries in warp_groups.items():
            merged = self._flush_merge_group(entries, now)
            batches.setdefault(warp, []).append(merged)
        for batch in batches.values():
            self.launch_unit.submit_batch(batch)
        smx.refresh_demand(cta, now)

    def _trace_decision(
        self,
        kind: DecisionKind,
        decision: PendingDecision,
        req: ChildRequest,
        cta: CTAInstance,
        now: float,
        child: Optional[KernelInstance],
    ) -> None:
        """Emit one launch-decision event, with the SPAWN audit payload.

        ``policy.decision_audit()`` contributes the monitored inputs
        (``n``, ``n_con``, ``t_cta``, ``t_warp``) and the Equation 1/2
        estimates when the active policy has a prediction model; the audit
        layer joins launched decisions with the child's completion event.
        """
        args: Dict[str, object] = {
            "verdict": kind.value,
            "items": req.items,
            "num_ctas": req.num_ctas,
            "depth": cta.kernel.spec.depth + 1,
            "parent_kernel_id": cta.kernel.kernel_id,
            "cta_index": cta.cta_index,
            "smx": cta.smx_index,
            "warp": decision.warp,
            "tid": decision.tid,
        }
        if child is not None:
            args["child_kernel_id"] = child.kernel_id
        audit = self.policy.decision_audit()
        if audit is not None:
            args.update(audit)
        self.tracer.emit(LAUNCH_DECISION, ts=now, **args)

    def _apply_serial(
        self, cta: CTAInstance, decision: PendingDecision, req: ChildRequest
    ) -> None:
        """The parent thread performs the offloadable work in a loop."""
        stall, _ = self.memory.cta_access(
            [(req.mem_base, req.items * req.mem_stride)],
            cta.smx_index,
            self.queue.now,
        )
        total = req.items * (req.cycles_per_item + req.accesses_per_item * stall)
        issue = req.items * req.cycles_per_item
        cta.extend_thread(decision.warp, decision.tid, total, issue)
        self.stats.items_in_parent += req.items
        self.stats.child_kernels_declined += 1

    def _apply_reuse(self, cta: CTAInstance, req: ChildRequest) -> None:
        """Free Launch: spread the child's work over the parent CTA's lanes.

        Every warp of the parent CTA picks up an equal share of the items;
        shares from successive reused children accumulate (the reuse queue
        drains work through the same resident threads).
        """
        stall, _ = self.memory.cta_access(
            [(req.mem_base, req.items * req.mem_stride)],
            cta.smx_index,
            self.queue.now,
        )
        per_lane = -(-req.items // cta.num_threads)  # ceil: SIMT lockstep
        total = per_lane * (req.cycles_per_item + req.accesses_per_item * stall)
        issue = per_lane * req.cycles_per_item
        for warp in range(cta.num_warps):
            # A per-warp sentinel "thread" accumulates reuse shares so that
            # successive reused children stack instead of overlapping.
            cta.extend_thread(warp, -(warp + 1), total, issue)
        self.stats.items_in_parent += req.items
        self.stats.child_kernels_reused += 1

    def _apply_launch_cost(
        self, cta: CTAInstance, decision: PendingDecision, req: ChildRequest
    ) -> None:
        """Header reads plus the asynchronous launch API call."""
        header = min(cta.kernel.spec.header_items, req.items)
        stall, _ = self.memory.cta_access(
            [(req.mem_base, header * req.mem_stride)],
            cta.smx_index,
            self.queue.now,
        )
        total = (
            header * (req.cycles_per_item + req.accesses_per_item * stall)
            + self.api_call_cycles
        )
        issue = header * req.cycles_per_item + self.api_call_cycles
        cta.extend_thread(decision.warp, decision.tid, total, issue)

    def _child_spec(self, req: ChildRequest, depth: int) -> KernelSpec:
        """``spec_from_request`` with cached grid arrays, validation-free.

        The produced spec is field-for-field what
        :func:`~repro.sim.kernel.spec_from_request` builds (the
        ``__post_init__`` checks it skips are guaranteed-true for specs
        derived from an already-validated :class:`ChildRequest`).  The
        ``thread_items`` array and the attached dispatch cache are shared
        across identical requests — the engine only ever reads them.
        """
        key = (
            req.items,
            req.items_per_thread,
            req.mem_stride,
            req.cta_threads,
            tuple(sorted(req.nested)) if req.nested else (),
        )
        template = self._child_templates.get(key)
        if template is None:
            num_threads = req.num_threads
            items = np.full(num_threads, req.items_per_thread, dtype=np.int64)
            items[-1] = req.items - (num_threads - 1) * req.items_per_thread
            offsets = (
                np.arange(num_threads, dtype=np.int64)
                * req.items_per_thread
                * req.mem_stride
            )
            tpc = min(req.cta_threads, num_threads)
            num_ctas = -(-num_threads // tpc)
            starts = np.arange(num_ctas, dtype=np.int64) * tpc
            stops = np.minimum(starts + tpc, num_threads)
            sizes = stops - starts
            warps = ((sizes + (WARP_SIZE - 1)) // WARP_SIZE).tolist()
            prefix = np.zeros(num_threads + 1, dtype=np.int64)
            np.cumsum(items, out=prefix[1:])
            executed = (prefix[stops] - prefix[starts]).tolist()
            per_warp = np.where(
                sizes > 1, items[starts], items[stops - 1]
            ).tolist()
            # mem_bases = mem_base + offsets, so the per-CTA footprint
            # base is mem_base + offsets[start] and the extent is
            # mem_base-independent.
            rel_bases = offsets[starts].tolist()
            extents = (
                offsets[stops - 1] - offsets[starts]
                + items[stops - 1] * req.mem_stride
            ).tolist()
            dec_tids = sorted(req.nested) if req.nested else None
            template = (
                num_threads,
                items,
                offsets,
                starts.tolist(),
                stops.tolist(),
                sizes.tolist(),
                warps,
                executed,
                per_warp,
                rel_bases,
                extents,
                dec_tids,
            )
            self._child_templates[key] = template
        (num_threads, items, offsets, starts, stops, sizes, warps, executed,
         per_warp, rel_bases, extents, dec_tids) = template
        mem_base = req.mem_base
        if mem_base:
            bases = [mem_base + rel for rel in rel_bases]
        else:
            bases = rel_bases
        spec = KernelSpec.__new__(KernelSpec)
        spec.name = req.name
        spec.threads_per_cta = min(req.cta_threads, num_threads)
        spec.thread_items = items
        spec.regs_per_thread = req.regs_per_thread
        spec.shmem_per_cta = req.shmem_per_cta
        spec.cycles_per_item = req.cycles_per_item
        spec.accesses_per_item = req.accesses_per_item
        spec.mem_bases = mem_base + offsets
        spec.mem_stride = req.mem_stride
        spec.child_requests = {
            tid: list(reqs) for tid, reqs in req.nested.items()
        }
        spec.header_items = 2
        spec.depth = depth
        spec.contiguous_footprint = True
        spec._dispatch_cache = (
            starts, stops, sizes, warps, executed, per_warp, bases, extents,
            dec_tids,
        )
        return spec

    def _make_child_kernel(
        self, parent: KernelInstance, parent_cta: CTAInstance, req: ChildRequest
    ) -> KernelInstance:
        child_spec = self._child_spec(req, parent.spec.depth + 1)
        stream = self.stream_policy.stream_for(
            parent.kernel_id, parent_cta.cta_index
        )
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

    # ------------------------------------------------------------------
    # Merged launches (consolidate / aggregate)
    # ------------------------------------------------------------------
    def _buffer_merge(
        self,
        cta: CTAInstance,
        decision: PendingDecision,
        req: ChildRequest,
        now: float,
        warp_groups: Dict[tuple, list],
    ) -> None:
        """Buffer one admitted request until its scope's flush point."""
        scope = self._merge_scope
        mkey = merge_key(req)
        entry = (cta, decision, req)
        if scope == "warp":
            warp = 0 if self._merge_bug == "cross_warp" else decision.warp
            warp_groups.setdefault((warp, mkey), []).append(entry)
            return
        if scope == "grid":
            bucket = self._grid_merge.setdefault(cta.kernel, {})
            bucket.setdefault(mkey, []).append(entry)
            return
        # "cta" (consolidate) and "block" (aggregate:block) buffer per
        # parent CTA.  Consolidate additionally flushes a compat group the
        # moment it accumulates batch_ctas child CTAs, so the batch size
        # caps merged-kernel granularity.
        bucket = self._cta_merge.setdefault(cta, {})
        entries = bucket.setdefault(mkey, [])
        entries.append(entry)
        if self._merge_batch is not None:
            total = sum(e[2].num_ctas for e in entries)
            if total >= self._merge_batch:
                del bucket[mkey]
                merged = self._flush_merge_group(entries, now)
                self.launch_unit.submit_batch([merged])

    def _flush_merge_group(self, entries: list, now: float) -> KernelInstance:
        """Turn one compat group of buffered requests into a merged kernel."""
        reqs = [entry[2] for entry in entries]
        leader = entries[0][0]
        parent = leader.kernel
        spec = build_merged_spec(
            reqs,
            depth=parent.spec.depth + 1,
            unpadded=self._merge_bug == "unpadded",
        )
        stream = self.stream_policy.stream_for(parent.kernel_id, leader.cta_index)
        child = KernelInstance(
            next(self._kernel_ids),
            spec,
            stream_id=stream,
            is_child=True,
            items_per_thread=reqs[0].items_per_thread,
        )
        counts: Dict[CTAInstance, int] = {}
        for parent_cta, _, _ in entries:
            counts[parent_cta] = counts.get(parent_cta, 0) + 1
        child.merged_parents = list(counts.items())
        self._unfinished_kernels += 1
        self.metrics.advance(now)
        self.metrics.on_ctas_admitted(child.num_ctas)
        self.stats.merged_kernels_launched += 1
        self.stats.child_ctas_launched += child.num_ctas
        self.stats.launch_times.append(now)
        if self.tracer.enabled:
            self.tracer.emit(
                LAUNCH_MERGE,
                ts=now,
                child_kernel_id=child.kernel_id,
                kernel=spec.name,
                scope=self._merge_scope,
                num_ctas=child.num_ctas,
                num_requests=len(reqs),
                stream=stream,
                src=[
                    [c.kernel.kernel_id, c.cta_index, d.warp, d.tid, r.num_ctas]
                    for c, d, r in entries
                ],
            )
        return child

    def _flush_cta_merge(self, cta: CTAInstance, now: float) -> None:
        bucket = self._cta_merge.pop(cta, None)
        if not bucket:
            return
        children = [
            self._flush_merge_group(entries, now) for entries in bucket.values()
        ]
        self.launch_unit.submit_batch(children)

    def _flush_grid_merge(self, kernel: KernelInstance, now: float) -> None:
        bucket = self._grid_merge.pop(kernel, None)
        if not bucket:
            return
        children = [
            self._flush_merge_group(entries, now) for entries in bucket.values()
        ]
        self.launch_unit.submit_batch(children)

    # ------------------------------------------------------------------
    # Completion handling
    # ------------------------------------------------------------------
    def _reschedule_smx(self, smx: SMX) -> None:
        events = self._smx_events
        i = smx.index
        event = events[i]
        if event is not None:
            event.cancel()
            events[i] = None
        queue = self.queue
        now = queue.now
        when = smx.next_event_time(now)
        if when is not None:
            events[i] = queue.schedule(
                when if when > now else now, self._smx_callbacks[i]
            )

    def _on_smx_event(self, smx: SMX) -> None:
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
                    max(when, now + 1e-3), self._smx_callbacks[smx.index]
                )

    def _detach_cta(self, cta: CTAInstance, smx: SMX, now: float) -> None:
        if cta.is_child:
            self._res_child_ctas -= 1
        else:
            self._res_parent_ctas -= 1
        self._res_total_ctas -= 1
        self._res_warps -= cta.num_warps
        self._res_regs -= cta.regs
        self._res_shmem -= cta.shmem
        cta.compute_done_time = now
        if self.tracer.enabled:
            self.tracer.emit(
                CTA_FINISH,
                ts=now,
                kernel_id=cta.kernel.kernel_id,
                cta_index=cta.cta_index,
                smx=smx.index,
                is_child=cta.is_child,
                exec_time=now - cta.dispatch_time,
            )

    def _on_cta_compute_done(self, cta: CTAInstance, now: float) -> None:
        kernel = cta.kernel
        kernel.computing_ctas -= 1
        if cta.is_child:
            exec_time = cta.exec_time
            self.stats.child_cta_exec_times.append(exec_time)
            self.metrics.on_cta_finished(now, exec_time, kernel.items_per_thread)
        if self._merge_scope is not None:
            # cta/block scopes flush this CTA's remaining buffers now (the
            # CTA can issue no further launches); grid scope flushes when
            # the whole grid has finished computing.
            self._flush_cta_merge(cta, now)
            if kernel.computing_ctas == 0:
                self._flush_grid_merge(kernel, now)
        if cta.outstanding_children == 0:
            self._cta_fully_done(cta)
        else:
            # Device-synchronization: resources already relinquished; the
            # CTA completes when its children (and their descendants) do.
            cta.state = CTAState.WAITING_CHILDREN
        if (
            kernel.computing_ctas == 0
            and kernel.unfinished_ctas > 0
            and not kernel.hwq_released
            and not kernel.via_dtbl
        ):
            # Every CTA is done computing; the kernel only waits on
            # descendants now, so it releases its HWQ (grid suspension).
            kernel.hwq_released = True
            if self.tracer.enabled:
                self.tracer.emit(
                    KERNEL_SUSPEND,
                    ts=now,
                    kernel_id=kernel.kernel_id,
                    kernel=kernel.spec.name,
                    stream=kernel.stream_id,
                )
            self.gmu.on_kernel_suspended(kernel)
            self._dispatch()

    def _cta_fully_done(self, cta: CTAInstance) -> None:
        cta.state = CTAState.DONE
        if cta.kernel.cta_finished():
            self._on_kernel_complete(cta.kernel)

    def _on_kernel_complete(self, kernel: KernelInstance) -> None:
        now = self.queue.now
        kernel.record.completion_time = now
        self._unfinished_kernels -= 1
        self._last_completion = now
        if self.tracer.enabled:
            self.tracer.emit(
                KERNEL_COMPLETE,
                ts=now,
                kernel_id=kernel.kernel_id,
                kernel=kernel.spec.name,
                is_child=kernel.is_child,
                stream=kernel.stream_id,
                via_dtbl=kernel.via_dtbl,
                suspended=kernel.hwq_released and not kernel.via_dtbl,
            )
        if kernel.via_dtbl:
            if kernel in self._dtbl_pending:
                self._dtbl_pending.remove(kernel)
            kernel.state = KernelState.COMPLETE
        elif kernel.hwq_released:
            kernel.state = KernelState.COMPLETE
        else:
            kernel.hwq_released = True
            self.gmu.on_kernel_complete(kernel)
        parent_cta = kernel.parent_cta
        if kernel.merged_parents is not None:
            # A merged kernel answers to every contributing parent CTA:
            # each sees as many completions as requests it contributed.
            for contributor, count in kernel.merged_parents:
                contributor.outstanding_children -= count
                if (
                    contributor.state is CTAState.WAITING_CHILDREN
                    and contributor.outstanding_children == 0
                ):
                    self._cta_fully_done(contributor)
        elif parent_cta is not None:
            parent_cta.outstanding_children -= 1
            if (
                parent_cta.state is CTAState.WAITING_CHILDREN
                and parent_cta.outstanding_children == 0
            ):
                self._cta_fully_done(parent_cta)
        elif self._host_index + 1 < len(self._app.kernels):
            self._host_index += 1
            self._submit_next_root()
        self._dispatch()

    # ------------------------------------------------------------------
    # Bookkeeping
    # ------------------------------------------------------------------
    def _record_state(self) -> None:
        self.stats.record_state(
            self.queue.now,
            parent_ctas=self._res_parent_ctas,
            child_ctas=self._res_child_ctas,
            warps=self._res_warps,
            regs=self._res_regs,
            shmem=self._res_shmem,
        )


def _spec_dispatch_cache(spec: KernelSpec) -> tuple:
    """Per-spec dispatch constants, cached on the spec instance.

    Everything here is a pure function of the (immutable) spec content:
    per-CTA thread ranges, warp counts, executed-item sums (via an int64
    prefix sum — exact), and for contiguous child grids the per-CTA
    footprint base/extent and uniform per-warp item count.
    """
    cache = spec.__dict__.get("_dispatch_cache")
    if cache is not None:
        return cache
    tpc = spec.threads_per_cta
    num_threads = spec.num_threads
    num_ctas = spec.num_ctas
    thread_items = spec.thread_items
    starts = np.arange(num_ctas, dtype=np.int64) * tpc
    stops = np.minimum(starts + tpc, num_threads)
    sizes = stops - starts
    num_warps = ((sizes + (WARP_SIZE - 1)) // WARP_SIZE).tolist()
    prefix = np.zeros(num_threads + 1, dtype=np.int64)
    np.cumsum(thread_items, out=prefix[1:])
    executed = (prefix[stops] - prefix[starts]).tolist()
    if spec.contiguous_footprint:
        per_warp = np.where(
            sizes > 1, thread_items[starts], thread_items[stops - 1]
        ).tolist()
    else:
        per_warp = None
    if spec.contiguous_footprint and spec.mem_bases is not None:
        mem_bases = spec.mem_bases
        first = mem_bases[starts]
        extents = (
            mem_bases[stops - 1] - first
            + thread_items[stops - 1] * spec.mem_stride
        )
        bases = first.tolist()
        extents = extents.tolist()
    else:
        bases = None
        extents = None
    dec_tids = sorted(spec.child_requests) if spec.child_requests else None
    cache = (
        starts.tolist(),
        stops.tolist(),
        sizes.tolist(),
        num_warps,
        executed,
        per_warp,
        bases,
        extents,
        dec_tids,
    )
    spec._dispatch_cache = cache
    return cache


def _make_cta(
    kernel: KernelInstance,
    cta_index: int,
    *,
    num_threads: int,
    num_warps: int,
    regs: int,
    shmem: int,
    warp_total: List[float],
    warp_issue: List[float],
    decisions: List[PendingDecision],
    demand_scale: float,
) -> CTAInstance:
    """Validation-free :class:`CTAInstance` construction.

    Field-for-field (and float-operation-for-float-operation) what
    ``CTAInstance.__init__`` assigns, minus the three consistency raises —
    all guaranteed-true for CTAs the dispatch path itself materializes
    (warp arrays built to ``num_warps``, positive critical paths, decision
    points derived from warp totals).  The ``decisions`` list is owned by
    the caller and never reused, so aliasing it is safe.
    """
    cta = CTAInstance.__new__(CTAInstance)
    cta.kernel = kernel
    cta.cta_index = cta_index
    cta.num_threads = num_threads
    cta.num_warps = num_warps
    cta.regs = regs
    cta.shmem = shmem
    cta.consumed = 0.0
    cta.warp_total = warp_total
    cta.warp_issue = warp_issue
    cta.warp_base_total = warp_total
    cta.warp_base_issue = warp_issue
    cta._thread_extra = None
    cta._warp_extra = None
    cta.demand_scale = demand_scale
    demand = 0.0
    for total, issue in zip(warp_total, warp_issue):
        demand += min(issue / total, 1.0) if total > 0 else 1.0
    cta.demand = max(demand * demand_scale, 1e-3)
    cta.state = CTAState.RUNNING
    cta.smx_index = -1
    cta.dispatch_time = 0.0
    cta.compute_done_time = None
    cta.outstanding_children = 0
    if decisions:
        decisions.sort(key=_decision_key)
        cta.decisions = decisions
        cta.next_decision = 0
        cta.total_work = max(warp_total)
        cta.next_target = decisions[0].at_consumed
    else:
        cta.decisions = decisions
        cta.next_decision = 0
        cta.total_work = max(warp_total)
        cta.next_target = cta.total_work
    return cta


def _decision_key(d: PendingDecision) -> float:
    return d.at_consumed
