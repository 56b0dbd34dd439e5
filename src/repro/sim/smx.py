"""SMX (streaming multiprocessor) model.

Each SMX is a processor-sharing server over its resident CTAs.  A CTA's
*work* is its critical-path latency in cycles (the slowest of its warps,
stalls included); its *demand* is the issue-slot occupancy of its warps.
When the summed demand of resident CTAs exceeds the SMX's issue capacity,
everything slows down uniformly by ``capacity / total_demand`` —
proportional-share scheduling, which is what a fine-grained GTO warp
scheduler averages out to at the timescales the paper's mechanism operates
on.

This is the component that reproduces the paper's utilization story: a lone
lightweight child CTA leaves most issue slots idle (Fig. 6's low
utilization tail), while a healthy mix of parent and child CTAs keeps the
SMX saturated.

Besides completions, the SMX also surfaces *decision points*: progress
positions at which a resident parent CTA's threads execute their device
launch calls (see :class:`repro.sim.instances.PendingDecision`).

Resident-CTA progress state (consumed cycles, critical-path totals, next
decision/completion targets) lives in parallel lists row-aligned with
``resident``.  The lists are authoritative for progress; ``cta.consumed``
is written back only when the engine is about to act on the CTA (fired
decisions, completion, removal) — read it through :meth:`SMX.progress`
in between.  Every arithmetic statement mirrors the per-CTA scalar form
per element, so the stored float64 values are bit-identical to the
object-state reference (:class:`repro.check.reference.ReferenceSMX`).

The lists are plain Python lists, deliberately: with residency capped at
``max_ctas_per_smx`` (16 in the paper's configuration) every per-event
operation is a <=16-element op, and numpy's per-ufunc dispatch overhead
made each one slower than the list form (about 1.7us vs 0.7us for the
bulk advance, 2.2us vs 1.2us for the horizon min; see DESIGN §13).

Beyond the layout, two structural shortcuts:

* The event horizon ``min(next_target - consumed)`` is cached: placements
  at the same timestamp update it incrementally (``min`` is
  order-independent, so the incremental value equals the full reduction
  bit-for-bit), turning the engine's reschedule-per-placement pattern
  from O(residents) into O(1).
* ``_dec_count`` counts residents with a pending decision, giving O(1)
  rejection for the fired-decision scan (most events concern pure child
  CTAs, which never have decisions) and for the completion scan when
  every resident still has one.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.errors import SimulationError
from repro.sim.config import GPUConfig
from repro.sim.instances import EPSILON, CTAInstance


class SMX:
    """Resource accounting plus processor-sharing progress for one SMX."""

    __slots__ = ("index", "config", "capacity", "resident", "used_threads",
                 "used_regs", "used_shmem", "used_warps", "_total_demand",
                 "_last_update", "_consumed", "_total", "_target",
                 "_has_dec", "_dec_count", "_slack", "_slack_valid")

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
        # Row-aligned with ``resident`` (see the module docstring).
        self._consumed: List[float] = []
        self._total: List[float] = []
        self._target: List[float] = []
        self._has_dec: List[bool] = []
        self._dec_count = 0  # residents with a pending decision
        self._slack = 0.0
        self._slack_valid = False

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
    def has_free_cta_slot(self) -> bool:
        return len(self.resident) < self.config.max_ctas_per_smx

    @property
    def num_resident(self) -> int:
        return len(self.resident)

    @property
    def scale(self) -> float:
        """Current uniform progress rate of resident CTAs (<= 1)."""
        if self._total_demand <= self.capacity:
            return 1.0
        return self.capacity / self._total_demand

    @property
    def compute_utilization(self) -> float:
        """Fraction of issue capacity in use."""
        return min(self._total_demand, self.capacity) / self.capacity

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
        consumed = self._consumed
        if consumed:
            step = self.scale * (now - last)
            total = self._total
            for i in range(len(consumed)):
                c = consumed[i] + step
                t = total[i]
                consumed[i] = c if c < t else t
            self._slack_valid = False
        self._last_update = now

    def add(self, cta: CTAInstance, now: float) -> None:
        """Place a CTA on this SMX (caller must have checked ``can_fit``)."""
        if not self.can_fit(threads=cta.num_threads, regs=cta.regs,
                            shmem=cta.shmem):
            raise SimulationError(f"CTA {cta!r} does not fit on SMX {self.index}")
        self.advance(now)
        cta.smx_index = self.index
        self.resident.append(cta)
        self._consumed.append(0.0)
        self._total.append(cta.total_work)
        self._target.append(cta.next_target)
        has_dec = cta.next_decision < len(cta.decisions)
        self._has_dec.append(has_dec)
        if has_dec:
            self._dec_count += 1
        self.used_threads += cta.num_threads
        self.used_regs += cta.regs
        self.used_shmem += cta.shmem
        self.used_warps += cta.num_warps
        self._total_demand += cta.demand
        if self._slack_valid:
            # New CTA's slack is next_target - 0.0; min() is
            # order-independent, so updating incrementally matches the
            # full reduction bit-for-bit.
            slack = cta.next_target
            if slack < self._slack:
                self._slack = slack

    def remove(self, cta: CTAInstance, now: float) -> None:
        self.advance(now)
        try:
            i = self.resident.index(cta)
        except ValueError:
            raise SimulationError(
                f"CTA {cta!r} not resident on SMX {self.index}"
            ) from None
        cta.consumed = self._consumed[i]
        if self._has_dec[i]:
            self._dec_count -= 1
        del self.resident[i]
        del self._consumed[i]
        del self._total[i]
        del self._target[i]
        del self._has_dec[i]
        self.used_threads -= cta.num_threads
        self.used_regs -= cta.regs
        self.used_shmem -= cta.shmem
        self.used_warps -= cta.num_warps
        self._total_demand -= cta.demand
        if self._total_demand < EPSILON:
            self._total_demand = 0.0
        cta.smx_index = -1
        self._slack_valid = False

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
        i = self.resident.index(cta)
        self._total[i] = cta.total_work
        self._target[i] = cta.next_target
        has_dec = cta.next_decision < len(cta.decisions)
        if has_dec != self._has_dec[i]:
            self._dec_count += 1 if has_dec else -1
            self._has_dec[i] = has_dec
        self._slack_valid = False

    def progress(self, cta: CTAInstance) -> float:
        """Consumed cycles of resident ``cta`` as of the last advance."""
        return self._consumed[self.resident.index(cta)]

    # ------------------------------------------------------------------
    # Event horizon
    # ------------------------------------------------------------------
    def next_event_time(self, now: float) -> Optional[float]:
        """Earliest completion *or* decision-point crossing, or None.

        All resident CTAs progress at the same rate, so the horizon is
        ``now + min(next_target - consumed) / rate``.
        """
        if not self.resident:
            return None
        self.advance(now)
        if self._slack_valid:
            slack = self._slack
        else:
            consumed = self._consumed
            target = self._target
            slack = min(
                target[i] - consumed[i] for i in range(len(consumed))
            )
            self._slack = slack
            self._slack_valid = True
        if slack <= 0.0:
            return now
        return now + slack / self.scale

    def ctas_with_fired_decisions(self) -> List[CTAInstance]:
        """Resident CTAs whose next decision point has been crossed."""
        # O(1) rejection: most SMX events fire on CTAs with no pending
        # decision (pure children) — skip the scan entirely then.
        if self._dec_count == 0:
            return []
        resident = self.resident
        consumed = self._consumed
        fired = []
        for i in range(len(resident)):
            cta = resident[i]
            if (
                cta.next_decision < len(cta.decisions)
                and cta.next_target <= consumed[i] + EPSILON
            ):
                # Sync progress back: pop_fired_decisions thresholds on it.
                cta.consumed = consumed[i]
                fired.append(cta)
        return fired

    def pop_finished(self, now: float) -> List[CTAInstance]:
        """Advance to ``now`` and detach every CTA whose compute is done."""
        self.advance(now)
        resident = self.resident
        n = len(resident)
        # A CTA with a pending decision is never compute_finished, so when
        # every resident still has one there is nothing to scan for.
        if n == 0 or self._dec_count == n:
            return []
        consumed = self._consumed
        total = self._total
        target = self._target
        finished: List[CTAInstance] = []
        rows: List[int] = []
        for i in range(n):
            cta = resident[i]
            if (
                consumed[i] >= total[i] - EPSILON
                and cta.next_decision >= len(cta.decisions)
            ):
                cta.consumed = consumed[i]
                finished.append(cta)
                rows.append(i)
        if not finished:
            return []
        # Compact row-by-row from the highest index so earlier row
        # numbers stay valid (C-level memmoves on plain lists).  Finished
        # CTAs never have a pending decision, so _dec_count is unchanged.
        has_dec = self._has_dec
        for j in range(len(rows) - 1, -1, -1):
            i = rows[j]
            del resident[i]
            del consumed[i]
            del total[i]
            del target[i]
            del has_dec[i]
        # Detach in resident order, subtracting demand sequentially with
        # the reference's per-step underflow clamp — float-identical to
        # calling remove() once per finished CTA.
        for cta in finished:
            self.used_threads -= cta.num_threads
            self.used_regs -= cta.regs
            self.used_shmem -= cta.shmem
            self.used_warps -= cta.num_warps
            self._total_demand -= cta.demand
            if self._total_demand < EPSILON:
                self._total_demand = 0.0
            cta.smx_index = -1
        self._slack_valid = False
        return finished

    def snapshot(self) -> Tuple[int, int, int, int]:
        """(ctas, warps, regs, shmem) currently in use."""
        return (len(self.resident), self.used_warps, self.used_regs, self.used_shmem)

    # ------------------------------------------------------------------
    # Conformance
    # ------------------------------------------------------------------
    def check_invariants(self) -> List[str]:
        """Internal-consistency audit used by :mod:`repro.check`.

        Verifies that the incrementally maintained resource counters and
        demand sum match a from-scratch recomputation over the resident
        CTAs, and that residency respects the configured caps.  Returns a
        list of human-readable violation messages (empty when healthy).
        """
        problems: List[str] = []
        cfg = self.config
        sums = {
            "used_threads": sum(c.num_threads for c in self.resident),
            "used_warps": sum(c.num_warps for c in self.resident),
            "used_regs": sum(c.regs for c in self.resident),
            "used_shmem": sum(c.shmem for c in self.resident),
        }
        for name, expected in sums.items():
            actual = getattr(self, name)
            if actual != expected:
                problems.append(
                    f"SMX {self.index}: {name}={actual} but residents sum "
                    f"to {expected}"
                )
        demand = sum(c.demand for c in self.resident)
        if abs(self._total_demand - demand) > 1e-6 * max(1.0, demand):
            problems.append(
                f"SMX {self.index}: total_demand={self._total_demand} but "
                f"residents sum to {demand}"
            )
        caps = (
            (len(self.resident), cfg.max_ctas_per_smx, "CTAs"),
            (self.used_threads, cfg.max_threads_per_smx, "threads"),
            (self.used_regs, cfg.registers_per_smx, "registers"),
            (self.used_shmem, cfg.shared_mem_per_smx, "shared memory"),
        )
        for used, cap, what in caps:
            if used > cap:
                problems.append(
                    f"SMX {self.index}: {used} {what} resident, cap {cap}"
                )
        return problems
