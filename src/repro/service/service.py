"""The asyncio simulation service façade.

``SimulationService`` is the long-running, in-process entry point the
rest of the stack has been building toward: callers ``submit``
RunConfig-shaped requests and await the handles; the service decides —
per request, before any work happens — whether to answer from cache,
coalesce onto an in-flight duplicate, run inline on the event-loop
thread, batch onto the worker pool, or shed.  The decision pipeline, in
order::

    submit(request)
      1. coalesce     duplicate of an in-flight job?  join its handle.
      2. cache        Runner memory/disk hit?  resolve immediately.
      3. admission    SPAWN-style verdict (repro.service.admission):
           shed    -> raise ServiceOverloaded (evidence attached)
           inline  -> simulate here, on the event-loop thread
           admit   -> enqueue for the batching scheduler
      4. batching     scheduler drains admitted jobs into
                      ParallelRunner.run_suite dispatches (worker pool)

Every path funnels through the same deterministic
:class:`~repro.harness.runner.Runner`, so a result obtained through the
service is bit-identical to a direct ``Runner.run`` of the same config —
the load suite (``tests/test_service_load.py``) pins that down, and the
chaos suite proves the execution layer's retry/quarantine guarantees
hold behind the service too (a quarantined job fails its own handle;
nothing else is disturbed).

Observability: ``service.*`` tracer events (wall-clock stamped, like the
``harness.*`` kinds) for every routing decision, ``service.*`` counters
in the service's metrics registry, and a :class:`ServiceStats`
ledger whose headline invariant is *zero lost submissions*.

Latency telemetry (:mod:`repro.obs.metrics`): every job is span-stamped
submit -> dispatch -> finish, feeding per-stage histograms
(``service.stage_seconds`` with ``stage`` in ``admit | queue | dispatch
| total``) and per-admission-route end-to-end histograms
(``service.route_latency_seconds`` with ``route`` in ``cached | inline |
batch``), plus ``service.requests_total`` route counters and
queue-depth/in-flight gauges.  :meth:`SimulationService.stats` digests
them into ``ServiceStats.latency`` (p50/p95/p99 end-to-end and
queue-wait), which ``repro serve --stats-json`` serializes.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, replace
from typing import Iterable, List, Optional, Union

from repro.errors import (
    HarnessError,
    ReproError,
    RunFailure,
    ServiceClosed,
    ServiceOverloaded,
)
from repro.harness import schemes as sch
from repro.harness.faults import FaultPlan
from repro.harness.parallel import (
    FAILED,
    ExecutionPolicy,
    ParallelRunner,
    SuiteReport,
    TaskOutcome,
)
from repro.harness.runner import RunConfig, Runner
from repro.obs.metrics import METRICS, MetricsRegistry
from repro.obs.tracer import (
    NULL_TRACER,
    SERVICE_ADMIT,
    SERVICE_BATCH,
    SERVICE_CACHE_HIT,
    SERVICE_COALESCE,
    SERVICE_COMPLETE,
    SERVICE_INLINE,
    SERVICE_QUARANTINE,
    SERVICE_SHED,
    SERVICE_SUBMIT,
    Tracer,
)
from repro.service.admission import (
    ADMIT,
    INLINE,
    SHED,
    AdmissionController,
    CostModel,
)
from repro.service.autotune import AutoTuner
from repro.service.jobs import (
    CACHED,
    DONE,
    RequestLike,
    ServiceJob,
    ServiceStats,
    as_run_config,
)
from repro.service.jobs import INLINE as JOB_INLINE
from repro.service.scheduler import BatchScheduler
from repro.sim.engine import SimResult
from repro.workloads.base import get_benchmark


@dataclass(frozen=True)
class ServiceConfig:
    """Tunables of one :class:`SimulationService` instance.

    ``deadline_ms`` is the SPAWN-style shed deadline: a request whose
    *predicted queue delay* (predicted backlog seconds / ``jobs``)
    exceeds it is rejected with :class:`~repro.errors.ServiceOverloaded`
    instead of being queued.  ``None`` disables shedding entirely (the
    queue is unbounded, like the paper's GPU without SPAWN).

    ``inline_threshold_ms`` is the "parent does the work" branch: a
    request predicted to cost no more than this runs synchronously on
    the event-loop thread, skipping batch and pool overhead — the
    serving analog of Algorithm 1 serializing small workloads in the
    parent thread.  ``0`` (the default) disables the branch.
    """

    jobs: int = 2  # worker processes per batch dispatch
    deadline_ms: Optional[float] = None  # predicted-delay shed deadline
    inline_threshold_ms: float = 0.0  # small-job inline cutoff
    max_batch: int = 8  # jobs per run_suite dispatch
    max_queue: Optional[int] = None  # admitted-but-unfinished job cap
    ewma_alpha: float = 0.3  # cost model responsiveness
    ewma_window: int = 32  # cost model observation window
    autotune: bool = False  # online successive halving over the sweep grids
    autotune_pulls: int = 1  # observations per arm per halving round
    autotune_seed: int = 0  # exploration-order seed (see autotune module)

    def __post_init__(self) -> None:
        if self.jobs < 1:
            raise HarnessError(f"jobs must be >= 1, got {self.jobs}")
        if self.autotune_pulls < 1:
            raise HarnessError(
                f"autotune_pulls must be >= 1, got {self.autotune_pulls}"
            )
        if self.deadline_ms is not None and self.deadline_ms <= 0:
            raise HarnessError(
                f"deadline_ms must be positive, got {self.deadline_ms}"
            )
        if self.inline_threshold_ms < 0:
            raise HarnessError(
                f"inline_threshold_ms must be >= 0, got "
                f"{self.inline_threshold_ms}"
            )
        if self.max_batch < 1:
            raise HarnessError(f"max_batch must be >= 1, got {self.max_batch}")
        if self.max_queue is not None and self.max_queue < 1:
            raise HarnessError(
                f"max_queue must be >= 1, got {self.max_queue}"
            )


class SimulationService:
    """Batched async simulation service with SPAWN-style admission control.

    Use as an async context manager (or call :meth:`start`/:meth:`close`
    explicitly)::

        async with SimulationService(config=ServiceConfig(jobs=2)) as svc:
            job = await svc.submit(("BFS-graph500", "spawn"))
            result = await job

    ``runner`` supplies the caches (attach a store for cross-process
    persistence); ``policy`` and ``faults`` are passed straight to the
    underlying :class:`~repro.harness.parallel.ParallelRunner`, so the
    execution layer's timeout/retry/quarantine behaviour — and its chaos
    testability — carry over unchanged.
    """

    def __init__(
        self,
        runner: Optional[Runner] = None,
        *,
        config: Optional[ServiceConfig] = None,
        policy: Optional[ExecutionPolicy] = None,
        faults: Optional[FaultPlan] = None,
        tracer: Optional[Tracer] = None,
        metrics: Optional[MetricsRegistry] = None,
    ):
        self.runner = runner if runner is not None else Runner()
        self.config = config if config is not None else ServiceConfig()
        self.tracer = tracer if tracer is not None else NULL_TRACER
        #: Latency/counter instruments; the process-wide registry unless
        #: the caller injects its own (tests, per-replay isolation).
        self.metrics = metrics if metrics is not None else METRICS
        self._stage_hist = {
            stage: self.metrics.histogram("service.stage_seconds", stage=stage)
            for stage in ("admit", "queue", "dispatch", "total")
        }
        self._queue_gauge = self.metrics.gauge("service.queue_depth")
        self._inflight_gauge = self.metrics.gauge("service.in_flight")
        self.model = CostModel(
            alpha=self.config.ewma_alpha, window=self.config.ewma_window
        )
        deadline_s = (
            self.config.deadline_ms / 1000.0
            if self.config.deadline_ms is not None
            else None
        )
        self.controller = AdmissionController(
            self.model,
            workers=self.config.jobs,
            deadline_s=deadline_s,
            inline_threshold_s=self.config.inline_threshold_ms / 1000.0,
            max_queue=self.config.max_queue,
        )
        #: Online parameter search (None unless ``config.autotune``).  It
        #: shares the service's runner, so warm starts read the same
        #: store backend that batch results persist into.
        self.autotuner: Optional[AutoTuner] = None
        if self.config.autotune:
            self.autotuner = AutoTuner(
                runner=self.runner,
                pulls_per_round=self.config.autotune_pulls,
                seed=self.config.autotune_seed,
                tracer=self.tracer,
                metrics=self.metrics,
            )
        self._parallel = ParallelRunner(
            self.runner, policy=policy, faults=faults, tracer=tracer
        )
        self._scheduler = BatchScheduler(
            self._dispatch, self._on_batch_done,
            max_batch=self.config.max_batch,
        )
        self._inflight: dict = {}  # RunConfig.key() -> ServiceJob
        self._stats = ServiceStats()
        self._started = False
        self._closed = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> "SimulationService":
        if self._closed:
            raise ServiceClosed("service already closed")
        if not self._started:
            self._scheduler.start()
            self._started = True
        return self

    async def close(self, *, drain: bool = True) -> None:
        """Stop accepting work; by default finish everything queued first."""
        if self._closed:
            return
        self._closed = True
        if self._started:
            stranded = await self._scheduler.stop(drain=drain)
            for job in stranded:
                self._finish_job(
                    job, error=ServiceClosed(
                        f"{job.config.benchmark}/{job.config.scheme} "
                        "abandoned: service closed without draining"
                    )
                )

    async def __aenter__(self) -> "SimulationService":
        return await self.start()

    async def __aexit__(self, exc_type, exc, tb) -> None:
        await self.close()

    # ------------------------------------------------------------------
    # Submission pipeline
    # ------------------------------------------------------------------
    async def submit(self, entry: RequestLike, *, seed: int = 1) -> ServiceJob:
        """Route one request; returns its (possibly shared) job handle.

        Raises :class:`~repro.errors.ServiceOverloaded` when the
        admission controller sheds the request, and
        :class:`~repro.errors.HarnessError` for requests that could
        never simulate (unknown benchmark or scheme) — malformed traffic
        is rejected at the door, not quarantined in a batch.
        """
        if self._closed:
            raise ServiceClosed("service is closed")
        if not self._started:
            await self.start()
        submitted_at = time.perf_counter()
        config = as_run_config(entry, seed)
        # Validate eagerly so one bad request cannot poison a batch.
        get_benchmark(config.benchmark)
        sch.SchemeSpec.parse(config.scheme)
        if self.autotuner is not None:
            # Tunable requests run the tuner's current arm.  Rewriting
            # before coalesce/cache means identical proposals dedup onto
            # one simulation — repeat pulls of an arm are free.
            tuned = self.autotuner.rewrite(config)
            if tuned is not config:
                self._stats.autotuned += 1
                self.metrics.counter("service.autotuned").inc()
                config = tuned
        self._stats.submitted += 1
        self.metrics.counter("service.submitted").inc()
        self._emit(
            SERVICE_SUBMIT,
            benchmark=config.benchmark, scheme=config.scheme, seed=config.seed,
        )

        # 1. Coalesce onto an identical in-flight job.
        job = self._inflight.get(config.key())
        if job is not None:
            job.waiters += 1
            self._stats.coalesced += 1
            self._stats.in_flight += 1
            self._inflight_gauge.inc()
            self.metrics.counter("service.requests_total", route="coalesced").inc()
            self._emit(
                SERVICE_COALESCE,
                benchmark=config.benchmark, scheme=config.scheme,
                waiters=job.waiters,
            )
            return job

        # 2. Serve from the runner's memory/disk cache, pool untouched.
        cached = self.runner.cached(config)
        if cached is not None:
            self._stats.cache_hits += 1
            self._stats.completed += 1
            self.metrics.counter("service.requests_total", route="cached").inc()
            self._emit(
                SERVICE_CACHE_HIT,
                benchmark=config.benchmark, scheme=config.scheme,
            )
            job = ServiceJob(config)
            job.submitted_at = submitted_at
            job.resolve(cached, state=CACHED)
            self._observe_latency(job, "cached")
            if self.autotuner is not None:
                # A cache hit is still a completed pull of its arm — the
                # deterministic makespan is the objective, so a stored
                # result is exactly as informative as a fresh one.
                self.autotuner.observe(config, makespan=cached.makespan)
            return job

        # 3. Admission: price the request before it may touch the pool.
        decision = self.controller.decide(config.benchmark, config.scheme)
        self._stage_hist["admit"].observe(
            max(time.perf_counter() - submitted_at, 0.0)
        )
        if decision.verdict == SHED:
            self._stats.shed += 1
            self.metrics.counter("service.requests_total", route="shed").inc()
            self._emit(
                SERVICE_SHED,
                benchmark=config.benchmark, scheme=config.scheme,
                **decision.evidence(),
            )
            raise ServiceOverloaded(
                f"{config.benchmark}/{config.scheme} shed: predicted queue "
                f"delay {decision.predicted_delay_s:.3f}s exceeds the "
                f"{decision.deadline_s}s deadline "
                f"(queue depth {decision.queue_depth})",
                decision=decision,
            )
        if decision.verdict == INLINE:
            return self._run_inline(config, decision, submitted_at)

        # 4. Admit to the batching scheduler.
        assert decision.verdict == ADMIT
        job = ServiceJob(config, decision=decision)
        job.submitted_at = submitted_at
        self._inflight[job.key] = job
        self.controller.on_admitted(decision)
        self._scheduler.enqueue(job)
        self._stats.admitted += 1
        self._stats.in_flight += 1
        self._stats.peak_queue_depth = max(
            self._stats.peak_queue_depth, self._scheduler.queue_depth
        )
        self.metrics.counter("service.requests_total", route="batch").inc()
        self._queue_gauge.set(self._scheduler.queue_depth)
        self._inflight_gauge.inc()
        self._emit(
            SERVICE_ADMIT,
            benchmark=config.benchmark, scheme=config.scheme,
            **decision.evidence(),
        )
        return job

    async def gather(
        self,
        jobs: Iterable[ServiceJob],
        *,
        return_exceptions: bool = False,
    ) -> List[Union[SimResult, BaseException]]:
        """Await many handles (in input order), like ``asyncio.gather``."""
        return await asyncio.gather(
            *(job.result() for job in jobs),
            return_exceptions=return_exceptions,
        )

    # ------------------------------------------------------------------
    # Inline path ("the parent does the work")
    # ------------------------------------------------------------------
    def _run_inline(
        self, config: RunConfig, decision, submitted_at: float
    ) -> ServiceJob:
        """Simulate a predicted-small job on the event-loop thread.

        Deliberately blocking: the whole point of the branch is that for
        jobs cheaper than the batching overhead, doing the work here
        beats queueing it — exactly the paper's serialize-in-parent
        argument.  The admission threshold bounds the stall.
        """
        job = ServiceJob(config, decision=decision)
        job.submitted_at = submitted_at
        self._stats.inline += 1
        self.metrics.counter("service.requests_total", route="inline").inc()
        self._emit(
            SERVICE_INLINE,
            benchmark=config.benchmark, scheme=config.scheme,
            **decision.evidence(),
        )
        start = time.perf_counter()
        try:
            result = self.runner.run(config)
        except ReproError as exc:
            failure = RunFailure(
                f"{config.benchmark}/{config.scheme} failed inline: {exc}",
                config=config,
                attempts=1,
            )
            failure.__cause__ = exc
            self._stats.failed += 1
            self._stats.quarantined += 1
            self.metrics.counter("service.quarantined").inc()
            self._emit(
                SERVICE_QUARANTINE,
                benchmark=config.benchmark, scheme=config.scheme,
                error=str(exc),
            )
            job.fail(failure)
            self._observe_latency(job, "inline")
            return job
        elapsed = time.perf_counter() - start
        self.model.observe(
            config.benchmark, config.scheme, elapsed, cycles=result.makespan
        )
        if self.autotuner is not None:
            self.autotuner.observe(
                config, seconds=elapsed, makespan=result.makespan
            )
        self._stats.completed += 1
        self._emit(
            SERVICE_COMPLETE,
            benchmark=config.benchmark, scheme=config.scheme,
            seconds=elapsed, path=JOB_INLINE,
        )
        job.resolve(result, state=JOB_INLINE)
        self._observe_latency(job, "inline")
        return job

    # ------------------------------------------------------------------
    # Batch dispatch (scheduler callbacks)
    # ------------------------------------------------------------------
    def _dispatch(self, configs: List[RunConfig]) -> SuiteReport:
        """Blocking pool dispatch; runs on an executor thread.

        Must never raise: an exception here would kill the scheduler loop
        and strand every awaiting handle.  Submit-time validation makes a
        batch-level failure genuinely exceptional; if one happens anyway,
        it is converted into a report that quarantines the whole batch.
        """
        try:
            return self._parallel.run_suite(configs, jobs=self.config.jobs)
        except Exception as exc:
            report = SuiteReport(configs=list(configs))
            report.results = [None] * len(configs)
            for config in configs:
                failure = RunFailure(
                    f"{config.benchmark}/{config.scheme}: batch dispatch "
                    f"failed: {exc}",
                    config=config,
                )
                failure.__cause__ = exc
                report.outcomes.append(
                    TaskOutcome(
                        config=config, status=FAILED,
                        error=str(failure), failure=failure,
                    )
                )
                report.quarantined += 1
            return report

    def _on_batch_done(
        self,
        batch: List[ServiceJob],
        report: SuiteReport,
        elapsed: float,
    ) -> None:
        self._stats.batches += 1
        self._stats.pool_runs += len(report.outcomes)
        self._stats.pool_resumed += report.resumed
        self._stats.retries += report.retries
        self._stats.timeouts += report.timeouts
        self._stats.worker_crashes += report.worker_crashes
        self._stats.max_batch_size = max(
            self._stats.max_batch_size, len(batch)
        )
        self.metrics.counter("service.batches").inc()
        self.metrics.counter("service.batched_jobs").inc(len(batch))
        self.metrics.histogram("service.batch_seconds").observe(max(elapsed, 0.0))
        self._queue_gauge.set(self._scheduler.queue_depth)
        self._emit(
            SERVICE_BATCH,
            size=len(batch), seconds=elapsed,
            pool_runs=len(report.outcomes), resumed=report.resumed,
        )
        # Attribute the batch's wall time evenly across its jobs: crude,
        # but an EWMA over many batches converges on per-pair cost, and
        # admission only needs ordering-quality estimates.
        share = elapsed / len(batch)
        for job, result in zip(batch, report.results):
            failure = None
            if result is None:
                failure = self._quarantine_failure(job.config, report)
            else:
                self.model.observe(
                    job.config.benchmark, job.config.scheme, share,
                    cycles=result.makespan,
                )
                if self.autotuner is not None:
                    self.autotuner.observe(
                        job.config, seconds=share, makespan=result.makespan
                    )
            self._finish_job(job, result=result, error=failure)

    def _quarantine_failure(
        self, config: RunConfig, report: SuiteReport
    ) -> RunFailure:
        """The typed failure the execution layer recorded for ``config``."""
        for outcome in report.outcomes:
            if outcome.config.key() == config.key() and outcome.failure:
                return outcome.failure
        return RunFailure(
            f"{config.benchmark}/{config.scheme} was quarantined",
            config=config,
        )

    def _finish_job(
        self,
        job: ServiceJob,
        *,
        result: Optional[SimResult] = None,
        error: Optional[BaseException] = None,
    ) -> None:
        self._inflight.pop(job.key, None)
        if job.decision is not None:
            self.controller.on_finished(job.decision)
        self._stats.in_flight -= job.waiters
        self._inflight_gauge.dec(job.waiters)
        self._observe_latency(job, "batch")
        if error is not None:
            self._stats.failed += job.waiters
            self._stats.quarantined += 1
            self.metrics.counter("service.quarantined").inc()
            self._emit(
                SERVICE_QUARANTINE,
                benchmark=job.config.benchmark, scheme=job.config.scheme,
                error=str(error),
            )
            job.fail(error)
        else:
            self._stats.completed += job.waiters
            self._emit(
                SERVICE_COMPLETE,
                benchmark=job.config.benchmark, scheme=job.config.scheme,
                waiters=job.waiters, path=DONE,
            )
            job.resolve(result)

    # ------------------------------------------------------------------
    # Latency spans (repro.obs.metrics)
    # ------------------------------------------------------------------
    def _observe_latency(self, job: ServiceJob, route: str) -> None:
        """Close a job's span stamps into the stage/route histograms.

        Called exactly once per unique job, at resolution (any path,
        success or failure — a quarantined request still *answered* in
        that much wall time).  Jobs without a submit stamp (defensive
        only) are skipped rather than recorded as zero.
        """
        now = time.perf_counter()
        job.finished_at = now
        start = job.submitted_at
        if start is None:
            return
        total = max(now - start, 0.0)
        self._stage_hist["total"].observe(total)
        self.metrics.histogram(
            "service.route_latency_seconds", route=route
        ).observe(total)
        if job.dispatched_at is not None:
            self._stage_hist["queue"].observe(
                max(job.dispatched_at - start, 0.0)
            )
            self._stage_hist["dispatch"].observe(
                max(now - job.dispatched_at, 0.0)
            )

    def _latency_digest(self) -> dict:
        """The ``ServiceStats.latency`` section: JSON-ready percentiles."""
        digest = {
            "end_to_end": self._stage_hist["total"].summary(),
            "queue_wait": self._stage_hist["queue"].summary(),
        }
        routes = {}
        for route in ("cached", "inline", "batch"):
            hist = self.metrics.histogram(
                "service.route_latency_seconds", route=route
            )
            if hist.count:
                routes[route] = hist.summary()
        digest["routes"] = routes
        return digest

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def stats(self) -> ServiceStats:
        """A point-in-time copy of the ledger, with the model snapshot."""
        return replace(
            self._stats,
            model=self.model.snapshot(),
            autotune=(
                self.autotuner.snapshot() if self.autotuner is not None else {}
            ),
            latency=self._latency_digest(),
        )

    @property
    def queue_depth(self) -> int:
        return self._scheduler.queue_depth

    def _emit(self, kind: str, **args) -> None:
        if self.tracer.enabled:
            self.tracer.emit(kind, ts=time.perf_counter(), **args)
