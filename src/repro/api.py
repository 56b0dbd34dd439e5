"""The one stable import surface for driving the reproduction.

Everything a caller needs to run simulations lives here::

    from repro.api import simulate, run_suite, RunConfig

    result = simulate("BFS-graph500", "spawn")
    report = run_suite(
        [RunConfig("BFS-graph500", "spawn"), ("MM-small", "flat")],
        jobs=4, timeout=300.0, max_retries=2,
    )

**API stability.**  Names exported from ``repro.api`` follow a
deprecation policy: they are never removed or re-signatured without at
least one release in which the old spelling still works and emits
``DeprecationWarning``; once that release has passed, the old spelling
is deleted.  No deprecated spelling is pending today.  Internal modules
(``repro.sim``, ``repro.harness`` internals, ``repro.core``) remain free
to refactor between releases — import them directly only when you accept
that churn.

The façade deliberately re-exports the few types its signatures mention
(:class:`RunConfig`, :class:`Runner`, :class:`SimResult`,
:class:`GPUConfig`, :class:`SuiteReport`, :class:`ExecutionPolicy`,
:class:`FaultPlan`, ...) so downstream code can depend on ``repro.api``
alone.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple, Union

from repro.errors import (
    HarnessError,
    ReproError,
    RunFailure,
    TaskTimeout,
    WorkerCrash,
)
from repro.harness.faults import FaultPlan, FlakyStore
from repro.harness.parallel import (
    ExecutionPolicy,
    ParallelRunner,
    SuiteReport,
    TaskOutcome,
    default_jobs,
)
from repro.harness.replication import ReplicationResult, replicate
from repro.harness.runner import (
    PER_CHILD,
    PER_PARENT_CTA,
    RunConfig,
    Runner,
    geometric_mean,
)
from repro.harness.schemes import DP_SCHEMES, SchemeSpec
from repro.harness.store import (
    ResultStore,
    StoreBackend,
    default_cache_dir,
    open_store,
)
from repro.harness.history import PerfRecord, load_history
from repro.harness.sweep import SweepResult, offline_search, threshold_sweep
from repro.obs.metrics import METRICS, MetricsRegistry
from repro.obs.tracer import Tracer
from repro.service import (
    AutoTuner,
    FleetConfig,
    FleetOverloaded,
    FleetStats,
    ReplayBudgetExceeded,
    ReplayBudgets,
    ReplayReport,
    RequestLedger,
    ServiceClosed,
    ServiceConfig,
    ServiceFleet,
    ServiceJob,
    ServiceOverloaded,
    ServiceStats,
    SimulationService,
    TrafficRequest,
    drive_service,
    fleet_runners,
    generate_traffic,
    replay_ledger,
)
from repro.sim.config import GPUConfig, kepler_k20m, small_debug_gpu
from repro.sim.engine import SimResult

#: Things run_suite accepts as one entry: a full config or (benchmark, scheme).
ConfigLike = Union[RunConfig, Tuple[str, str]]


def _as_config(entry: ConfigLike, seed: int) -> RunConfig:
    if isinstance(entry, RunConfig):
        return entry
    try:
        benchmark, scheme = entry
    except (TypeError, ValueError):
        raise HarnessError(
            f"suite entries must be RunConfig or (benchmark, scheme), got {entry!r}"
        ) from None
    return RunConfig(benchmark=benchmark, scheme=scheme, seed=seed)


def _make_runner(
    gpu: Optional[GPUConfig],
    max_events: Optional[int],
    store: Optional[ResultStore],
) -> Runner:
    kwargs = {}
    if max_events is not None:
        kwargs["max_events"] = max_events
    return Runner(gpu, store=store, **kwargs)


def simulate(
    benchmark: str,
    scheme: str,
    *,
    gpu: Optional[GPUConfig] = None,
    seed: int = 1,
    cta_threads: Optional[int] = None,
    stream_policy: str = PER_CHILD,
    trace_interval: float = 1000.0,
    max_events: Optional[int] = None,
    runner: Optional[Runner] = None,
    store: Optional[ResultStore] = None,
    tracer: Optional[Tracer] = None,
) -> SimResult:
    """Run (or fetch from cache) one benchmark/scheme combination.

    The end-to-end entry point: builds the Table I benchmark, parses the
    scheme, simulates on ``gpu`` (default: the paper's K20m-like
    configuration) and returns the :class:`SimResult`.  Pass ``runner`` to
    share caches across calls; otherwise ``store`` controls persistence
    for this call's throwaway runner.
    """
    if runner is None:
        runner = _make_runner(gpu, max_events, store)
    config = RunConfig(
        benchmark=benchmark,
        scheme=scheme,
        seed=seed,
        cta_threads=cta_threads,
        stream_policy=stream_policy,
        trace_interval=trace_interval,
    )
    return runner.run(config, tracer=tracer)


def speedup(
    benchmark: str,
    scheme: str,
    *,
    gpu: Optional[GPUConfig] = None,
    seed: int = 1,
    runner: Optional[Runner] = None,
) -> float:
    """Speedup of ``scheme`` over the flat variant (the paper's metric)."""
    if runner is None:
        runner = _make_runner(gpu, None, None)
    return runner.speedup(benchmark, scheme, seed=seed)


def run_suite(
    configs: Sequence[ConfigLike],
    *,
    gpu: Optional[GPUConfig] = None,
    seed: int = 1,
    jobs: Optional[int] = None,
    timeout: Optional[float] = None,
    max_retries: int = 2,
    backoff: float = 0.0,
    fail_fast: bool = False,
    faults: Optional[FaultPlan] = None,
    max_events: Optional[int] = None,
    runner: Optional[Runner] = None,
    store: Optional[ResultStore] = None,
    tracer: Optional[Tracer] = None,
) -> SuiteReport:
    """Run a whole set of configs fault-tolerantly; quarantine failures.

    Entries may be :class:`RunConfig` instances or plain
    ``(benchmark, scheme)`` pairs (run under ``seed``).  The suite
    completes even when individual runs crash, hang past ``timeout``, or
    fail permanently — inspect :attr:`SuiteReport.failures` afterwards, or
    call :meth:`SuiteReport.raise_if_failed`.  Attach a ``store`` to
    checkpoint completed runs: re-invoking after a mid-suite kill
    re-simulates only the missing configs.
    """
    if runner is None:
        runner = _make_runner(gpu, max_events, store)
    policy = ExecutionPolicy(
        timeout=timeout,
        max_retries=max_retries,
        backoff=backoff,
        fail_fast=fail_fast,
    )
    parallel = ParallelRunner(runner, policy=policy, faults=faults, tracer=tracer)
    return parallel.run_suite(
        [_as_config(entry, seed) for entry in configs], jobs=jobs
    )


def serve(
    *,
    jobs: int = 2,
    deadline_ms: Optional[float] = None,
    inline_threshold_ms: float = 0.0,
    max_batch: int = 8,
    max_queue: Optional[int] = None,
    autotune: bool = False,
    shards: int = 1,
    store_url: Optional[str] = None,
    runner: Optional[Runner] = None,
    store: Optional[ResultStore] = None,
    policy: Optional[ExecutionPolicy] = None,
    faults: Optional[FaultPlan] = None,
    tracer: Optional[Tracer] = None,
) -> Union[SimulationService, ServiceFleet]:
    """Build a :class:`SimulationService` (not yet started).

    The async serving entry point::

        async with serve(jobs=2, deadline_ms=500.0) as svc:
            job = await submit(svc, ("BFS-graph500", "spawn"))
            [result] = await gather(svc, [job])

    Requests whose predicted queue delay exceeds ``deadline_ms`` are
    rejected with :class:`ServiceOverloaded` (the predicted-delay
    evidence is attached as ``.decision``); requests predicted cheaper
    than ``inline_threshold_ms`` run directly on the event-loop thread.
    ``autotune=True`` turns on the online successive-halving parameter
    search (:mod:`repro.service.autotune`): tunable requests run the
    tuner's current arm and every completion feeds the search.

    ``shards > 1`` returns a :class:`ServiceFleet` instead — the same
    awaitable surface, but requests consistent-hash onto ``shards``
    independent services.  ``store_url`` (``dir://``, ``sqlite://``,
    ``kv://``) then names the *shared* backend every shard opens its own
    handle to; with one shard it is shorthand for
    ``store=open_store(store_url)``.
    """
    config = ServiceConfig(
        jobs=jobs,
        deadline_ms=deadline_ms,
        inline_threshold_ms=inline_threshold_ms,
        max_batch=max_batch,
        max_queue=max_queue,
        autotune=autotune,
    )
    if shards > 1:
        if runner is not None or store is not None:
            raise HarnessError(
                "serve(shards=N) builds one runner per shard from "
                "store_url; pass store_url, not runner/store"
            )
        return ServiceFleet(
            fleet_runners(shards, store_url=store_url),
            config=FleetConfig(shards=shards, service=config),
            policy=policy,
            faults=faults,
            tracer=tracer,
        )
    if store is None and store_url is not None:
        store = open_store(store_url)
    if runner is None:
        runner = _make_runner(None, None, store)
    return SimulationService(
        runner,
        config=config,
        policy=policy,
        faults=faults,
        tracer=tracer,
    )


async def submit(
    service: SimulationService, entry: ConfigLike, *, seed: int = 1
) -> ServiceJob:
    """Submit one request to a running service; returns its job handle."""
    return await service.submit(entry, seed=seed)


async def gather(
    service: SimulationService,
    jobs,
    *,
    return_exceptions: bool = False,
):
    """Await many job handles (input order), like ``asyncio.gather``."""
    return await service.gather(jobs, return_exceptions=return_exceptions)


__all__ = [
    # entry points
    "simulate",
    "speedup",
    "run_suite",
    "threshold_sweep",
    "offline_search",
    "replicate",
    "geometric_mean",
    "default_jobs",
    "default_cache_dir",
    # serving layer
    "serve",
    "submit",
    "gather",
    "SimulationService",
    "ServiceConfig",
    "ServiceJob",
    "ServiceStats",
    "ServiceFleet",
    "FleetConfig",
    "FleetStats",
    "fleet_runners",
    "AutoTuner",
    "TrafficRequest",
    "generate_traffic",
    # telemetry & load testing
    "METRICS",
    "MetricsRegistry",
    "RequestLedger",
    "ReplayBudgets",
    "ReplayReport",
    "drive_service",
    "replay_ledger",
    "PerfRecord",
    "load_history",
    # core types
    "RunConfig",
    "Runner",
    "ParallelRunner",
    "SimResult",
    "GPUConfig",
    "SchemeSpec",
    "SuiteReport",
    "TaskOutcome",
    "ExecutionPolicy",
    "FaultPlan",
    "FlakyStore",
    "ResultStore",
    "StoreBackend",
    "open_store",
    "SweepResult",
    "ReplicationResult",
    "Tracer",
    # constants / presets
    "DP_SCHEMES",
    "PER_CHILD",
    "PER_PARENT_CTA",
    "kepler_k20m",
    "small_debug_gpu",
    # errors
    "ReproError",
    "HarnessError",
    "RunFailure",
    "WorkerCrash",
    "TaskTimeout",
    "ServiceOverloaded",
    "FleetOverloaded",
    "ServiceClosed",
    "ReplayBudgetExceeded",
]
