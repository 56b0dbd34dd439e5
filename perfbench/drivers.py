"""The three workload drivers: set-up, one measured pass, output checks.

Each driver reaches the program only through ``repro.api`` (``simulate``,
``Runner``, ``open_store``, ``serve``, ``submit``), except that
warm-engine's set-up builds inputs through the workloads layer's public
``get_benchmark(...).dp(seed)``, and warm-engine's outputs are checked
against ``harness.bench.REFERENCE``.

Simulated statistics are *checked* here, never reported as metrics: the
model's fidelity to the paper is tracked in EXPERIMENTS.md, and this
benchmark claims no simulated speedup.
"""

from __future__ import annotations

import asyncio
import contextlib
import gc
import json
import multiprocessing
import os
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

import calibrate
import plan as plans
from spans import ROOT, SpanRecorder, sim_counts

from repro.api import (
    METRICS,
    Runner,
    open_store,
    serve,
    simulate,
    submit,
)

HERE = Path(__file__).resolve().parent
PINS_PATH = HERE / "pins.json"


def load_pins() -> Dict[str, Dict[str, float]]:
    return json.loads(PINS_PATH.read_text())


def canonical(result) -> str:
    """Byte-comparable form of a whole SimResult (strict JSON)."""
    return json.dumps(result.to_dict(), sort_keys=True)


def _span(recorder: Optional[SpanRecorder], name: str, **kwargs):
    if recorder is None:
        return contextlib.nullcontext()
    return recorder.span(name, **kwargs)


@dataclass
class PassResult:
    """What one measured pass produced, before any metric is derived."""

    latencies: List[float] = field(default_factory=list)  # completed, ok
    #: ``benchmark/scheme`` of each latency (closed loops).
    pairs: List[str] = field(default_factory=list)
    #: The p50 is the geometric mean of per-pair medians (closed loops).
    p50_by_pair: bool = False
    attempted: int = 0
    failures: List[str] = field(default_factory=list)  # errors + mismatches
    #: Seconds ``good`` and ``ctas`` are divided by: the requests' own
    #: seconds (closed loop), or from the first due time to the last
    #: completion (open loop).
    window_s: float = 0.0
    good: int = 0  # completed ok (and, open loop, within the limit)
    #: Simulated CTAs: in the results the client received (closed loop),
    #: or in the simulations the service ran itself (open loop).
    ctas: int = 0
    peak_rss_mb: float = 0.0  # read as soon as the measured pass returns
    lateness: List[float] = field(default_factory=list)  # open loop only
    service: Dict[str, float] = field(default_factory=dict)
    queue_s: List[float] = field(default_factory=list)
    dispatch_s: List[float] = field(default_factory=list)
    task_s_p50: float = 0.0  # pool task round trip, from the program's histogram
    #: Seconds of each calibration kernel pass timed between requests
    #: (closed loops only: the open loop's rates are set by its schedule,
    #: and its median, a cache hit, did not follow the kernel).
    calibration: List[float] = field(default_factory=list)


class Driver:
    """One workload: ``setup`` (timed by the caller), ``measure``, ``teardown``."""

    name = ""

    def __init__(self, work_root: Path, requests: List[plans.Request]):
        self.requests = requests
        work_root.mkdir(parents=True, exist_ok=True)
        self.work_dir = Path(tempfile.mkdtemp(prefix=f"{self.name}-", dir=work_root))

    def setup(self) -> None:
        raise NotImplementedError

    def measure(self, recorder: Optional[SpanRecorder]) -> PassResult:
        raise NotImplementedError

    def finish(self, out: PassResult) -> None:
        """Output checks that call the program; never inside a traced pass."""

    def teardown(self) -> None:
        shutil.rmtree(self.work_dir, ignore_errors=True)


class ClosedLoop(Driver):
    """One client sending its next request only after the last returns."""

    def run_one(self, req: plans.Request):
        raise NotImplementedError

    def expected(self, req: plans.Request) -> Optional[float]:
        raise NotImplementedError

    def measure(self, recorder):
        """Send every request, timing the calibration kernel before each."""
        out = PassResult(p50_by_pair=True)
        with calibrate.Calibrator() as calibrator:
            for req in self.requests:
                # Collect the last request's garbage first, so that no
                # request pays for the one before it and the seeded
                # order of the requests does not move the figures.
                gc.collect()
                out.calibration.append(calibrator.sample())
                self.send(req, recorder, out)
        return out

    def send(self, req: plans.Request, recorder, out: PassResult) -> None:
        """One request: time it, check its output, account for it in ``out``."""
        out.attempted += 1
        started = time.perf_counter()
        try:
            with _span(recorder, ROOT, root=True):
                result = self.run_one(req)
        except Exception as exc:  # a failed request is counted, not fatal
            out.failures.append(f"{req.label}: {exc!r}")
            return
        elapsed = time.perf_counter() - started
        out.window_s += elapsed
        expected = self.expected(req)
        if result.makespan != expected:
            out.failures.append(
                f"{req.label}: makespan {result.makespan!r} != {expected!r}"
            )
            return
        out.latencies.append(elapsed)
        out.pairs.append(f"{req.benchmark}/{req.scheme}")
        out.good += 1
        out.ctas += sim_counts(result)["ctas"]


class ColdRequests(ClosedLoop):
    """Sequential cold ``simulate`` calls on one write-through runner.

    The runner writes through to a fresh ``dir://`` store; every request
    names an input seed this process has not built.  Outputs must equal
    the makespans pinned in ``pins.json``.
    """

    name = plans.COLD
    runner = None

    def setup(self) -> None:
        self.pins = load_pins()[plans.COLD]
        self.runner = Runner(store=open_store(f"dir://{self.work_dir / 'store'}"))
        gc.collect()

    def run_one(self, req):
        return simulate(req.benchmark, req.scheme, seed=req.seed, runner=self.runner)

    def expected(self, req):
        return self.pins.get(plans.pin_key(req.benchmark, req.scheme, req.seed))

    def teardown(self) -> None:
        if self.runner is not None:
            self.runner.store.close()
        super().teardown()


class WarmEngine(ClosedLoop):
    """The heavy bench pairs on inputs built during set-up.

    Every run uses a fresh memory-only ``Runner``, so nothing can hit a
    cache.  Outputs must equal ``harness.bench.REFERENCE`` bit for bit.
    """

    name = plans.WARM

    def setup(self) -> None:
        from repro.harness.bench import REFERENCE
        from repro.workloads.base import get_benchmark

        self.reference = {pair: row["makespan"] for pair, row in REFERENCE.items()}
        for name in sorted({b for b, _ in plans.WARM_PAIRS}):
            get_benchmark(name).dp(plans.WARM_SEED)
        gc.collect()

    def run_one(self, req):
        return simulate(req.benchmark, req.scheme, seed=req.seed, runner=Runner())

    def expected(self, req):
        return self.reference.get(f"{req.benchmark}/{req.scheme}")


def worker_count() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without affinity masks
        return os.cpu_count() or 1


@dataclass
class _Outcome:
    req: plans.Request
    due: float
    late: float
    done: float
    result: object = None
    error: Optional[str] = None
    job: object = None


class ServiceOpen(Driver):
    """Open loop at a fixed Poisson rate into ``serve(jobs=nproc)``.

    Set-up writes the seed-1 row into a fresh ``dir://`` store through a
    separate runner, so the service's first seed-1 requests take the
    store read path.  Each request is timed from its *due* time.
    """

    name = plans.SERVICE

    def __init__(self, work_root: Path, requests: List[plans.Request]):
        super().__init__(work_root, requests)
        self.loop = asyncio.new_event_loop()
        self.svc = None
        #: label -> canonical direct-simulate result (the output oracle).
        self.direct: Dict[str, str] = {}
        self._outcomes: List[_Outcome] = []
        #: ids of the jobs the service simulated itself (batch or inline).
        self._executed: set = set()

    def setup(self) -> None:
        self.pins = load_pins()[plans.SERVICE]
        url = f"dir://{self.work_dir / 'store'}"
        prewarm = Runner(store=open_store(url))
        for benchmark, scheme in plans.SERVICE_MATRIX:
            seed = plans.SERVICE_PREWARM_SEED
            result = simulate(benchmark, scheme, seed=seed, runner=prewarm)
            self.direct[plans.pin_key(benchmark, scheme, seed)] = canonical(result)
        prewarm.store.close()
        self.svc = serve(jobs=worker_count(), store_url=url)
        self.loop.run_until_complete(self.svc.start())
        gc.collect()

    async def _one(self, req, due, recorder) -> _Outcome:
        late = time.perf_counter() - due
        outcome = _Outcome(req, due, late, 0.0)
        try:
            with _span(recorder, ROOT, root=True, start=due):
                with _span(recorder, "service.submit"):
                    job = await submit(
                        self.svc, (req.benchmark, req.scheme), seed=req.seed
                    )
                outcome.job = job
                with _span(recorder, "service.await"):
                    outcome.result = await job
        except Exception as exc:  # shed, quarantined or crashed: counted
            outcome.error = repr(exc)
        outcome.done = time.perf_counter()
        return outcome

    async def _drive(self, recorder) -> List[_Outcome]:
        t0 = time.perf_counter()
        tasks = []
        for req in self.requests:
            due = t0 + req.at
            delay = due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            tasks.append(asyncio.create_task(self._one(req, due, recorder)))
        return list(await asyncio.gather(*tasks))

    def measure(self, recorder):
        outcomes = self.loop.run_until_complete(self._drive(recorder))
        out = PassResult(attempted=len(outcomes))
        out.window_s = max(o.done for o in outcomes) - min(o.due for o in outcomes)
        stats = self.svc.stats()
        out.service = {
            "submitted": stats.submitted,
            "cached": stats.cache_hits,
            "coalesced": stats.coalesced,
            "batch": stats.admitted,
            "inline": stats.inline,
            "shed": stats.shed,
            "batches": stats.batches,
            "lost": stats.lost,
        }
        jobs = {id(o.job): o.job for o in outcomes if o.job is not None}
        for job in jobs.values():
            if job.dispatched_at is not None and job.submitted_at is not None:
                out.queue_s.append(job.dispatched_at - job.submitted_at)
                if job.finished_at is not None:
                    out.dispatch_s.append(job.finished_at - job.dispatched_at)
        # A cache hit has no admission decision; every other job ran on
        # the service's dispatch thread, its pool or inline.
        executed = [
            job for job in jobs.values()
            if job.decision is not None and job.finished_at is not None
        ]
        self._executed = {id(job) for job in executed}
        if stats.lost:
            out.failures.append(f"service ledger lost {stats.lost} submission(s)")
        self._outcomes = outcomes
        return out

    def finish(self, out: PassResult) -> None:
        """Check every completed result; runs outside the traced region."""
        counted = set()
        for o in self._outcomes:
            out.lateness.append(o.late)
            if o.error is not None:
                out.failures.append(f"{o.req.label}: {o.error}")
                continue
            mismatch = self._check(o.req, o.result)
            if mismatch:
                out.failures.append(mismatch)
                continue
            latency = o.done - o.due
            out.latencies.append(latency)
            if id(o.job) in self._executed and id(o.job) not in counted:
                counted.add(id(o.job))
                out.ctas += sim_counts(o.result)["ctas"]
            if latency <= plans.SERVICE_LATENCY_LIMIT_S:
                out.good += 1

    def _check(self, req, result) -> Optional[str]:
        """Pinned makespan, then equality with a direct ``simulate``."""
        key = plans.pin_key(req.benchmark, req.scheme, req.seed)
        if result.makespan != self.pins.get(key):
            return (
                f"{key}: makespan {result.makespan!r} != pinned "
                f"{self.pins.get(key)!r}"
            )
        if key not in self.direct:
            direct = simulate(req.benchmark, req.scheme, seed=req.seed, runner=Runner())
            self.direct[key] = canonical(direct)
        if canonical(result) != self.direct[key]:
            return f"{key}: service result differs from a direct simulate"
        return None

    def teardown(self) -> None:
        try:
            if self.svc is not None:
                self.loop.run_until_complete(self.svc.close())
                self.svc.runner.store.close()
            self.loop.run_until_complete(self.loop.shutdown_default_executor())
        finally:
            self.loop.close()
            reap_children()
            super().teardown()


def reap_children(timeout_s: float = 30.0) -> None:
    """Wait for every worker process this process started to exit."""
    deadline = time.monotonic() + timeout_s
    for child in multiprocessing.active_children():
        child.join(max(deadline - time.monotonic(), 0.0))
        if child.is_alive():
            child.terminate()
            child.join(5.0)


def make(
    workload: str, seed: int, seconds: float, work_root: Path, pass_index: int = 0,
    passes: int = 1,
) -> Driver:
    """The driver for ``workload``'s ``pass_index``-th pass of ``passes``.

    Only cold-requests draws disjoint inputs per pass; the other
    workloads run the same requests on every pass.
    """
    if workload == plans.COLD:
        cycles = plans.cold_cycles(seconds)
        requests = plans.cold_plan(seed, cycles, passes)[pass_index]
        return ColdRequests(work_root, requests)
    if workload == plans.WARM:
        return WarmEngine(work_root, plans.warm_plan(seed, plans.warm_cycles(seconds)))
    if workload == plans.SERVICE:
        return ServiceOpen(work_root, plans.service_plan(seed, seconds))
    raise ValueError(f"unknown workload {workload!r}")


def task_seconds_p50() -> float:
    """Median pool task round trip from the program's own histogram."""
    value = METRICS.histogram("harness.task_seconds", mode="pool").quantile(0.5)
    return float(value) if value is not None else 0.0
