"""Threshold sweeps and Offline-Search (Section III-A / Fig. 5).

Offline-Search itself is defined once, in :mod:`repro.harness.runner`
(:func:`~repro.harness.runner.offline_variants` and its selection rule);
a runner resolves ``scheme="offline"`` like any other scheme.  This module
reports the sweep point by point for Fig. 5 and names the winning
threshold.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.harness import schemes as sch
from repro.harness.runner import (
    RunConfig,
    Runner,
    best_speedup_index,
    offline_variants,
    speedup_over_flat,
)
from repro.sim.engine import SimResult


@dataclass(frozen=True)
class SweepPoint:
    """One static-threshold run of the Fig. 5 characterization."""

    threshold: int
    offload_fraction: float  # x-axis of Fig. 5
    makespan: float
    speedup_over_flat: float
    child_kernels: int


@dataclass(frozen=True)
class SweepResult:
    benchmark: str
    points: Tuple[SweepPoint, ...]

    def best(self) -> SweepPoint:
        speedups = [point.speedup_over_flat for point in self.points]
        return self.points[best_speedup_index(speedups)]


def sweep_plan(
    benchmark_name: str,
    *,
    seed: int = 1,
    thresholds: Optional[Tuple[int, ...]] = None,
) -> List[RunConfig]:
    """The run-set a threshold sweep needs (flat + every threshold).

    Feed this to :meth:`repro.harness.parallel.ParallelRunner.run_many`
    to warm the cache before :func:`threshold_sweep` /
    :func:`offline_search`, which then complete without simulating.
    """
    return offline_variants(
        RunConfig(benchmark=benchmark_name, scheme=sch.OFFLINE, seed=seed),
        thresholds,
    )


def threshold_sweep(
    runner: Runner,
    benchmark_name: str,
    *,
    seed: int = 1,
    thresholds: Optional[Tuple[int, ...]] = None,
    jobs: int = 1,
    policy=None,
) -> SweepResult:
    """Run the benchmark at every static THRESHOLD (plus the flat bound).

    ``jobs > 1`` fans the sweep's runs out across worker processes first;
    results are identical to the serial sweep (simulations are
    deterministic), just wall-clock faster.  ``policy`` is an optional
    :class:`~repro.harness.parallel.ExecutionPolicy` for the fan-out
    (timeouts/retries).
    """
    plan = sweep_plan(benchmark_name, seed=seed, thresholds=thresholds)
    if jobs > 1:
        from repro.harness.parallel import ParallelRunner

        ParallelRunner(runner, policy=policy).run_many(plan, jobs=jobs)
    flat, *results = [runner.run(config) for config in plan]
    points = tuple(
        _point(config, flat, result) for config, result in zip(plan[1:], results)
    )
    return SweepResult(benchmark=benchmark_name, points=points)


def _point(config: RunConfig, flat: SimResult, result: SimResult) -> SweepPoint:
    return SweepPoint(
        threshold=sch.SchemeSpec.parse(config.scheme).threshold,
        offload_fraction=result.stats.offload_fraction,
        makespan=result.makespan,
        speedup_over_flat=speedup_over_flat(flat, result, config),
        child_kernels=result.stats.child_kernels_launched,
    )


def offline_search(
    runner: Runner,
    benchmark_name: str,
    *,
    seed: int = 1,
    jobs: int = 1,
    policy=None,
) -> Tuple[int, SimResult]:
    """Best static threshold and its run (the paper's Offline-Search).

    The run is what ``runner.run`` returns for ``scheme="offline"``; this
    also names the winning threshold.
    """
    best = threshold_sweep(
        runner, benchmark_name, seed=seed, jobs=jobs, policy=policy
    ).best()
    result = runner.run(
        RunConfig(
            benchmark=benchmark_name,
            scheme=f"threshold:{best.threshold}",
            seed=seed,
        )
    )
    return best.threshold, result
