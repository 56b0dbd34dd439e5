"""Execution schemes: the paper's evaluated configurations.

* ``flat``          — the non-DP implementation (normalization baseline);
* ``baseline-dp``   — unrestricted DP at the application's native THRESHOLD;
* ``threshold:<T>`` — DP with a static THRESHOLD of ``T`` (Fig. 5 sweeps);
* ``offline``       — the best static threshold found by exhaustive sweep
  (Offline-Search);
* ``spawn``         — the paper's contribution;
* ``dtbl``          — Dynamic Thread Block Launch (Wang et al.), Fig. 21.

Beyond the paper's Fig. 21 competitors, the scheme zoo adds three
mechanisms named in related work:

* ``consolidate``            — workload consolidation: tiny child launches
  are buffered per parent CTA and submitted as coarser merged kernels
  (``consolidate:<B>`` overrides the batch size in child CTAs);
* ``aggregate:<granularity>`` — launch aggregation at ``warp``, ``block``,
  or ``grid`` granularity (Olabi et al., arXiv:2201.02789);
* ``acs``                    — ACS-style concurrent-kernel scheduling
  (arXiv:2401.12377): SWQ→HWQ binding is reordered by a dependency-aware
  priority instead of strict FCFS, with same-stream order preserved.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.policies import (
    AggregatePolicy,
    ConsolidatePolicy,
    DTBLPolicy,
    LaunchPolicy,
    NeverLaunchPolicy,
    SpawnPolicy,
    StaticThresholdPolicy,
)
from repro.errors import HarnessError
from repro.workloads.base import Benchmark

FLAT = "flat"
BASELINE_DP = "baseline-dp"
OFFLINE = "offline"
SPAWN = "spawn"
DTBL = "dtbl"
CONSOLIDATE = "consolidate"
AGGREGATE = "aggregate"
ACS = "acs"

#: Default merged-kernel batch size (child CTAs) for ``consolidate``.
DEFAULT_CONSOLIDATE_BATCH = 8

#: Aggregation granularities accepted by ``aggregate:<granularity>``.
AGGREGATE_GRANULARITIES = ("warp", "block", "grid")

#: Schemes that run the DP variant of the application.
DP_SCHEMES = (
    BASELINE_DP,
    OFFLINE,
    SPAWN,
    DTBL,
    CONSOLIDATE,
    f"{AGGREGATE}:block",
    ACS,
)


@dataclass(frozen=True)
class SchemeSpec:
    """Parsed scheme: which app variant to build and which policy to use."""

    name: str
    variant: str  # "flat" or "dp"
    threshold: Optional[int] = None  # for threshold:<T>
    granularity: Optional[str] = None  # for aggregate:<granularity>
    batch_ctas: Optional[int] = None  # for consolidate:<B>

    @classmethod
    def parse(cls, scheme: str) -> "SchemeSpec":
        """Parse a scheme string into a :class:`SchemeSpec`."""
        if scheme == FLAT:
            return cls(FLAT, "flat")
        if scheme in (BASELINE_DP, OFFLINE, SPAWN, DTBL, ACS):
            return cls(scheme, "dp")
        if scheme == CONSOLIDATE:
            return cls(scheme, "dp", batch_ctas=DEFAULT_CONSOLIDATE_BATCH)
        if scheme.startswith(f"{CONSOLIDATE}:"):
            try:
                batch = int(scheme.split(":", 1)[1])
            except ValueError:
                raise HarnessError(
                    f"bad consolidate scheme {scheme!r}"
                ) from None
            if batch < 1:
                raise HarnessError(f"non-positive batch in {scheme!r}")
            return cls(scheme, "dp", batch_ctas=batch)
        if scheme.startswith(f"{AGGREGATE}:"):
            granularity = scheme.split(":", 1)[1]
            if granularity not in AGGREGATE_GRANULARITIES:
                raise HarnessError(
                    f"bad aggregate granularity in {scheme!r} (choose from "
                    f"{', '.join(AGGREGATE_GRANULARITIES)})"
                )
            return cls(scheme, "dp", granularity=granularity)
        if scheme == AGGREGATE:
            raise HarnessError(
                "aggregate needs a granularity: aggregate:<warp|block|grid>"
            )
        if scheme.startswith("threshold:"):
            try:
                threshold = int(scheme.split(":", 1)[1])
            except ValueError:
                raise HarnessError(f"bad threshold scheme {scheme!r}") from None
            if threshold < 0:
                raise HarnessError(f"negative threshold in {scheme!r}")
            return cls(scheme, "dp", threshold=threshold)
        raise HarnessError(f"unknown scheme {scheme!r}")

    @property
    def bind_policy(self) -> str:
        """GMU SWQ→HWQ binding policy this scheme requires."""
        return ACS if self.name == ACS else "fcfs"


def make_policy(spec: SchemeSpec, benchmark: Benchmark) -> LaunchPolicy:
    """Instantiate the launch policy for one scheme run.

    ``offline`` has no policy of its own: :meth:`repro.harness.runner.Runner.run`
    resolves it into its winning ``threshold:<T>`` run before reaching here.
    """
    if spec.name == FLAT:
        # The flat app has no launch sites; NeverLaunch documents intent.
        return NeverLaunchPolicy()
    if spec.name == BASELINE_DP:
        return StaticThresholdPolicy(benchmark.default_threshold)
    if spec.name == SPAWN:
        return SpawnPolicy()
    if spec.name == DTBL:
        return DTBLPolicy(benchmark.default_threshold)
    if spec.name == CONSOLIDATE or spec.name.startswith(f"{CONSOLIDATE}:"):
        return ConsolidatePolicy(
            benchmark.default_threshold,
            batch_ctas=spec.batch_ctas or DEFAULT_CONSOLIDATE_BATCH,
        )
    if spec.granularity is not None:
        return AggregatePolicy(benchmark.default_threshold, spec.granularity)
    if spec.name == ACS:
        # ACS reorders SWQ→HWQ binding in the GMU; admission itself is the
        # application's native threshold, exactly like Baseline-DP.
        return StaticThresholdPolicy(benchmark.default_threshold)
    if spec.threshold is not None:
        return StaticThresholdPolicy(spec.threshold)
    raise HarnessError(f"scheme {spec.name!r} has no direct policy")
