"""Deterministic request plans for the three benchmark workloads.

Everything here is a pure function of the workload seed (and of the
work size derived from ``--seconds``); nothing imports the program, so
the program only ever sees the requests these functions generate.

Workload definitions are owned by the benchmark, not read from the
program: the pair lists below are copies of ``harness.bench.BENCH_PAIRS``
and ``service.traffic.DEFAULT_MATRIX`` as they stood when the benchmark
was defined, so a later change to either program constant cannot
silently change what the benchmark measures.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Dict, List, Tuple

COLD = "cold-requests"
WARM = "warm-engine"
SERVICE = "service-open"
WORKLOADS = (COLD, WARM, SERVICE)

#: cold-requests: the graph benchmarks, Mandel, AMR and MM under the
#: three core schemes.  One cycle is every (benchmark, scheme) once.
COLD_BENCHMARKS: Tuple[str, ...] = (
    "BFS-citation",
    "BFS-graph500",
    "SSSP-citation",
    "SSSP-graph500",
    "GC-citation",
    "GC-graph500",
    "Mandel",
    "AMR",
    "MM-small",
)
COLD_SCHEMES: Tuple[str, ...] = ("flat", "baseline-dp", "spawn")
#: Input seeds a cold request may draw, per benchmark.  Every pinned
#: makespan in ``pins.json`` covers this pool, so any workload seed's
#: requests are checkable.  One process never builds a seed twice: a
#: run draws its seeds without replacement from the pool.
COLD_SEED_POOL: Tuple[int, ...] = tuple(range(1, 13))
#: Nominal host seconds of one cold cycle (27 requests) on a 2-vCPU
#: Xeon VM; sets how many whole cycles ``--seconds`` buys.
COLD_CYCLE_S = 20.0
COLD_MAX_CYCLES = 2

#: warm-engine: the heavy pairs of ``harness.bench.BENCH_PAIRS``, all on
#: input seed 1 (the seed ``harness.bench.REFERENCE`` pins).
WARM_PAIRS: Tuple[Tuple[str, str], ...] = (
    ("SA-thaliana", "spawn"),
    ("SA-thaliana", "baseline-dp"),
    ("GC-graph500", "baseline-dp"),
    ("JOIN-uniform", "spawn"),
    ("BFS-graph500", "spawn"),
    ("SSSP-citation", "consolidate"),
    ("SSSP-citation", "aggregate:block"),
    ("SSSP-citation", "acs"),
)
WARM_SEED = 1
#: Seconds of ``--seconds`` that buy one warm cycle (the 8 pairs; about
#: 10-14 host seconds on the same VM): three cycles at ``--seconds 20``,
#: so that each pair's median is over three runs.
WARM_CYCLE_S = 8.0

#: service-open: ``service.traffic.DEFAULT_MATRIX``, Zipf-skewed by rank
#: (rank ``i`` weighs ``1/(i+1)``), crossed with a few input seeds.
SERVICE_MATRIX: Tuple[Tuple[str, str], ...] = (
    ("GC-citation", "flat"),
    ("GC-citation", "spawn"),
    ("MM-small", "flat"),
    ("MM-small", "spawn"),
    ("GC-citation", "baseline-dp"),
    ("MM-small", "baseline-dp"),
    ("GC-citation", "consolidate"),
    ("GC-citation", "acs"),
    ("SelfSim-sparse", "aggregate:block"),
)
#: The seed whose row set-up writes into the store before the clock.
SERVICE_PREWARM_SEED = 1
#: The input seeds a service-open run draws from, the prewarmed one first.
SERVICE_SEEDS: Tuple[int, ...] = (SERVICE_PREWARM_SEED, 2, 3)

#: Offered Poisson rate.  With three seeds, 18 of every 200 requests
#: need a simulation and the rest are cache hits or coalesce; see
#: README.md for why the rate sits well below the burst saturation of
#: this mix.
SERVICE_RATE_RPS = 10.0
#: Latency limit for goodput: a request counts as good when it completes
#: within this many seconds of its *due* time.
SERVICE_LATENCY_LIMIT_S = 1.0

#: Salts keep the three workloads' random streams independent.
_SALT = {COLD: 0xC01D, WARM: 0x3A53, SERVICE: 0x5E21}


@dataclass(frozen=True)
class Request:
    """One generated request: what to simulate and, open loop, when."""

    benchmark: str
    scheme: str
    seed: int
    at: float = 0.0  # due offset in seconds (open loop only)

    @property
    def label(self) -> str:
        return f"{self.benchmark}/{self.scheme}/{self.seed}"


def _rng(workload: str, seed: int, part: int = 0) -> random.Random:
    return random.Random((seed * 1_000_003 + _SALT[workload]) * 31 + part)


def cold_cycles(seconds: float) -> int:
    """Whole cold cycles covering ``seconds`` at the nominal pace."""
    return min(max(1, math.ceil(seconds / COLD_CYCLE_S)), COLD_MAX_CYCLES)


def warm_cycles(seconds: float) -> int:
    """Whole warm cycles covering ``seconds`` at the nominal pace."""
    return max(1, math.ceil(seconds / WARM_CYCLE_S))


def service_count(seconds: float) -> int:
    """Requests in one open-loop schedule of ``seconds`` length."""
    return max(1, round(SERVICE_RATE_RPS * seconds))


def cold_plan(seed: int, cycles: int, passes: int = 1) -> List[List[Request]]:
    """``passes`` disjoint cold plans of ``cycles`` cycles each.

    Each cycle visits every (benchmark, scheme) once in a seeded order.
    No input seed repeats for a benchmark anywhere in the returned
    plans, so every request builds its input anew.
    """
    per_benchmark = len(COLD_SCHEMES) * cycles * passes
    if per_benchmark > len(COLD_SEED_POOL):
        raise ValueError(
            f"{cycles} cycle(s) x {passes} pass(es) need {per_benchmark} "
            f"input seeds per benchmark; the pinned pool has "
            f"{len(COLD_SEED_POOL)}"
        )
    rng = _rng(COLD, seed)
    fresh: Dict[str, List[int]] = {
        name: rng.sample(COLD_SEED_POOL, per_benchmark)
        for name in COLD_BENCHMARKS
    }
    plans: List[List[Request]] = []
    for _ in range(passes):
        plan: List[Request] = []
        for _ in range(cycles):
            combos = [(b, s) for b in COLD_BENCHMARKS for s in COLD_SCHEMES]
            rng.shuffle(combos)
            plan.extend(Request(b, s, fresh[b].pop()) for b, s in combos)
        plans.append(plan)
    return plans


def warm_plan(seed: int, cycles: int) -> List[Request]:
    """``cycles`` seeded permutations of the warm pairs, on seed 1."""
    rng = _rng(WARM, seed)
    plan: List[Request] = []
    for _ in range(cycles):
        pairs = list(WARM_PAIRS)
        rng.shuffle(pairs)
        plan.extend(Request(b, s, WARM_SEED) for b, s in pairs)
    return plan


def zipf_counts(total: int, ranks: int) -> List[int]:
    """``total`` split over ``ranks`` in proportion ``1/(rank+1)``.

    Largest-remainder rounding, ties to the hotter rank, so the counts
    always sum to ``total``.
    """
    weights = [1.0 / (rank + 1) for rank in range(ranks)]
    shares = [total * w / sum(weights) for w in weights]
    counts = [int(share) for share in shares]
    by_remainder = sorted(range(ranks), key=lambda i: (counts[i] - shares[i], i))
    for i in by_remainder[: total - sum(counts)]:
        counts[i] += 1
    return counts


def service_plan(seed: int, seconds: float) -> List[Request]:
    """An open-loop schedule: Poisson arrivals over ``[0, seconds)``.

    The request *mix* is a stratified Zipf sample: pair ``i`` of the
    matrix gets its ``1/(i+1)`` share of the requests, and each pair
    cycles through the input seeds starting with the prewarmed one.
    Every workload seed therefore offers the same multiset of configs
    (the same cache misses, the same simulation work); the seed only
    orders them and draws their arrival times.

    The arrival count is fixed at ``rate x seconds`` and the times are
    sorted uniform draws, which is a Poisson process conditioned on its
    count: every seed offers the same load over the same span.
    """
    count = service_count(seconds)
    rng = _rng(SERVICE, seed)
    others = list(SERVICE_SEEDS[1:])
    mix = []
    for (benchmark, scheme), n in zip(
        SERVICE_MATRIX, zipf_counts(count, len(SERVICE_MATRIX))
    ):
        rotation = [SERVICE_PREWARM_SEED] + rng.sample(others, len(others))
        mix.extend((benchmark, scheme, rotation[i % len(rotation)]) for i in range(n))
    rng.shuffle(mix)
    times = sorted(rng.uniform(0.0, seconds) for _ in range(count))
    return [Request(b, s, run_seed, at) for (b, s, run_seed), at in zip(mix, times)]


def pinned_configs() -> Dict[str, List[Tuple[str, str, int]]]:
    """Every (benchmark, scheme, seed) whose makespan ``pins.json`` holds."""
    return {
        COLD: [
            (b, s, seed)
            for b in COLD_BENCHMARKS
            for s in COLD_SCHEMES
            for seed in COLD_SEED_POOL
        ],
        SERVICE: [
            (b, s, seed)
            for b, s in SERVICE_MATRIX
            for seed in SERVICE_SEEDS
        ],
    }


def pin_key(benchmark: str, scheme: str, seed: int) -> str:
    return f"{benchmark}/{scheme}/{seed}"


__all__ = [
    "COLD",
    "WARM",
    "SERVICE",
    "WORKLOADS",
    "Request",
    "cold_plan",
    "warm_plan",
    "service_plan",
    "cold_cycles",
    "warm_cycles",
    "service_count",
    "pinned_configs",
    "pin_key",
]
