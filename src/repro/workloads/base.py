"""Benchmark abstraction: the paper's Table I as a registry.

Every benchmark is an ``<application, input>`` pair that can materialize

* a **flat** variant — the non-DP implementation: one thread per work unit,
  all of the unit's work done serially in that thread (the paper's
  normalization baseline); and
* a **dp** variant — parent kernels whose heavy threads carry
  :class:`~repro.sim.kernel.ChildRequest` launch candidates.  Which
  candidates actually launch is the runtime policy's business
  (Baseline-DP / Offline-Search thresholds, SPAWN, DTBL).

``min_offload_items`` is the *structural* lower bound below which the DP
source simply has no launch site (offloading a handful of items cannot fill
a warp — Section III-A2's intra-warp inefficiency note); the swept
THRESHOLD of Fig. 5 sits on top of it.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Tuple

from repro.errors import HarnessError, WorkloadError
from repro.sim.kernel import Application


class AddressAllocator:
    """Hands out disjoint byte ranges of the simulated address space.

    Workloads allocate one region per data structure (vertex array, edge
    array, matrix, ...) so the L2 model sees realistic, non-overlapping
    footprints with genuine parent<->child sharing inside each region.
    """

    def __init__(self, *, alignment: int = 128):
        if alignment <= 0:
            raise WorkloadError("alignment must be positive")
        self.alignment = alignment
        self._next = 0

    def alloc(self, nbytes: int) -> int:
        """Reserve ``nbytes`` and return the region's base address."""
        if nbytes <= 0:
            raise WorkloadError("allocation must be positive")
        base = self._next
        padded = -(-nbytes // self.alignment) * self.alignment
        self._next = base + padded
        return base

    @property
    def allocated_bytes(self) -> int:
        return self._next


#: Entries each per-seed input cache keeps.  Two inputs per application
#: times ``replicate``'s three default seeds fit; beyond that the least
#: recently used input is rebuilt, which keeps a long-lived process (a
#: ``serve``, a cold loop over fresh seeds) from holding every seed's
#: graph and rounds.
INPUT_CACHE_SIZE = 8

#: Decorator for the workload modules' per-seed input builders.
input_cache = functools.lru_cache(maxsize=INPUT_CACHE_SIZE)


#: A variant builder: (seed, child CTA size override) -> Application.
Builder = Callable[[int, Optional[int]], Application]


@dataclass(frozen=True)
class Benchmark:
    """One row of Table I."""

    name: str  # e.g. "BFS-graph500"
    application: str  # e.g. "Breadth-First Search"
    input_name: str  # e.g. "Graph 500"
    build_flat: Callable[[int], Application]
    build_dp: Builder
    #: THRESHOLD used by the unmodified (Baseline-DP) source code.
    default_threshold: int
    #: THRESHOLD values swept for Fig. 5 / Offline-Search.
    sweep_thresholds: Tuple[int, ...]
    #: Child CTA size the application requests (c_cta).
    default_cta_threads: int = 64
    description: str = ""

    def flat(self, seed: int = 1) -> Application:
        return self.build_flat(seed)

    def dp(self, seed: int = 1, cta_threads: Optional[int] = None) -> Application:
        return self.build_dp(seed, cta_threads)


class BenchmarkRegistry:
    """Name -> :class:`Benchmark` mapping with Table I ordering."""

    def __init__(self) -> None:
        self._benchmarks: Dict[str, Benchmark] = {}

    def register(self, benchmark: Benchmark) -> Benchmark:
        if benchmark.name in self._benchmarks:
            raise HarnessError(f"duplicate benchmark {benchmark.name!r}")
        self._benchmarks[benchmark.name] = benchmark
        return benchmark

    def get(self, name: str) -> Benchmark:
        try:
            return self._benchmarks[name]
        except KeyError:
            known = ", ".join(self._benchmarks)
            raise HarnessError(
                f"unknown benchmark {name!r}; known: {known}"
            ) from None

    def names(self) -> Tuple[str, ...]:
        return tuple(self._benchmarks)

    def __iter__(self):
        return iter(self._benchmarks.values())

    def __len__(self) -> int:
        return len(self._benchmarks)

    def __contains__(self, name: str) -> bool:
        return name in self._benchmarks


#: The global Table I registry; populated by the workload modules on import.
REGISTRY = BenchmarkRegistry()


def get_benchmark(name: str) -> Benchmark:
    """Look up a benchmark, importing the workload modules on first use."""
    _ensure_loaded()
    return REGISTRY.get(name)


def all_benchmarks() -> Tuple[Benchmark, ...]:
    _ensure_loaded()
    return tuple(REGISTRY)


def benchmark_names() -> Tuple[str, ...]:
    _ensure_loaded()
    return REGISTRY.names()


def _ensure_loaded() -> None:
    # Import for registration side effects; idempotent.
    from repro.workloads import (  # noqa: F401
        amr,
        bfs,
        graph_coloring,
        join,
        mandelbrot,
        matmul,
        selfsim,
        seqalign,
        sssp,
    )
