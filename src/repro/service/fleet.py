"""Sharded serving: consistent-hash routing over a fleet of services.

The paper distributes dynamic-parallelism work across many SMXs under a
per-unit cost model; :class:`ServiceFleet` re-instantiates that one
level up.  N :class:`~repro.service.service.SimulationService` shards —
each with its own worker pool, its own SPAWN-style
:class:`~repro.service.admission.AdmissionController` cost model, and
its own connection to a shared store backend — sit behind one front
door:

* **Routing.**  A request's :meth:`RunConfig.key` is consistent-hashed
  onto the ring (:class:`ConsistentHashRing`, virtual nodes for
  balance), so identical requests always land on the same shard.  That
  is what makes coalescing and cache dedup work *fleet-wide*: the home
  shard sees every duplicate, and a result any shard persisted is a
  store hit for the rest through the shared backend
  (``sqlite://`` WAL file or ``kv://`` shim).
* **Failover.**  If the home shard sheds, the front door walks the
  ring-order preference list; a request only fails over when its home
  is saturated, so dedup degrades gracefully instead of collapsing.
* **Typed re-shed.**  When every candidate sheds, the front door raises
  :class:`~repro.errors.FleetOverloaded` naming the saturated home
  shard and carrying each attempted shard's
  :class:`~repro.service.admission.AdmissionDecision`.

:class:`FleetStats` sums the per-shard waiter-weighted ledgers; the
PR-5 invariants (``lost == 0``,
``submitted == completed + failed + shed + in_flight``) hold fleet-wide
because they hold per shard and the front door never drops a
submission between shards.
"""

from __future__ import annotations

import asyncio
import bisect
import hashlib
import json
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Union

from repro.errors import (
    FleetOverloaded,
    HarnessError,
    ServiceClosed,
    ServiceOverloaded,
)
from repro.harness.faults import FaultPlan
from repro.harness.parallel import ExecutionPolicy
from repro.harness.runner import Runner
from repro.harness.store import open_store
from repro.obs.metrics import METRICS, MetricsRegistry
from repro.obs.tracer import Tracer
from repro.service.autotune import merge_autotune_snapshots
from repro.service.jobs import RequestLike, ServiceJob, ServiceStats, as_run_config
from repro.service.service import ServiceConfig, SimulationService
from repro.sim.config import GPUConfig
from repro.sim.engine import SimResult


class ConsistentHashRing:
    """Map opaque keys onto shard indices with a virtual-node hash ring.

    Classic consistent hashing: each shard contributes
    ``virtual_nodes`` points (SHA-256 of ``shard-<i>#<v>``) on a ring;
    a key routes to the first point clockwise of its own hash.
    :meth:`preference` extends that to the full failover order — the
    distinct shards encountered walking the ring — so "next best shard"
    is deterministic and evenly distributed, not just ``(i + 1) % N``.
    """

    def __init__(self, shards: int, *, virtual_nodes: int = 64):
        if shards < 1:
            raise HarnessError(f"ring needs >= 1 shard, got {shards}")
        if virtual_nodes < 1:
            raise HarnessError(
                f"virtual_nodes must be >= 1, got {virtual_nodes}"
            )
        self.shards = shards
        points = []
        for shard in range(shards):
            for node in range(virtual_nodes):
                points.append((self._hash(f"shard-{shard}#{node}"), shard))
        points.sort()
        self._points = points
        self._hashes = [point for point, _ in points]

    @staticmethod
    def _hash(text: str) -> int:
        return int.from_bytes(
            hashlib.sha256(text.encode("utf-8")).digest()[:8], "big"
        )

    @staticmethod
    def canonical_key(run_key) -> str:
        """Stable string form of a :meth:`RunConfig.key` tuple."""
        return json.dumps(list(run_key), separators=(",", ":"))

    def preference(self, key: str) -> List[int]:
        """Every shard, in ring-walk order starting at ``key``'s point."""
        start = bisect.bisect_right(self._hashes, self._hash(key))
        order: List[int] = []
        seen = set()
        count = len(self._points)
        for step in range(count):
            shard = self._points[(start + step) % count][1]
            if shard not in seen:
                seen.add(shard)
                order.append(shard)
                if len(order) == self.shards:
                    break
        return order

    def shard_for(self, key: str) -> int:
        """The home shard for ``key`` (first entry of the preference)."""
        start = bisect.bisect_right(self._hashes, self._hash(key))
        return self._points[start % len(self._points)][1]


@dataclass(frozen=True)
class FleetConfig:
    """Tunables of one :class:`ServiceFleet`.

    ``service`` is applied to every shard; ``failover`` lets a shed
    request try the next shards in ring order before the front door
    gives up (disable it to measure pure per-shard admission).  When
    ``service.autotune`` is set, every shard runs its own
    :class:`~repro.service.autotune.AutoTuner` over its own traffic —
    but arms any shard has already persisted to the shared store
    backend warm-start the others, so exploration is shared without
    any shard-to-shard coordination.
    """

    shards: int = 2
    virtual_nodes: int = 64
    failover: bool = True
    service: ServiceConfig = field(default_factory=ServiceConfig)

    def __post_init__(self) -> None:
        if self.shards < 1:
            raise HarnessError(f"shards must be >= 1, got {self.shards}")
        if self.virtual_nodes < 1:
            raise HarnessError(
                f"virtual_nodes must be >= 1, got {self.virtual_nodes}"
            )


def _sum_service_stats(parts: Iterable[ServiceStats]) -> ServiceStats:
    """Sum the integer ledger fields of per-shard stats."""
    total = ServiceStats()
    numeric = (
        "submitted", "completed", "failed", "shed", "in_flight",
        "coalesced", "cache_hits", "admitted", "inline", "autotuned",
        "batches", "pool_runs", "pool_resumed", "retries",
        "timeouts", "worker_crashes", "quarantined",
    )
    for part in parts:
        for name in numeric:
            setattr(total, name, getattr(total, name) + getattr(part, name))
        total.max_batch_size = max(total.max_batch_size, part.max_batch_size)
        total.peak_queue_depth = max(
            total.peak_queue_depth, part.peak_queue_depth
        )
    return total


@dataclass
class FleetStats:
    """Fleet-wide ledger: per-shard stats plus front-door accounting.

    ``aggregate`` sums the shard ledgers, so the zero-lost invariant is
    checked fleet-wide (``aggregate.lost == 0``).  ``routed`` counts
    front-door placements per shard, ``failovers`` how many requests
    were placed off their home shard, and ``fleet_shed`` how many were
    re-shed by the front door after every candidate refused.  Unknown
    attributes delegate to ``aggregate`` so fleet stats print anywhere
    a single service's :class:`ServiceStats` would.
    """

    shards: List[ServiceStats] = field(default_factory=list)
    aggregate: ServiceStats = field(default_factory=ServiceStats)
    routed: Dict[int, int] = field(default_factory=dict)
    failovers: int = 0
    fleet_shed: int = 0

    @property
    def lost(self) -> int:
        return self.aggregate.lost

    def __getattr__(self, name: str):
        # Dataclass fields resolve normally; anything else falls through
        # to the aggregate ledger (completed, shed, coalesced, ...).
        if name.startswith("_"):
            raise AttributeError(name)
        return getattr(self.aggregate, name)

    def to_dict(self) -> Dict[str, object]:
        out = self.aggregate.to_dict()
        out["fleet"] = {
            "shards": len(self.shards),
            "routed": {str(k): v for k, v in sorted(self.routed.items())},
            "failovers": self.failovers,
            "fleet_shed": self.fleet_shed,
        }
        out["per_shard"] = [part.to_dict() for part in self.shards]
        return out


def fleet_runners(
    shards: int,
    *,
    store_url: Optional[str] = None,
    gpu_config: Optional[GPUConfig] = None,
    max_events: int = 50_000_000,
    wrap_store: Optional[Callable] = None,
) -> List[Runner]:
    """One :class:`Runner` per shard, each with its *own* store handle.

    Opening the URL once per shard is the point: every shard gets a
    private connection/client to the **shared** backend (N SQLite
    connections into one WAL file, N KV clients of one server), which is
    what the fleet's cross-shard cache dedup rides on.  ``wrap_store``
    (e.g. :meth:`FaultPlan.flaky_store`) is applied to each handle.
    """
    runners = []
    for _ in range(shards):
        store = open_store(store_url) if store_url is not None else None
        if store is not None and wrap_store is not None:
            store = wrap_store(store)
        runners.append(Runner(gpu_config, max_events=max_events, store=store))
    return runners


class ServiceFleet:
    """N admission-controlled services behind one consistent-hash router.

    Duck-types the single :class:`SimulationService` surface — async
    context manager, :meth:`submit`, :meth:`gather`, :meth:`stats`,
    :attr:`queue_depth` — so :func:`~repro.service.ledger.drive_service`
    and ``repro replay`` run unchanged against a fleet.

    ``runners`` supplies one runner per shard (see
    :func:`fleet_runners`); omitted, every shard gets a fresh
    memory-only runner — fine for tests, pointless for dedup.
    """

    def __init__(
        self,
        runners: Optional[Sequence[Runner]] = None,
        *,
        config: Optional[FleetConfig] = None,
        policy: Optional[ExecutionPolicy] = None,
        faults: Optional[FaultPlan] = None,
        tracer: Optional[Tracer] = None,
        metrics: Optional[MetricsRegistry] = None,
    ):
        self.config = config if config is not None else FleetConfig()
        if runners is None:
            runners = [Runner() for _ in range(self.config.shards)]
        runners = list(runners)
        if len(runners) != self.config.shards:
            raise HarnessError(
                f"fleet of {self.config.shards} shards needs exactly that "
                f"many runners, got {len(runners)}"
            )
        self.metrics = metrics if metrics is not None else METRICS
        self._services = [
            SimulationService(
                runner,
                config=self.config.service,
                policy=policy,
                faults=faults,
                tracer=tracer,
                metrics=self.metrics,
            )
            for runner in runners
        ]
        self._ring = ConsistentHashRing(
            self.config.shards, virtual_nodes=self.config.virtual_nodes
        )
        self._routed: Dict[int, int] = {i: 0 for i in range(self.config.shards)}
        self._failovers = 0
        self._fleet_shed = 0
        self._started = False
        self._closed = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> "ServiceFleet":
        if self._closed:
            raise ServiceClosed("fleet already closed")
        if not self._started:
            for service in self._services:
                await service.start()
            self._started = True
        return self

    async def close(self, *, drain: bool = True) -> None:
        if self._closed:
            return
        self._closed = True
        # Drain concurrently: shards are independent pipelines.
        await asyncio.gather(
            *(service.close(drain=drain) for service in self._services)
        )

    async def __aenter__(self) -> "ServiceFleet":
        return await self.start()

    async def __aexit__(self, exc_type, exc, tb) -> None:
        await self.close()

    # ------------------------------------------------------------------
    # Front door
    # ------------------------------------------------------------------
    async def submit(self, entry: RequestLike, *, seed: int = 1) -> ServiceJob:
        """Route one request to its home shard (failing over if shed).

        Raises :class:`~repro.errors.FleetOverloaded` when every
        candidate shard sheds — the evidence names the saturated home
        shard and carries each shard's admission decision.
        """
        if self._closed:
            raise ServiceClosed("fleet is closed")
        if not self._started:
            await self.start()
        config = as_run_config(entry, seed)
        key = ConsistentHashRing.canonical_key(config.key())
        order = self._ring.preference(key)
        if not self.config.failover:
            order = order[:1]
        home = order[0]
        decisions: Dict[int, object] = {}
        for shard in order:
            try:
                job = await self._services[shard].submit(config, seed=seed)
            except ServiceOverloaded as exc:
                decisions[shard] = exc.decision
                continue
            self._routed[shard] += 1
            self.metrics.counter(
                "fleet.requests_total", shard=str(shard)
            ).inc()
            if shard != home:
                self._failovers += 1
                self.metrics.counter("fleet.failovers_total").inc()
            return job
        self._fleet_shed += 1
        self.metrics.counter("fleet.shed_total").inc()
        tried = ", ".join(str(shard) for shard in decisions)
        raise FleetOverloaded(
            f"{config.benchmark}/{config.scheme} shed fleet-wide: home "
            f"shard {home} and every failover candidate refused "
            f"(tried shards {tried})",
            shard=home,
            decisions=decisions,
            decision=decisions.get(home),
        )

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
    # Introspection
    # ------------------------------------------------------------------
    @property
    def services(self) -> List[SimulationService]:
        return list(self._services)

    @property
    def ring(self) -> ConsistentHashRing:
        return self._ring

    @property
    def queue_depth(self) -> int:
        return sum(service.queue_depth for service in self._services)

    def stats(self) -> FleetStats:
        """Point-in-time per-shard ledgers plus the fleet-wide sum."""
        shards = [service.stats() for service in self._services]
        aggregate = _sum_service_stats(shards)
        # Latency digests come from the (shared) metrics registry, so
        # any shard's view is already the merged fleet view.
        if shards:
            aggregate.latency = shards[0].latency
        # Each shard tunes its own arm set (its traffic mix is its own);
        # the aggregate reports each pair's furthest-along tuner.
        aggregate.autotune = merge_autotune_snapshots(
            [part.autotune for part in shards]
        )
        return FleetStats(
            shards=shards,
            aggregate=aggregate,
            routed=dict(self._routed),
            failovers=self._failovers,
            fleet_shed=self._fleet_shed,
        )
