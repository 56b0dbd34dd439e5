"""Metrics: counters, gauges, and latency histograms.

The SPAWN controller is driven entirely by *measured* signals — predicted
vs. actual child-kernel time, queue occupancy — and the harness and
serving stack deserve the same treatment.  This module is the one
measurement substrate: a dependency-free metrics model
(``time.perf_counter`` + dicts) with three instrument kinds and a
process-wide registry.

* :class:`Counter` — monotonically increasing totals (requests routed,
  cache hits, retries).
* :class:`Gauge` — a value that goes both ways (queue depth, in-flight).
* :class:`Histogram` — fixed-bucket latency distributions.  Bucket
  boundaries are fixed at construction, counts are cumulative-free per
  bucket, and quantile extraction uses exact nearest-rank selection over
  the bucket counts: the returned estimate always lies inside the same
  bucket interval as the exact rank-selected sample, so it is off by at
  most one bucket width (the property tests pin this against a sorted
  reference).
* :class:`MetricsRegistry` — named, labelled instruments with JSON
  (``to_dict``) and Prometheus text (``to_prometheus``) exporters.
  :data:`METRICS` is the process-wide default.

Registries are per-process and unsynchronised, matching the rest of the
observability layer: the service event loop and the harness both live in
the parent process, and worker processes never report metrics directly —
their effects are observed from the parent side.

Well-known instrument names (the dashboard contract):

* ``sim.run_seconds{benchmark=, scheme=}`` — wall time of every
  simulation the :class:`~repro.harness.runner.Runner` performs (what
  ``repro run --profile`` prints), next to its ``runner.cache_hits`` /
  ``runner.cache_misses`` / ``runner.disk_hits`` / ``runner.disk_misses``
  / ``runner.store_errors`` counters.
* ``parallel.*`` counters (``fanned_out``, ``resumed``, ``timeouts``,
  ``worker_crashes``, ...) and ``harness.task_seconds{mode=pool|serial}``
  — the fault-tolerant fan-out of :mod:`repro.harness.parallel`.

* ``store.reads_total{backend=, outcome=hit|miss}`` and
  ``store.io_seconds{backend=, op=load|save}`` — emitted by the
  :class:`~repro.harness.store.ResultStore` *wrapper*, never by
  individual backends, so every backend (``dir``/``sqlite``/``kv``)
  reports under the same names and differs only in the ``backend`` label.
* ``fleet.requests_total{shard=}``, ``fleet.failovers_total``,
  ``fleet.shed_total`` — front-door accounting of
  :class:`~repro.service.fleet.ServiceFleet`.  Shards share one
  registry, so service-level latency histograms merge fleet-wide.
"""

from __future__ import annotations

import math
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

#: Default latency buckets (seconds): sub-millisecond to a minute, with
#: roughly 2-2.5x steps — the classic Prometheus-style ladder.  Serving
#: latencies for the cheap benchmark pairs sit in the low buckets; a
#: pool dispatch of a slow pair lands in the seconds range.
DEFAULT_LATENCY_BUCKETS: Tuple[float, ...] = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
    0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0,
)

#: Finer ladder for store/file IO, which is microseconds-to-milliseconds.
DEFAULT_IO_BUCKETS: Tuple[float, ...] = (
    0.00005, 0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005,
    0.01, 0.025, 0.05, 0.1, 0.5, 1.0,
)

#: Label set type: sorted (key, value) pairs, hashable.
LabelSet = Tuple[Tuple[str, str], ...]


def exact_quantile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank quantile of ``samples`` (the histogram's reference).

    Rank ``ceil(q * n)`` (1-based, clamped to ``[1, n]``) of the sorted
    samples — the same selection rule :meth:`Histogram.quantile` applies
    to its bucket counts, so the two agree to within one bucket width.
    """
    if not samples:
        raise ValueError("quantile of an empty sample set")
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile must be in [0, 1], got {q}")
    ordered = sorted(samples)
    rank = min(max(math.ceil(q * len(ordered)), 1), len(ordered))
    return ordered[rank - 1]


class Counter:
    """Monotonically increasing total."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, delta: float = 1.0) -> float:
        if delta < 0:
            raise ValueError(f"counter increments must be >= 0, got {delta}")
        self.value += delta
        return self.value


class Gauge:
    """A point-in-time value that can move both ways."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> float:
        self.value = float(value)
        return self.value

    def inc(self, delta: float = 1.0) -> float:
        self.value += delta
        return self.value

    def dec(self, delta: float = 1.0) -> float:
        self.value -= delta
        return self.value


class Histogram:
    """Fixed-bucket distribution with exact nearest-rank quantiles.

    ``bounds`` are the finite bucket upper edges (strictly increasing);
    an implicit overflow bucket catches everything past the last edge.
    Observations must be non-negative (these are latencies).  Quantile
    extraction locates the bucket holding the rank-``ceil(q*count)``
    sample from the per-bucket counts — exactly the bucket the sorted
    reference sample sits in — and interpolates linearly inside it, so
    the estimate and the exact value share one bucket interval.  The
    overflow bucket spans ``(last_bound, max_observed]``.
    """

    __slots__ = ("bounds", "counts", "count", "sum", "min", "max")

    def __init__(self, bounds: Sequence[float] = DEFAULT_LATENCY_BUCKETS):
        bounds = tuple(float(b) for b in bounds)
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        if any(b <= 0 for b in bounds):
            raise ValueError("bucket bounds must be positive")
        if any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise ValueError("bucket bounds must be strictly increasing")
        self.bounds = bounds
        #: Per-bucket counts; the final slot is the overflow bucket.
        self.counts: List[int] = [0] * (len(bounds) + 1)
        self.count = 0
        self.sum = 0.0
        self.min = math.inf
        self.max = -math.inf

    def observe(self, value: float) -> None:
        if value < 0:
            raise ValueError(f"histogram observations must be >= 0, got {value}")
        self.counts[self._bucket_index(value)] += 1
        self.count += 1
        self.sum += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    def _bucket_index(self, value: float) -> int:
        # Linear scan: bucket ladders are short (~16) and observations
        # skew low, so this beats bisect's call overhead in practice.
        for index, bound in enumerate(self.bounds):
            if value <= bound:
                return index
        return len(self.bounds)

    def bucket_edges(self, index: int) -> Tuple[float, float]:
        """``(lower, upper]`` edges of bucket ``index``.

        The first bucket's lower edge is 0 (observations are
        non-negative); the overflow bucket's upper edge is the maximum
        observed value (or the last bound before any overflow sample).
        """
        lower = 0.0 if index == 0 else self.bounds[index - 1]
        if index < len(self.bounds):
            return lower, self.bounds[index]
        upper = self.max if self.max > self.bounds[-1] else self.bounds[-1]
        return lower, upper

    def quantile(self, q: float) -> Optional[float]:
        """Nearest-rank quantile estimate, or None for an empty histogram.

        Within one bucket width of :func:`exact_quantile` over the raw
        samples, and additionally clamped to the observed ``[min, max]``.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if self.count == 0:
            return None
        rank = min(max(math.ceil(q * self.count), 1), self.count)
        seen = 0
        for index, bucket_count in enumerate(self.counts):
            if bucket_count == 0:
                continue
            if rank <= seen + bucket_count:
                lower, upper = self.bucket_edges(index)
                position = (rank - seen) / bucket_count
                estimate = lower + (upper - lower) * position
                return min(max(estimate, self.min), self.max)
            seen += bucket_count
        # Unreachable: rank <= count == sum(counts).
        raise AssertionError("rank fell past every bucket")

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def percentiles(self) -> Dict[str, float]:
        """The headline latency quantiles (empty dict when no data)."""
        if self.count == 0:
            return {}
        return {
            "p50": self.quantile(0.50),
            "p95": self.quantile(0.95),
            "p99": self.quantile(0.99),
        }

    def summary(self) -> Dict[str, float]:
        """JSON-ready digest: count/sum/mean/min/max plus percentiles."""
        if self.count == 0:
            return {"count": 0}
        out: Dict[str, float] = {
            "count": self.count,
            "sum": self.sum,
            "mean": self.mean,
            "min": self.min,
            "max": self.max,
        }
        out.update(self.percentiles())
        return out


def _labelset(labels: Dict[str, str]) -> LabelSet:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _render_labels(labels: LabelSet) -> str:
    if not labels:
        return ""
    return "{" + ",".join(f"{k}={v}" for k, v in labels) + "}"


def _prom_name(name: str) -> str:
    """Sanitize a dotted metric name into the Prometheus charset."""
    return "".join(
        ch if ch.isalnum() or ch in "_:" else "_" for ch in name
    )


def _prom_labels(labels: LabelSet) -> str:
    if not labels:
        return ""
    return "{" + ",".join(f'{k}="{v}"' for k, v in labels) + "}"


def _format_value(value: float) -> str:
    if value == math.inf:
        return "+Inf"
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(value)


class MetricsRegistry:
    """Named, labelled counters/gauges/histograms with two exporters.

    Instruments are created on first use and shared on every later call
    with the same ``(name, labels)``; re-requesting a name as a different
    instrument kind is a programming error and raises ``ValueError``.
    """

    def __init__(self) -> None:
        self._metrics: Dict[Tuple[str, LabelSet], object] = {}

    # -- instrument accessors -------------------------------------------
    def _get(self, name: str, labels: LabelSet, factory, kind) -> object:
        key = (name, labels)
        metric = self._metrics.get(key)
        if metric is None:
            metric = self._metrics[key] = factory()
        elif not isinstance(metric, kind):
            raise ValueError(
                f"metric {name}{_render_labels(labels)} is a "
                f"{type(metric).__name__}, not a {kind.__name__}"
            )
        return metric

    def counter(self, name: str, **labels: str) -> Counter:
        return self._get(name, _labelset(labels), Counter, Counter)

    def gauge(self, name: str, **labels: str) -> Gauge:
        return self._get(name, _labelset(labels), Gauge, Gauge)

    def histogram(
        self,
        name: str,
        buckets: Optional[Sequence[float]] = None,
        **labels: str,
    ) -> Histogram:
        bounds = tuple(buckets) if buckets is not None else DEFAULT_LATENCY_BUCKETS
        return self._get(
            name, _labelset(labels), lambda: Histogram(bounds), Histogram
        )

    # -- introspection --------------------------------------------------
    def collect(self) -> Iterator[Tuple[str, LabelSet, object]]:
        """Every registered ``(name, labels, instrument)``, sorted."""
        for (name, labels), metric in sorted(
            self._metrics.items(), key=lambda kv: kv[0]
        ):
            yield name, labels, metric

    def clear(self) -> None:
        self._metrics.clear()

    def __len__(self) -> int:
        return len(self._metrics)

    # -- exporters ------------------------------------------------------
    def to_dict(self) -> Dict[str, Dict[str, object]]:
        """JSON-ready snapshot, keyed ``name{label=value,...}``."""
        out: Dict[str, Dict[str, object]] = {
            "counters": {},
            "gauges": {},
            "histograms": {},
        }
        for name, labels, metric in self.collect():
            key = f"{name}{_render_labels(labels)}"
            if isinstance(metric, Counter):
                out["counters"][key] = metric.value
            elif isinstance(metric, Gauge):
                out["gauges"][key] = metric.value
            else:
                assert isinstance(metric, Histogram)
                out["histograms"][key] = metric.summary()
        return out

    def to_prometheus(self) -> str:
        """Prometheus text exposition format (v0.0.4)."""
        by_name: Dict[str, List[Tuple[LabelSet, object]]] = {}
        kinds: Dict[str, str] = {}
        for name, labels, metric in self.collect():
            by_name.setdefault(name, []).append((labels, metric))
            kinds[name] = (
                "counter" if isinstance(metric, Counter)
                else "gauge" if isinstance(metric, Gauge)
                else "histogram"
            )
        lines: List[str] = []
        for name in sorted(by_name):
            prom = _prom_name(name)
            lines.append(f"# TYPE {prom} {kinds[name]}")
            for labels, metric in by_name[name]:
                if isinstance(metric, (Counter, Gauge)):
                    lines.append(
                        f"{prom}{_prom_labels(labels)} "
                        f"{_format_value(metric.value)}"
                    )
                    continue
                assert isinstance(metric, Histogram)
                cumulative = 0
                for index, bound in enumerate(metric.bounds):
                    cumulative += metric.counts[index]
                    le = labels + (("le", _format_value(bound)),)
                    lines.append(f"{prom}_bucket{_prom_labels(le)} {cumulative}")
                le = labels + (("le", "+Inf"),)
                lines.append(f"{prom}_bucket{_prom_labels(le)} {metric.count}")
                lines.append(
                    f"{prom}_sum{_prom_labels(labels)} "
                    f"{_format_value(metric.sum)}"
                )
                lines.append(f"{prom}_count{_prom_labels(labels)} {metric.count}")
        return "\n".join(lines) + ("\n" if lines else "")


#: Process-wide default registry (the serving stack's instruments live
#: here unless a caller injects its own registry for isolation).
METRICS = MetricsRegistry()
