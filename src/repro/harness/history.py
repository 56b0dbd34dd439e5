"""Rolling performance history: the repo-committed perf trajectory.

``repro bench`` writes point-in-time ``BENCH_<date>.json`` snapshots;
this module gives those numbers a *timeline*.  ``bench_history.jsonl``
is an append-only JSON-lines file, committed to the repository, holding
one record per measured quantity per run:

* ``bench`` records — per benchmark/scheme pair: best-of-N wall seconds
  plus the makespan the run produced (the bit-identity witness);
* ``soak`` records — service load tests: sustained throughput
  (requests/second) and the shed rate under that load.

``repro perf`` appends fresh records, compares them against the trailing
window of the history, and renders ASCII trend charts — so a perf
regression shows up in the diff of a committed file, not in a dashboard
nobody checks.  Comparison is direction-aware: seconds regress *upward*
(ratio vs. the trailing mean above ``max_ratio``), throughput regresses
*downward* (below ``1/max_ratio``).  A makespan that differs from the
last recorded one for the same pair is *drift* — flagged regardless of
any ratio, because simulation results are contractually deterministic.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence

from repro.errors import HarnessError
from repro.harness.plotting import sparkline

#: Record schema version, carried on every line (append-only files have
#: no single header to rewrite).
HISTORY_SCHEMA = 1

#: Default committed history file, relative to the repository root.
DEFAULT_HISTORY_PATH = Path("bench_history.jsonl")

#: Record kinds and their headline metric's improvement direction.
BENCH = "bench"  # value = wall seconds, lower is better
SOAK = "soak"  # value = requests/second, higher is better

_KINDS = (BENCH, SOAK)


@dataclass(frozen=True)
class PerfRecord:
    """One measured point: what was measured, when, and the number.

    ``label`` identifies the series (``"SA-thaliana/spawn"`` for bench
    records, ``"service-soak"`` for soak records); ``value`` is the
    headline metric (seconds or requests/second by ``kind``);
    ``details`` carries the rest of the evidence (makespan, speedup,
    shed rate, request counts) without entering the comparison.
    """

    kind: str
    label: str
    value: float
    at: str  # ISO-8601 timestamp, supplied by the caller
    details: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise HarnessError(
                f"record kind must be one of {_KINDS}, got {self.kind!r}"
            )

    @property
    def unit(self) -> str:
        return "s" if self.kind == BENCH else "req/s"

    @property
    def lower_is_better(self) -> bool:
        return self.kind == BENCH

    def to_dict(self) -> dict:
        return {
            "schema": HISTORY_SCHEMA,
            "kind": self.kind,
            "label": self.label,
            "value": self.value,
            "at": self.at,
            "details": dict(self.details),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "PerfRecord":
        try:
            return cls(
                kind=payload["kind"],
                label=payload["label"],
                value=float(payload["value"]),
                at=str(payload.get("at", "")),
                details=dict(payload.get("details") or {}),
            )
        except (TypeError, KeyError) as exc:
            raise HarnessError(
                f"malformed history record {payload!r}: {exc}"
            ) from None


# ----------------------------------------------------------------------
# Persistence (append-only JSONL)
# ----------------------------------------------------------------------
def load_history(path=DEFAULT_HISTORY_PATH) -> List[PerfRecord]:
    """Every record in the history file, oldest first (missing file: [])."""
    path = Path(path)
    if not path.is_file():
        return []
    records: List[PerfRecord] = []
    for lineno, line in enumerate(
        path.read_text(encoding="utf-8").splitlines(), start=1
    ):
        line = line.strip()
        if not line:
            continue
        try:
            payload = json.loads(line)
        except json.JSONDecodeError as exc:
            raise HarnessError(f"{path}:{lineno}: invalid JSON: {exc}") from None
        records.append(PerfRecord.from_dict(payload))
    return records


def append_records(records: Sequence[PerfRecord], path=DEFAULT_HISTORY_PATH) -> Path:
    """Append ``records`` to the history file; returns the path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "a", encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(record.to_dict(), sort_keys=True) + "\n")
    return path


# ----------------------------------------------------------------------
# Adapters: bench reports / soak runs -> records
# ----------------------------------------------------------------------
def records_from_bench(report: Mapping, at: str) -> List[PerfRecord]:
    """Per-pair records from a :func:`repro.harness.bench.run_bench` report.

    One series per pair, labelled ``"benchmark/scheme"``.  Older history
    files also hold ``"<pair>@fast"`` series and ``details.engine`` fields
    from when two engines were selectable; they still load and chart,
    they are simply no longer appended to.
    """
    records = []
    for row in report.get("pairs", []):
        details = {"makespan": row.get("makespan")}
        if row.get("speedup") is not None:
            details["speedup"] = row["speedup"]
        records.append(
            PerfRecord(
                kind=BENCH,
                label=row["pair"],
                value=float(row["seconds"]),
                at=at,
                details=details,
            )
        )
    return records


def soak_record(
    *,
    requests: int,
    seconds: float,
    shed: int,
    at: str,
    label: str = "service-soak",
    details: Optional[Mapping[str, object]] = None,
) -> PerfRecord:
    """One service soak measurement: sustained throughput + shed rate."""
    if seconds <= 0:
        raise HarnessError(f"soak seconds must be positive, got {seconds}")
    merged: Dict[str, object] = {
        "requests": requests,
        "seconds": round(seconds, 4),
        "shed": shed,
        "shed_rate": round(shed / requests, 4) if requests else 0.0,
    }
    if details:
        merged.update(details)
    return PerfRecord(
        kind=SOAK,
        label=label,
        value=round(requests / seconds, 2),
        at=at,
        details=merged,
    )


# ----------------------------------------------------------------------
# Trailing-window comparison
# ----------------------------------------------------------------------
def series(history: Sequence[PerfRecord], label: str) -> List[PerfRecord]:
    """The history's records for one label, oldest first."""
    return [record for record in history if record.label == label]


def compare(
    history: Sequence[PerfRecord],
    fresh: Sequence[PerfRecord],
    *,
    window: int = 5,
    max_ratio: float = 1.5,
) -> List[Dict[str, object]]:
    """Judge ``fresh`` records against the trailing history window.

    Returns one verdict dict per fresh record with a usable baseline
    (series with no history pass vacuously and produce no verdict):
    ``ratio`` is fresh/baseline-mean; ``regressed`` applies
    ``max_ratio`` in the record's improvement direction; ``drift`` marks
    a bench makespan unequal to the last recorded one — always a
    failure, whatever the timing ratio says.
    """
    if window < 1:
        raise HarnessError(f"window must be >= 1, got {window}")
    if max_ratio <= 1.0:
        raise HarnessError(f"max_ratio must be > 1, got {max_ratio}")
    verdicts: List[Dict[str, object]] = []
    for record in fresh:
        trailing = series(history, record.label)[-window:]
        if not trailing:
            continue
        baseline = sum(r.value for r in trailing) / len(trailing)
        ratio = record.value / baseline if baseline > 0 else float("inf")
        if record.lower_is_better:
            regressed = ratio > max_ratio
        else:
            regressed = ratio < 1.0 / max_ratio
        drift = False
        if record.kind == BENCH:
            last_makespan = trailing[-1].details.get("makespan")
            fresh_makespan = record.details.get("makespan")
            drift = (
                last_makespan is not None
                and fresh_makespan is not None
                and fresh_makespan != last_makespan
            )
        verdicts.append(
            {
                "label": record.label,
                "kind": record.kind,
                "value": record.value,
                "baseline": round(baseline, 4),
                "window": len(trailing),
                "ratio": round(ratio, 3),
                "regressed": regressed,
                "drift": drift,
            }
        )
    return verdicts


def trend_chart(
    history: Sequence[PerfRecord],
    *,
    labels: Optional[Sequence[str]] = None,
    last: int = 30,
) -> str:
    """ASCII sparkline per series over its last ``last`` records."""
    if labels is None:
        seen: List[str] = []
        for record in history:
            if record.label not in seen:
                seen.append(record.label)
        labels = seen
    if not labels:
        return "(no history)"
    name_width = max(len(label) for label in labels)
    lines = []
    for label in labels:
        records = series(history, label)[-last:]
        if not records:
            continue
        values = [record.value for record in records]
        lines.append(
            f"{label.ljust(name_width)}  {sparkline(values)}  "
            f"{values[0]:.4g} -> {values[-1]:.4g} {records[-1].unit} "
            f"(n={len(values)})"
        )
    return "\n".join(lines) if lines else "(no history)"
