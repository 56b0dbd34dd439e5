"""Tests for the rolling perf history (repro.harness.history) and
``repro perf``.

The contract: records are append-only JSONL with a per-line schema tag;
comparison against the trailing window is direction-aware (seconds
regress upward, throughput downward); a makespan that differs from the
last recorded one is drift — a hard failure regardless of timing.
"""

from __future__ import annotations

import io
import json

import pytest

from repro.cli import main
from repro.errors import HarnessError
from repro.harness.history import (
    BENCH,
    HISTORY_SCHEMA,
    SOAK,
    PerfRecord,
    append_records,
    compare,
    load_history,
    records_from_bench,
    series,
    soak_record,
    trend_chart,
)


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


def bench_rec(value, at="2026-08-07T00:00:00", label="MM-small/spawn",
              makespan=100.0):
    return PerfRecord(
        kind=BENCH, label=label, value=value, at=at,
        details={"makespan": makespan},
    )


def soak_rec(value, at="2026-08-07T00:00:00"):
    return PerfRecord(kind=SOAK, label="service-soak", value=value, at=at)


class TestPerfRecord:
    def test_rejects_unknown_kind(self):
        with pytest.raises(HarnessError):
            PerfRecord(kind="vibes", label="x", value=1.0, at="")

    def test_units_and_direction_follow_kind(self):
        assert bench_rec(1.0).unit == "s"
        assert bench_rec(1.0).lower_is_better
        assert soak_rec(1.0).unit == "req/s"
        assert not soak_rec(1.0).lower_is_better

    def test_dict_round_trip_carries_schema(self):
        record = bench_rec(0.25)
        payload = record.to_dict()
        assert payload["schema"] == HISTORY_SCHEMA
        assert PerfRecord.from_dict(payload) == record

    def test_malformed_payload_raises(self):
        with pytest.raises(HarnessError):
            PerfRecord.from_dict({"kind": BENCH})


class TestPersistence:
    def test_missing_file_loads_empty(self, tmp_path):
        assert load_history(tmp_path / "absent.jsonl") == []

    def test_append_then_load_round_trips_in_order(self, tmp_path):
        path = tmp_path / "history.jsonl"
        first = [bench_rec(0.2), soak_rec(15.0)]
        second = [bench_rec(0.3, at="2026-08-07T01:00:00")]
        append_records(first, path)
        append_records(second, path)
        assert load_history(path) == first + second

    def test_invalid_json_line_is_an_error(self, tmp_path):
        path = tmp_path / "history.jsonl"
        path.write_text("not json\n")
        with pytest.raises(HarnessError, match="invalid JSON"):
            load_history(path)


class TestAdapters:
    def test_records_from_bench_carries_makespan_and_speedup(self):
        report = {
            "pairs": [
                {"pair": "MM-small/spawn", "seconds": 0.21,
                 "makespan": 261166.97, "speedup": 1.25},
                {"pair": "MM-small/flat", "seconds": 0.2,
                 "makespan": 300000.0, "speedup": None},
            ]
        }
        records = records_from_bench(report, "2026-08-07T00:00:00")
        assert [r.label for r in records] == [
            "MM-small/spawn", "MM-small/flat",
        ]
        assert records[0].details == {"makespan": 261166.97, "speedup": 1.25}
        assert records[1].details == {"makespan": 300000.0}

    def test_soak_record_computes_throughput_and_shed_rate(self):
        record = soak_record(
            requests=100, seconds=4.0, shed=10, at="2026-08-07T00:00:00"
        )
        assert record.kind == SOAK
        assert record.value == 25.0
        assert record.details["shed_rate"] == 0.1

    def test_soak_record_rejects_nonpositive_duration(self):
        with pytest.raises(HarnessError):
            soak_record(requests=1, seconds=0.0, shed=0, at="")


class TestCompare:
    def test_validates_window_and_ratio(self):
        with pytest.raises(HarnessError):
            compare([], [], window=0)
        with pytest.raises(HarnessError):
            compare([], [], max_ratio=1.0)

    def test_no_history_passes_vacuously(self):
        assert compare([], [bench_rec(5.0)]) == []

    def test_bench_regresses_upward_only(self):
        history = [bench_rec(0.2), bench_rec(0.2)]
        slow = compare(history, [bench_rec(0.5)], max_ratio=1.5)[0]
        assert slow["regressed"] and slow["ratio"] == 2.5
        fast = compare(history, [bench_rec(0.05)], max_ratio=1.5)[0]
        assert not fast["regressed"]  # improvements never regress

    def test_soak_regresses_downward_only(self):
        history = [soak_rec(20.0), soak_rec(20.0)]
        slow = compare(history, [soak_rec(10.0)], max_ratio=1.5)[0]
        assert slow["regressed"]
        fast = compare(history, [soak_rec(40.0)], max_ratio=1.5)[0]
        assert not fast["regressed"]

    def test_window_limits_the_baseline(self):
        history = [bench_rec(10.0), bench_rec(0.2), bench_rec(0.2)]
        verdict = compare(history, [bench_rec(0.2)], window=2)[0]
        assert verdict["baseline"] == pytest.approx(0.2)
        assert verdict["window"] == 2
        assert not verdict["regressed"]

    def test_makespan_drift_flags_even_when_timing_is_fine(self):
        history = [bench_rec(0.2, makespan=100.0)]
        verdict = compare(history, [bench_rec(0.2, makespan=101.0)])[0]
        assert verdict["drift"]
        assert not verdict["regressed"]
        same = compare(history, [bench_rec(0.2, makespan=100.0)])[0]
        assert not same["drift"]

    def test_soak_records_never_drift(self):
        verdict = compare([soak_rec(20.0)], [soak_rec(20.0)])[0]
        assert not verdict["drift"]


class TestTrendChart:
    def test_empty_history(self):
        assert trend_chart([]) == "(no history)"

    def test_one_line_per_series_with_units(self):
        history = [
            bench_rec(0.2), bench_rec(0.25, at="2026-08-07T01:00:00"),
            soak_rec(16.0),
        ]
        chart = trend_chart(history)
        lines = chart.splitlines()
        assert len(lines) == 2
        assert lines[0].startswith("MM-small/spawn")
        assert "0.2 -> 0.25 s (n=2)" in lines[0]
        assert "req/s (n=1)" in lines[1]

    def test_labels_filter(self):
        history = [bench_rec(0.2), soak_rec(16.0)]
        chart = trend_chart(history, labels=["service-soak"])
        assert "MM-small" not in chart
        assert "service-soak" in chart


class TestPerfCli:
    def test_perf_appends_records_and_charts(self, tmp_path, capsys):
        history = tmp_path / "history.jsonl"
        capsys.readouterr()
        code, output = run_cli(
            "perf", "--pairs", "MM-small/spawn", "--repeat", "1",
            "--history", str(history),
        )
        assert code == 0, output
        assert "perf records" in output
        assert "MM-small/spawn" in output
        records = load_history(history)
        assert len(records) == 1
        assert records[0].kind == BENCH
        assert "appended 1 records" in capsys.readouterr().err

    def test_perf_no_append_leaves_history_untouched(self, tmp_path):
        history = tmp_path / "history.jsonl"
        code, _ = run_cli(
            "perf", "--pairs", "MM-small/spawn", "--repeat", "1",
            "--history", str(history), "--no-append",
        )
        assert code == 0
        assert not history.exists()

    def test_perf_json_artifact_has_records_and_verdicts(self, tmp_path):
        history = tmp_path / "history.jsonl"
        artifact = tmp_path / "perf.json"
        code, _ = run_cli(
            "perf", "--pairs", "MM-small/spawn", "--repeat", "1",
            "--history", str(history), "--no-append", "--json", str(artifact),
        )
        assert code == 0
        payload = json.loads(artifact.read_text())
        assert {"at", "records", "verdicts"} <= set(payload)
        assert payload["records"][0]["label"] == "MM-small/spawn"

    def test_perf_drift_fails_the_run(self, tmp_path, capsys):
        history = tmp_path / "history.jsonl"
        # Seed a record whose makespan cannot match the real simulation.
        append_records(
            [bench_rec(0.2, label="MM-small/spawn", makespan=-1.0)], history
        )
        capsys.readouterr()
        code, _ = run_cli(
            "perf", "--pairs", "MM-small/spawn", "--repeat", "1",
            "--history", str(history), "--no-append",
        )
        assert code == 1
        assert "drifted" in capsys.readouterr().err

    def test_perf_rejects_malformed_pairs(self):
        code, _ = run_cli("perf", "--pairs", "nonsense", "--repeat", "1")
        assert code == 2

    def test_committed_history_matches_schema(self):
        # The repo ships a seeded bench_history.jsonl; it must parse.
        from pathlib import Path

        committed = Path(__file__).resolve().parent.parent / "bench_history.jsonl"
        records = load_history(committed)
        assert records, "committed bench_history.jsonl is missing or empty"
        assert {record.kind for record in records} <= {BENCH, SOAK}

    def test_committed_two_engine_records_stay_readable(self):
        # Records from when two engines were selectable: "<pair>@fast"
        # series and details.engine fields still load, and the history
        # file is never rewritten on load.
        from pathlib import Path

        committed = Path(__file__).resolve().parent.parent / "bench_history.jsonl"
        before = committed.read_bytes()
        records = load_history(committed)
        fast = [r for r in records if r.label.endswith("@fast")]
        assert fast, "expected the committed @fast series"
        assert all(r.details["engine"] == "fast" for r in fast)
        assert any(r.details.get("engine") == "default" for r in records)
        # The old series chart next to the current ones.
        chart = trend_chart(records, labels=[fast[0].label])
        assert fast[0].label in chart
        assert committed.read_bytes() == before
