"""Tests for the engine wall-clock benchmark (repro bench)."""

import json

from repro.harness.bench import (
    BENCH_PAIRS,
    DEFAULT_MIN_SPEEDUP,
    REFERENCE,
    default_output_path,
    regressions,
    run_bench,
    write_report,
)

CHEAP = (("GC-citation", "spawn"), ("BFS-graph500", "spawn"))


class TestRunBench:
    def test_report_shape_and_reference_join(self):
        report = run_bench(pairs=CHEAP, repeat=1)
        assert report["repeat"] == 1
        assert [row["pair"] for row in report["pairs"]] == [
            "GC-citation/spawn",
            "BFS-graph500/spawn",
        ]
        for row in report["pairs"]:
            assert row["seconds"] > 0
            assert row["makespan"] > 0
        unreferenced, referenced = report["pairs"]
        assert "speedup" not in unreferenced  # no recorded baseline
        assert referenced["reference_seconds"] == REFERENCE["BFS-graph500/spawn"]["seconds"]
        assert referenced["speedup"] > 0
        # The engine must still produce the reference makespan bit-for-bit.
        assert referenced["makespan_identical"] is True

    def test_default_pairs_have_references(self):
        for name, scheme in BENCH_PAIRS:
            assert f"{name}/{scheme}" in REFERENCE


class TestRegressions:
    REPORT = {
        "pairs": [
            {"pair": "a/spawn", "speedup": 0.2},
            {"pair": "b/spawn", "speedup": 1.4},
            {"pair": "c/spawn", "seconds": 1.0},  # no reference recorded
        ]
    }

    def test_flags_only_pairs_below_threshold(self):
        regressed = regressions(self.REPORT, 0.5)
        assert [row["pair"] for row in regressed] == ["a/spawn"]

    def test_unreferenced_pairs_never_regress(self):
        assert regressions(self.REPORT, 100.0) != self.REPORT["pairs"]
        assert all(
            row["pair"] != "c/spawn"
            for row in regressions(self.REPORT, 100.0)
        )

    def test_empty_report_is_clean(self):
        assert regressions({}, DEFAULT_MIN_SPEEDUP) == []

    def test_default_threshold_is_loose_but_positive(self):
        # Host-variance tolerant: a pair must lose >4x vs. its reference
        # before the default gate fires.
        assert 0.0 < DEFAULT_MIN_SPEEDUP <= 0.5


class TestReport:
    def test_write_report_roundtrip(self, tmp_path):
        report = run_bench(pairs=CHEAP[:1], repeat=1)
        path = write_report(report, tmp_path / "BENCH_test.json")
        assert json.loads(path.read_text()) == report

    def test_default_output_path_is_dated(self):
        import datetime

        path = default_output_path(datetime.date(2026, 8, 6))
        assert path.name == "BENCH_20260806.json"
