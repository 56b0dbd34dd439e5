"""Tests for the command-line interface."""

import io
import json

import pytest

from repro.cli import build_parser, main


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run", "BFS-citation"])
        assert args.scheme == "spawn"
        assert args.seed == 1
        assert args.stream_policy == "per-child"

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["bogus"])


class TestCommands:
    def test_list(self):
        code, text = run_cli("list")
        assert code == 0
        assert "BFS-graph500" in text
        assert "SA-thaliana" in text

    def test_config(self):
        code, text = run_cli("config")
        assert code == 0
        assert "13 SMXs" in text
        assert "1721" in text

    def test_run_flat(self):
        code, text = run_cli("run", "GC-citation", "--scheme", "flat")
        assert code == 0
        assert "makespan" in text
        assert "speedup_vs_flat" not in text

    def test_run_spawn_reports_speedup(self):
        code, text = run_cli("run", "GC-citation", "--scheme", "spawn")
        assert code == 0
        assert "speedup_vs_flat" in text

    def test_run_unknown_benchmark_fails_cleanly(self):
        code, _ = run_cli("run", "not-a-benchmark")
        assert code == 1

    def test_run_bad_scheme_fails_cleanly(self):
        code, _ = run_cli("run", "GC-citation", "--scheme", "bogus")
        assert code == 1

    def test_sweep(self):
        code, text = run_cli("sweep", "GC-citation")
        assert code == 0
        assert "THRESHOLD" in text
        assert "*" in text

    def test_experiment_table(self):
        code, text = run_cli("experiment", "table2")
        assert code == 0
        assert "GPU configuration" in text

    def test_experiment_unknown_id(self):
        code, _ = run_cli("experiment", "fig99")
        assert code == 2

    def test_experiment_fig01(self):
        code, text = run_cli("experiment", "fig01")
        assert code == 0
        assert "imbalance" in text


class TestObservabilityCommands:
    def test_run_json_is_machine_readable(self):
        code, text = run_cli("run", "GC-citation", "--scheme", "spawn", "--json")
        assert code == 0
        summary = json.loads(text)
        assert summary["makespan"] > 0
        assert "speedup_vs_flat" in summary
        assert "peak_ccqs_depth" in summary

    def test_run_offline_is_the_offline_search_result(self):
        from repro.harness.runner import Runner
        from repro.harness.sweep import offline_search

        _, expected = offline_search(Runner(), "GC-citation")
        code, text = run_cli("run", "GC-citation", "--scheme", "offline", "--json")
        assert code == 0
        assert json.loads(text)["makespan"] == expected.makespan

    def test_run_json_flat_has_no_speedup(self):
        code, text = run_cli("run", "GC-citation", "--scheme", "flat", "--json")
        assert code == 0
        assert "speedup_vs_flat" not in json.loads(text)

    def test_run_trace_exports(self, tmp_path):
        jsonl = tmp_path / "t.jsonl"
        chrome = tmp_path / "t.json"
        code, _ = run_cli(
            "run", "GC-citation", "--scheme", "spawn",
            "--trace", str(jsonl), "--chrome-trace", str(chrome),
        )
        assert code == 0
        lines = jsonl.read_text().strip().splitlines()
        assert lines and all(json.loads(l)["kind"] for l in lines)
        doc = json.loads(chrome.read_text())
        assert doc["traceEvents"]

    def test_run_profile_prints_timings(self):
        code, text = run_cli("run", "GC-citation", "--scheme", "flat", "--profile")
        assert code == 0
        assert "harness wall-clock profile" in text
        assert "sim.run/GC-citation/flat" in text

    def test_audit_prints_prediction_error_table(self):
        code, text = run_cli("audit", "GC-citation", "--scheme", "spawn")
        assert code == 0
        assert "decision audit" in text
        assert "mean_err" in text
        assert "GC-citation" in text

    def test_audit_json(self):
        code, text = run_cli("audit", "GC-citation", "--json")
        assert code == 0
        stats = json.loads(text)["GC-citation"]
        assert stats["decisions"] > 0
        assert "mean_rel_error" in stats

    def test_audit_baseline_dp_has_no_error_columns(self):
        code, text = run_cli("audit", "GC-citation", "--scheme", "baseline-dp")
        assert code == 0
        assert "-" in text  # no prediction payload -> dashes

    def test_audit_unknown_benchmark_fails_cleanly(self):
        code, _ = run_cli("audit", "not-a-benchmark")
        assert code == 1


class TestSuiteCacheBench:
    def test_suite_parser_defaults(self):
        args = build_parser().parse_args(["suite"])
        assert args.jobs is None
        assert args.experiments is None
        assert not args.no_store

    def test_bench_parser_defaults(self):
        args = build_parser().parse_args(["bench"])
        assert args.repeat == 3
        assert args.output is None
        assert args.min_speedup is None  # None -> DEFAULT_MIN_SPEEDUP

    def test_suite_rejects_unknown_experiment(self):
        code, _ = run_cli("suite", "--experiments", "fig99", "--jobs", "1",
                          "--no-store")
        assert code == 2

    def test_suite_rejects_bad_jobs(self):
        code, _ = run_cli("suite", "--jobs", "0", "--no-store")
        assert code == 2

    def test_suite_subset_with_store(self, tmp_path):
        cache = tmp_path / "cache"
        code, text = run_cli(
            "suite", "--experiments", "fig19", "--jobs", "1",
            "--store", str(cache),
        )
        assert code == 0
        assert "fig19" in text
        assert cache.is_dir()  # results were persisted

    def test_cache_stats_and_clear(self, tmp_path):
        code, text = run_cli("cache", "stats", "--store", str(tmp_path))
        assert code == 0
        assert "entries" in text
        code, text = run_cli("cache", "clear", "--store", str(tmp_path))
        assert code == 0
        assert "removed 0 entries" in text


def canned_bench_report(*, speedup=2.0, identical=True):
    """A minimal run_bench-shaped report for exercising the CLI gate."""
    return {
        "repeat": 1,
        "seed": 1,
        "pairs": [
            {
                "pair": "SA-thaliana/spawn",
                "seconds": 1.0,
                "makespan": 42.0,
                "reference_seconds": 2.0,
                "speedup": speedup,
                "makespan_identical": identical,
            }
        ],
    }


class TestBenchGate:
    """`repro bench` must fail loudly on regression — but always emit
    the report file first, so a failing CI run still leaves evidence."""

    def fake_bench(self, monkeypatch, **kwargs):
        import repro.harness.bench as bench

        monkeypatch.setattr(
            bench, "run_bench",
            lambda *, repeat, seed, store=None: canned_bench_report(**kwargs),
        )

    def test_healthy_run_exits_zero(self, monkeypatch, tmp_path):
        self.fake_bench(monkeypatch, speedup=2.0)
        out = tmp_path / "BENCH.json"
        code, text = run_cli("bench", "--output", str(out))
        assert code == 0
        assert out.is_file()
        assert "SA-thaliana/spawn" in text

    def test_speedup_regression_exits_nonzero_but_writes_report(
        self, monkeypatch, tmp_path
    ):
        self.fake_bench(monkeypatch, speedup=0.1)  # below DEFAULT_MIN_SPEEDUP
        out = tmp_path / "BENCH.json"
        code, _ = run_cli("bench", "--output", str(out))
        assert code == 1
        # The evidence file exists despite the failure.
        assert json.loads(out.read_text())["pairs"][0]["speedup"] == 0.1

    def test_min_speedup_flag_tightens_the_gate(self, monkeypatch, tmp_path):
        self.fake_bench(monkeypatch, speedup=2.0)
        out = tmp_path / "BENCH.json"
        code, _ = run_cli(
            "bench", "--output", str(out), "--min-speedup", "3.0"
        )
        assert code == 1
        assert out.is_file()
        code, _ = run_cli(
            "bench", "--output", str(out), "--min-speedup", "1.5"
        )
        assert code == 0

    def test_makespan_drift_still_fails(self, monkeypatch, tmp_path):
        self.fake_bench(monkeypatch, speedup=2.0, identical=False)
        out = tmp_path / "BENCH.json"
        code, _ = run_cli("bench", "--output", str(out))
        assert code == 1
        assert out.is_file()

    def test_rejects_nonpositive_min_speedup(self):
        code, _ = run_cli("bench", "--min-speedup", "0")
        assert code == 2

    def test_rejects_bad_repeat(self):
        code, _ = run_cli("bench", "--repeat", "0")
        assert code == 2


class TestRemovedFlags:
    """One engine and one store flag: the old selectors are gone."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "MM-small", "--engine", "default"],
            ["suite", "--engine", "default"],
            ["check", "--engine", "default"],
            ["bench", "--engine", "default"],
            ["bench", "--compare-engines"],
            ["serve", "--engine", "default"],
            ["perf", "--engine", "default"],
            ["cache", "stats", "--cache-dir", "x"],
        ],
        ids=lambda argv: "-".join(a.lstrip("-") for a in argv if a != "MM-small"),
    )
    def test_removed_flag_is_rejected(self, argv):
        with pytest.raises(SystemExit):
            build_parser().parse_args(argv)


class TestServe:
    def test_serve_parser_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.requests is None
        assert args.jobs == 2
        assert args.deadline_ms is None
        assert args.inline_ms == 0.0
        assert args.max_batch == 8
        assert args.synthetic == 20
        assert not args.stats

    def test_serve_synthetic_traffic(self, tmp_path):
        stats_path = tmp_path / "stats.json"
        code, text = run_cli(
            "serve", "--synthetic", "8", "--no-store",
            "--stats", "--stats-json", str(stats_path),
        )
        assert code == 0
        assert "service admission ledger" in text
        assert "cost model snapshot" in text
        stats = json.loads(stats_path.read_text())
        assert stats["submitted"] == 8
        assert stats["lost"] == 0
        assert stats["failed"] == 0
        assert stats["completed"] == 8

    def test_serve_scripted_request_file(self, tmp_path):
        requests = [
            {"benchmark": "GC-citation", "scheme": "flat"},
            {"benchmark": "GC-citation", "scheme": "flat"},  # coalesces
            {"benchmark": "MM-small", "scheme": "spawn", "seed": 2},
        ]
        path = tmp_path / "requests.json"
        path.write_text(json.dumps(requests))
        stats_path = tmp_path / "stats.json"
        code, _ = run_cli(
            "serve", str(path), "--no-store", "--jobs", "1",
            "--stats-json", str(stats_path),
        )
        assert code == 0
        stats = json.loads(stats_path.read_text())
        assert stats["submitted"] == 3
        assert stats["coalesced"] == 1
        assert stats["lost"] == 0

    def test_serve_rejects_empty_traffic(self, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text("[]")
        code, _ = run_cli("serve", str(path), "--no-store")
        assert code == 2

    def test_serve_rejects_bad_synthetic_count(self):
        code, _ = run_cli("serve", "--synthetic", "0", "--no-store")
        assert code == 2

    def test_serve_unknown_benchmark_fails_cleanly(self, tmp_path):
        path = tmp_path / "requests.json"
        path.write_text(
            json.dumps([{"benchmark": "nope", "scheme": "flat"}])
        )
        code, _ = run_cli("serve", str(path), "--no-store")
        assert code == 1  # ReproError -> clean CLI error, no traceback
