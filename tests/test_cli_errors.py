"""Error-path coverage for the CLI: every failure mode must exit with a
clean diagnostic (code 1/2 plus an ``error:`` line), never a traceback."""

import io

import pytest

from repro.cli import main


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


class TestRunErrors:
    def test_unwritable_trace_path_exits_cleanly(self, tmp_path, capsys):
        target = tmp_path / "no-such-dir" / "trace.jsonl"
        code, _ = run_cli(
            "run", "MM-small", "--scheme", "spawn", "--trace", str(target)
        )
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_trace_path_is_a_directory(self, tmp_path, capsys):
        code, _ = run_cli(
            "run", "MM-small", "--scheme", "spawn", "--trace", str(tmp_path)
        )
        assert code == 1
        assert "error:" in capsys.readouterr().err


class TestAuditErrors:
    def test_unknown_benchmark(self, capsys):
        code, _ = run_cli("audit", "no-such-benchmark")
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_unknown_scheme(self, capsys):
        code, _ = run_cli("audit", "MM-small", "--scheme", "not-a-scheme")
        assert code == 1
        assert "error:" in capsys.readouterr().err


class TestCacheErrors:
    def test_stats_on_missing_dir(self, tmp_path):
        missing = tmp_path / "never-created"
        code, text = run_cli("cache", "stats", "--store", str(missing))
        assert code == 0
        assert "entries" in text and not missing.exists()

    def test_clear_on_empty_dir(self, tmp_path):
        code, text = run_cli("cache", "clear", "--store", str(tmp_path))
        assert code == 0
        assert "removed 0 entries" in text

    def test_stats_ignores_foreign_files(self, tmp_path):
        (tmp_path / "README.txt").write_text("not a cache entry")
        code, text = run_cli("cache", "stats", "--store", str(tmp_path))
        assert code == 0
        assert "entries" in text


class TestCheckErrors:
    def test_unknown_benchmark_filter(self, capsys):
        code, _ = run_cli("check", "--benchmark", "no-such-benchmark")
        assert code == 2
        assert "not in the golden matrix" in capsys.readouterr().err

    def test_missing_golden_file(self, tmp_path, capsys):
        # An empty --golden-dir: the cell simulates cleanly but the stored
        # trace is absent, which must surface the regenerate hint.
        code, _ = run_cli(
            "check",
            "--benchmark", "BFS-citation",
            "--golden-dir", str(tmp_path),
        )
        assert code == 1
        assert "does not exist" in capsys.readouterr().err

    def test_update_golden_writes_files(self, tmp_path):
        code, text = run_cli(
            "check",
            "--update-golden",
            "--benchmark", "BFS-citation",
            "--golden-dir", str(tmp_path),
        )
        assert code == 0
        assert "wrote" in text
        assert list(tmp_path.glob("BFS-citation__*.jsonl.gz"))
        # And the freshly written goldens verify against a re-run.
        code, text = run_cli(
            "check",
            "--benchmark", "BFS-citation",
            "--golden-dir", str(tmp_path),
        )
        assert code == 0
        assert "matches golden" in text
