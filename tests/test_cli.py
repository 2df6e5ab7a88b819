"""Tests for the artifact-style CLI."""

import pytest

from repro.cli import build_parser, main, resolve_scheme
from repro.sweep import open_store


class TestResolveScheme:
    @pytest.mark.parametrize("token,expected", [
        ("0", "Baseline"), ("1", "Dedup_SHA1"), ("2", "DeWrite"),
        ("3", "ESD"), ("esd", "ESD"), ("Baseline", "Baseline"),
        ("dewrite", "DeWrite")])
    def test_accepted_tokens(self, token, expected):
        assert resolve_scheme(token) == expected

    def test_unknown(self):
        with pytest.raises(SystemExit):
            resolve_scheme("4")


class TestParser:
    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.scheme == "3"
        assert args.app == "gcc"

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_rejects_unknown_app(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--app", "doom"])

    @pytest.mark.parametrize("command", ["run", "serve"])
    def test_rejects_removed_execution_switch(self, command):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args([command, "--no-fastpath"])
        assert excinfo.value.code == 2


class TestCommands:
    def test_run_prints_statistics(self, capsys):
        rc = main(["run", "--scheme", "3", "--app", "gcc",
                   "--requests", "1500"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "gcc under ESD" in out
        assert "write reduction" in out
        assert "efit_hit_rate" in out

    def test_run_with_numeric_scheme_code(self, capsys):
        rc = main(["run", "--scheme", "0", "--app", "namd",
                   "--requests", "1200"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "namd under Baseline" in out

    def test_compare(self, capsys):
        rc = main(["compare", "--app", "deepsjeng", "--requests", "1500"])
        out = capsys.readouterr().out
        assert rc == 0
        for scheme in ("Baseline", "Dedup_SHA1", "DeWrite", "ESD"):
            assert scheme in out

    def test_gen_trace_and_replay(self, tmp_path, capsys):
        trace_path = tmp_path / "t.esdtrace"
        rc = main(["gen-trace", "--app", "gcc", "--requests", "800",
                   "--out", str(trace_path)])
        assert rc == 0
        assert trace_path.exists()
        rc = main(["run", "--scheme", "ESD", "--trace", str(trace_path),
                   "--app", "gcc"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "800" in out

    @pytest.mark.parametrize("verb", ["trace", "report"])
    @pytest.mark.parametrize("contents", [None, b"ESD"],
                             ids=["missing", "truncated"])
    def test_observed_verbs_reject_unreadable_trace(self, tmp_path, verb,
                                                    contents):
        """``trace`` and ``report`` open their stream as ``run`` does: a
        missing or corrupt ``--trace`` exits 1 naming the file."""
        trace_path = tmp_path / "t.esdtrace"
        if contents is not None:
            trace_path.write_bytes(contents)
        with pytest.raises(SystemExit) as excinfo:
            main([verb, "--scheme", "ESD", "--trace", str(trace_path)])
        assert str(excinfo.value.code).startswith(
            f"cannot read trace {trace_path}: ")

    def test_list_apps(self, capsys):
        rc = main(["list-apps"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "deepsjeng" in out and "x264" in out

    def test_cache_size_flags(self, capsys):
        rc = main(["run", "--scheme", "ESD", "--app", "gcc",
                   "--requests", "1200", "--efit-kb", "4", "--amt-kb", "16"])
        assert rc == 0


class TestSweepCommand:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["sweep"])
        assert args.apps == "all"
        assert args.schemes == "all"
        assert args.jobs is None
        assert args.store is None
        assert args.metric == "write_latency_ns"

    def test_unknown_metric_rejected_before_running(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["sweep", "--metric", "not_a_metric"])
        # The error must teach the valid names.
        assert "write_latency_ns" in str(excinfo.value)
        assert "ipc" in str(excinfo.value)

    def test_unknown_app_rejected(self):
        with pytest.raises(SystemExit):
            main(["sweep", "--apps", "gcc,doom"])

    def test_unknown_scheme_rejected(self):
        with pytest.raises(SystemExit):
            main(["sweep", "--schemes", "ESD,NoSuch"])

    def test_sweep_runs_and_caches(self, tmp_path, capsys):
        argv = ["sweep", "--apps", "gcc", "--schemes", "ESD,Baseline",
                "--requests", "600", "--jobs", "1",
                "--store", str(tmp_path / "store"), "--quiet",
                "--export", str(tmp_path / "grid.json")]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "gcc" in out and "ESD" in out and "Baseline" in out
        assert (tmp_path / "grid.json").exists()
        # Second invocation resumes entirely from the store.
        assert main(argv[:-2]) == 0
        store = open_store(tmp_path / "store")
        manifest = store.read_manifest()
        store.close()
        assert manifest["cached"] == 2
        assert manifest["simulated"] == 0

    def test_numeric_scheme_codes_and_dedupe(self, tmp_path):
        rc = main(["sweep", "--apps", "gcc", "--schemes", "3,ESD",
                   "--requests", "600", "--jobs", "1", "--quiet",
                   "--store", str(tmp_path / "store")])
        assert rc == 0
