"""Integration tests for the observability layer.

The load-bearing property: enabling observability must never change a
simulated result.  Summary rows and extras with obs on are compared
bit-exact against obs off for every registered scheme (DESIGN.md §9's
soundness rule).
"""

import json
import sqlite3

from dataclasses import replace

import pytest

from repro.cli import main
from repro.common import small_test_config
from repro.common.config import ObservabilityConfig
from repro.obs.export import read_trace_jsonl
from repro.registry import registered_scheme_names
from repro.sim.runner import ExperimentConfig, run_app
from repro.sweep import ResultStore, run_sweep
from repro.sweep.job import jobs_from_experiment

REQUESTS = 500


def _observed(system, **kwargs):
    defaults = {"enabled": True, "trace_capacity": 128, "sample_every": 3}
    defaults.update(kwargs)
    return replace(system, observability=ObservabilityConfig(**defaults))


class TestSoundness:
    """Observability on vs off: results must be bit-exact."""

    @pytest.mark.parametrize("scheme", registered_scheme_names())
    def test_summary_rows_identical_fast_path(self, scheme):
        system = small_test_config()
        off = run_app("gcc", [scheme], system=system,
                      requests=REQUESTS)[scheme]
        on = run_app("gcc", [scheme], system=_observed(system),
                     requests=REQUESTS)[scheme]
        assert off.summary_row() == on.summary_row()
        assert off.extras == on.extras

    def test_disabled_run_attaches_no_report(self):
        result = run_app("gcc", ["ESD"], system=small_test_config(),
                         requests=REQUESTS)["ESD"]
        assert result.obs is None


class TestReportContents:
    def test_report_carries_migrated_memo_counters(self):
        system = _observed(small_test_config())
        result = run_app("gcc", ["ESD"], system=system,
                         requests=REQUESTS)["ESD"]
        report = result.obs
        names = {row["name"] for row in report["metrics"]}
        memo_names = {n for n in names if n.startswith("memo_")}
        assert memo_names  # migrated kernel-cache statistics present
        # Compatibility view: the same keys still appear in extras.
        assert memo_names <= set(result.extras)

    def test_registry_counters_match_legacy_channels(self):
        system = _observed(small_test_config())
        result = run_app("gcc", ["ESD"], system=system,
                         requests=REQUESTS)["ESD"]
        rows = {(row["name"], tuple(sorted(row["labels"].items()))): row
                for row in result.obs["metrics"]}
        efit_rate = rows[("efit_hit_rate", ())]
        assert efit_rate["value"] == pytest.approx(
            result.extras["efit_hit_rate"])
        amt_rate = rows[("amt_hit_rate", ())]
        assert amt_rate["value"] == pytest.approx(
            result.extras["amt_hit_rate"])
        assert ("dedup_hits", (("component", "scheme"),)) in rows

    def test_latency_histograms_cover_recorded_requests(self):
        system = _observed(small_test_config())
        result = run_app("gcc", ["ESD"], system=system,
                         requests=REQUESTS)["ESD"]
        hists = {tuple(sorted(row["labels"].items())): row
                 for row in result.obs["metrics"]
                 if row["type"] == "histogram"}
        assert hists[(("op", "write"),)]["count"] == result.writes
        assert hists[(("op", "read"),)]["count"] == result.reads

    def test_trace_ring_respects_capacity(self):
        system = _observed(small_test_config(), trace_capacity=32,
                           sample_every=1)
        result = run_app("gcc", ["ESD"], system=system,
                         requests=REQUESTS)["ESD"]
        stats = result.obs["trace_stats"]
        assert stats["capacity"] == 32
        assert len(result.obs["trace"]) <= 32
        assert stats["dropped"] == stats["recorded"] - stats["retained"]


class TestSweepPersistence:
    def test_obs_reports_stored_per_job(self, tmp_path):
        system = _observed(small_test_config())
        config = ExperimentConfig(apps=["gcc"],
                                  schemes=["Baseline", "ESD"],
                                  requests_per_app=REQUESTS, system=system)
        store_path = tmp_path / "store.sqlite"
        run_sweep(config, jobs=1, store=store_path)
        store = ResultStore(store_path)
        for spec in jobs_from_experiment(config):
            report = store.get_obs(spec.digest())
            assert report is not None
            assert report["obs_schema_version"] == 1
        store.close()

    def test_disabled_sweep_creates_no_obs_dir(self, tmp_path):
        """A sweep without observability stores no obs report."""
        config = ExperimentConfig(apps=["gcc"], schemes=["Baseline"],
                                  requests_per_app=REQUESTS,
                                  system=small_test_config())
        store_path = tmp_path / "store.sqlite"
        run_sweep(config, jobs=1, store=store_path)
        with sqlite3.connect(store_path) as conn:
            assert conn.execute("SELECT COUNT(*) FROM obs").fetchone() \
                == (0,)
            assert conn.execute("SELECT COUNT(*) FROM results").fetchone() \
                == (1,)


class TestCLI:
    def test_trace_round_trips_jsonl(self, tmp_path, capsys):
        out = tmp_path / "gcc.trace.jsonl"
        rc = main(["trace", "--scheme", "ESD", "--app", "gcc",
                   "--requests", "1200", "--capacity", "64",
                   "--out", str(out)])
        assert rc == 0
        assert "wrote 64 events" in capsys.readouterr().out
        events = read_trace_jsonl(out)
        assert len(events) == 64
        components = {e.component for e in events}
        assert components & {"engine", "controller", "timeline"}

    def test_trace_to_stdout(self, capsys):
        rc = main(["trace", "--scheme", "0", "--app", "gcc",
                   "--requests", "900", "--capacity", "16"])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 16
        json.loads(lines[0])

    def test_report_json(self, capsys):
        rc = main(["report", "--scheme", "ESD", "--app", "gcc",
                   "--requests", "1200"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["scheme"] == "ESD"
        names = {row["name"] for row in payload["metrics"]}
        assert any(n.startswith("memo_") for n in names)
        assert "request_latency_ns" in names

    def test_report_csv_to_file(self, tmp_path, capsys):
        out = tmp_path / "report.csv"
        rc = main(["report", "--scheme", "ESD", "--app", "gcc",
                   "--requests", "900", "--format", "csv",
                   "--out", str(out)])
        assert rc == 0
        header = out.read_text().splitlines()[0]
        assert header == "name,labels,type,value,count,sum,min,max"
