"""Tests for the multi-app/multi-scheme runner."""

import pytest

from repro.sim.metrics import speedup
from repro.sim.runner import (
    ExperimentConfig,
    grid_metric,
    iter_apps,
    run_app,
    run_grid,
    scaled_system_config,
)


class TestRunApp:
    def test_runs_all_schemes_on_shared_trace(self, config):
        results = run_app("gcc", ["Baseline", "ESD"], requests=1_500,
                          system=config)
        assert set(results) == {"Baseline", "ESD"}
        base, esd = results["Baseline"], results["ESD"]
        # Same trace: same request counts presented.
        assert base.writes == esd.writes
        assert base.reads == esd.reads

    def test_explicit_trace_reused(self, config, small_trace):
        results = run_app("gcc", ["Baseline"], system=config,
                          trace=small_trace)
        total = results["Baseline"].writes + results["Baseline"].reads
        assert total == len(small_trace) - len(small_trace) // 10

    def test_deterministic_across_calls(self, config):
        a = run_app("x264", ["ESD"], requests=1_200, system=config, seed=5)
        b = run_app("x264", ["ESD"], requests=1_200, system=config, seed=5)
        assert a["ESD"].mean_write_latency_ns == b["ESD"].mean_write_latency_ns
        assert a["ESD"].pcm_data_writes == b["ESD"].pcm_data_writes

    def test_bare_string_schemes_rejected(self, config):
        with pytest.raises(TypeError, match=r"\['ESD'\]"):
            run_app("gcc", "ESD", requests=100, system=config)


class TestExperimentConfig:
    def test_defaults(self):
        cfg = ExperimentConfig()
        assert len(cfg.apps) == 20
        assert len(cfg.schemes) == 4

    def test_rejects_unknown_scheme(self):
        with pytest.raises(ValueError):
            ExperimentConfig(schemes=["Baseline", "NVDedup"])

    def test_bare_string_schemes_rejected(self):
        with pytest.raises(TypeError, match=r"\['ESD'\]"):
            ExperimentConfig(schemes="ESD")

    def test_bare_string_apps_rejected(self):
        with pytest.raises(TypeError, match=r"\['gcc'\]"):
            ExperimentConfig(apps="gcc")

    def test_rejects_nonpositive_requests(self):
        with pytest.raises(ValueError):
            ExperimentConfig(requests_per_app=0)

    def test_scaled_system_config_shrinks_caches(self):
        from repro.common import default_config
        scaled = scaled_system_config()
        assert (scaled.metadata_cache.efit_bytes
                < default_config().metadata_cache.efit_bytes)


class TestRunGrid:
    def test_grid_shape(self, config):
        cfg = ExperimentConfig(apps=["gcc", "namd"],
                               schemes=["Baseline", "ESD"],
                               requests_per_app=1_200, system=config)
        grid = run_grid(cfg)
        assert set(grid) == {("gcc", "Baseline"), ("gcc", "ESD"),
                             ("namd", "Baseline"), ("namd", "ESD")}

    def test_iter_apps_order(self, config):
        cfg = ExperimentConfig(apps=["namd", "gcc"], schemes=["Baseline"],
                               requests_per_app=1_000, system=config)
        grid = run_grid(cfg)
        assert list(iter_apps(grid)) == ["namd", "gcc"]

    def test_grid_metric_pivot(self, config):
        cfg = ExperimentConfig(apps=["gcc"], schemes=["Baseline", "ESD"],
                               requests_per_app=1_200, system=config)
        grid = run_grid(cfg)
        pivot = grid_metric(grid, "write_latency_ns")
        assert set(pivot["gcc"]) == {"Baseline", "ESD"}
        with pytest.raises(KeyError):
            grid_metric(grid, "not_a_metric")


class TestSpeedupHelper:
    def test_speedup_definition(self, config):
        results = run_app("deepsjeng", ["Baseline", "ESD"], requests=2_000,
                          system=config)
        s = speedup(results["Baseline"], results["ESD"], metric="write")
        expected = (results["Baseline"].mean_write_latency_ns
                    / results["ESD"].mean_write_latency_ns)
        assert s == pytest.approx(expected)

    def test_unknown_metric(self, config):
        results = run_app("gcc", ["Baseline"], requests=1_000, system=config)
        with pytest.raises(ValueError):
            speedup(results["Baseline"], results["Baseline"], metric="ipc")
