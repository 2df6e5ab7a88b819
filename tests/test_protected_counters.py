"""Tests for the protect_counters pipeline option (Section III-E)."""

import dataclasses

import pytest

from repro.common import small_test_config
from repro.common.errors import IntegrityError
from repro.common.timeline import StageTimeline
from repro.registry import make_scheme, registered_scheme_names
from repro.sim import SimulationEngine
from repro.workloads import TraceGenerator


@pytest.fixture
def protected_config():
    return dataclasses.replace(small_test_config(), protect_counters=True)


class TestProtectedPipeline:
    @pytest.mark.parametrize("scheme_name", list(registered_scheme_names()))
    def test_every_scheme_runs_clean_with_protection(self, protected_config,
                                                     scheme_name):
        trace = TraceGenerator("gcc", seed=33).generate_list(1_500)
        scheme = make_scheme(scheme_name, protected_config)
        assert scheme.integrity_tree is not None
        engine = SimulationEngine(scheme)
        engine.run(iter(trace), app="gcc", total_hint=len(trace))
        # The tree saw real traffic.
        assert scheme.integrity_tree.updates > 0
        assert scheme.integrity_tree.verifications > 0

    def test_protection_off_by_default(self, config):
        scheme = make_scheme("ESD", config)
        assert scheme.integrity_tree is None

    def test_tamper_detected_mid_run(self, protected_config):
        scheme = make_scheme("Baseline", protected_config)
        trace = TraceGenerator("gcc", seed=35).generate_list(200)
        writes = [r for r in trace if r.is_write]
        reads = [r for r in trace if r.is_read]
        for req in writes[:50]:
            scheme.handle_write(req)
        # Roll one counter back behind the tree's back.
        victim = next(iter(scheme.crypto.counters.counters))
        scheme.crypto.counters.counters[victim] += 1
        tampered_frame = victim
        # Reading any line on the tampered leaf's path must fail.
        with pytest.raises(IntegrityError):
            scheme._read_and_decrypt(tampered_frame, StageTimeline(10_000.0))

    def test_protection_adds_latency(self):
        base_cfg = small_test_config()
        prot_cfg = dataclasses.replace(base_cfg, protect_counters=True)
        trace = TraceGenerator("gcc", seed=37).generate_list(1_500)
        results = {}
        for name, cfg in (("off", base_cfg), ("on", prot_cfg)):
            engine = SimulationEngine(make_scheme("Baseline", cfg))
            results[name] = engine.run(iter(list(trace)), app="gcc",
                                       total_hint=len(trace))
        assert (results["on"].mean_write_latency_ns
                >= results["off"].mean_write_latency_ns)

    def test_integrity_and_dedup_compose(self, protected_config):
        """Dedup's remapping must not confuse counter verification."""
        trace = TraceGenerator("deepsjeng", seed=39).generate_list(2_000)
        engine = SimulationEngine(make_scheme("ESD", protected_config))
        result = engine.run(iter(trace), app="deepsjeng",
                            total_hint=len(trace))
        assert result.write_reduction > 0.9
