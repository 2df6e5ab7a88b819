"""Cross-scheme integration tests: the invariants every scheme must share.

These are the guarantees the paper's Section III-E argues for —
deduplication must never lose data, regardless of collisions, replacement,
reference-count overflow, or frame recycling — exercised uniformly across
Baseline, Dedup_SHA1, DeWrite, and ESD on realistic traces.
"""

import pytest

from repro.common import small_test_config
from repro.registry import make_scheme, scheme_names
from repro.sim import EngineConfig, SimulationEngine
from repro.workloads import TraceGenerator

ALL_SCHEMES = list(scheme_names())


def run_scheme(name, trace, config=None):
    config = config or small_test_config()
    engine = SimulationEngine(make_scheme(name, config),
                              EngineConfig(warmup_fraction=0.0))
    return engine.run(iter(trace), app="test", total_hint=len(trace))


class TestDataIntegrity:
    """verify_integrity is on in the fixtures: any stale read raises."""

    @pytest.mark.parametrize("scheme", ALL_SCHEMES)
    @pytest.mark.parametrize("app", ["gcc", "deepsjeng", "lbm", "leela"])
    def test_no_scheme_loses_data(self, scheme, app):
        trace = TraceGenerator(app, seed=13).generate_list(2_500)
        run_scheme(scheme, trace)  # raises IntegrityError on violation

    @pytest.mark.parametrize("scheme", ALL_SCHEMES)
    def test_integrity_under_metadata_pressure(self, scheme):
        """Tiny metadata caches force constant eviction/recycling."""
        from repro.common.units import kib
        config = small_test_config().with_metadata_cache(
            efit_bytes=256, amt_bytes=kib(1))
        trace = TraceGenerator("mcf", seed=17).generate_list(2_500)
        run_scheme(scheme, trace, config)

    @pytest.mark.parametrize("scheme", ALL_SCHEMES)
    def test_integrity_with_referh_pressure(self, scheme):
        config = small_test_config().with_esd(refer_h_max=2)
        trace = TraceGenerator("deepsjeng", seed=19).generate_list(2_000)
        run_scheme(scheme, trace, config)


class TestSchemeEquivalence:
    """All schemes must expose the same logical memory contents."""

    def test_final_read_values_identical_across_schemes(self):
        trace = TraceGenerator("x264", seed=23).generate_list(2_000)
        # Collect the data each scheme returns for the final read of every
        # address; the engine already verifies against the shadow copy, so
        # equal shadow means equal observable state.
        expected = {}
        for req in trace:
            if req.is_write:
                expected[req.address] = req.data
        for scheme_name in ALL_SCHEMES:
            scheme = make_scheme(scheme_name, small_test_config())
            for req in trace:
                if req.is_write:
                    scheme.handle_write(req)
            for address, data in list(expected.items())[:200]:
                from repro.common.types import AccessType, MemoryRequest
                read = MemoryRequest(address=address, access=AccessType.READ,
                                     issue_time_ns=10**9)
                assert scheme.handle_read(read).data == data, scheme_name


class TestDedupEffectiveness:
    def test_dedup_schemes_reduce_pcm_writes(self):
        trace = TraceGenerator("lbm", seed=29).generate_list(3_000)
        results = {name: run_scheme(name, trace) for name in ALL_SCHEMES}
        base = results["Baseline"].pcm_data_writes
        for name in ("Dedup_SHA1", "DeWrite", "ESD"):
            assert results[name].pcm_data_writes < base, name

    def test_full_dedup_catches_at_least_selective(self):
        trace = TraceGenerator("gcc", seed=29).generate_list(3_000)
        results = {name: run_scheme(name, trace)
                   for name in ("Dedup_SHA1", "ESD")}
        assert (results["Dedup_SHA1"].dedup_eliminated
                >= results["ESD"].dedup_eliminated - 5)

    def test_esd_space_efficiency(self):
        """Dedup shrinks the live-frame population vs Baseline."""
        trace = TraceGenerator("deepsjeng", seed=31).generate_list(3_000)
        base = make_scheme("Baseline", small_test_config())
        esd = make_scheme("ESD", small_test_config())
        for req in trace:
            if req.is_write:
                base.handle_write(req)
                esd.handle_write(req)
        assert esd.allocator.allocated_count < base.allocator.allocated_count


class TestDeterminism:
    @pytest.mark.parametrize("scheme", ALL_SCHEMES)
    def test_bitwise_reproducible(self, scheme):
        def one_run():
            trace = TraceGenerator("dedup", seed=37).generate_list(2_000)
            return run_scheme(scheme, trace)
        a, b = one_run(), one_run()
        assert a.mean_write_latency_ns == b.mean_write_latency_ns
        assert a.mean_read_latency_ns == b.mean_read_latency_ns
        assert a.total_energy_nj == b.total_energy_nj
        assert a.pcm_data_writes == b.pcm_data_writes
        assert a.ipc == b.ipc


class TestEnduranceStory:
    def test_esd_spreads_or_reduces_wear(self):
        """Fewer writes must reach PCM cells under ESD (Figure 11's point)."""
        trace = TraceGenerator("roms", seed=41).generate_list(3_000)
        base = make_scheme("Baseline", small_test_config())
        esd = make_scheme("ESD", small_test_config())
        for req in trace:
            if req.is_write:
                base.handle_write(req)
                esd.handle_write(req)
        assert (esd.controller.device.write_ops
                < base.controller.device.write_ops)


class TestPaperHeadlines:
    """Slow-ish sanity checks of the paper's core comparative claims."""

    def test_esd_fastest_writes_on_high_dup_app(self):
        trace = TraceGenerator("deepsjeng", seed=43).generate_list(4_000)
        from repro.sim.runner import scaled_system_config
        results = {name: None for name in ALL_SCHEMES}
        for name in ALL_SCHEMES:
            engine = SimulationEngine(
                make_scheme(name, scaled_system_config()))
            results[name] = engine.run(iter(trace), app="deepsjeng",
                                       total_hint=len(trace))
        write_lat = {n: r.mean_write_latency_ns for n, r in results.items()}
        assert write_lat["ESD"] < write_lat["Baseline"]
        assert write_lat["ESD"] < write_lat["Dedup_SHA1"]
        assert write_lat["ESD"] < write_lat["DeWrite"]

    def test_esd_lowest_energy(self):
        trace = TraceGenerator("mcf", seed=47).generate_list(4_000)
        from repro.sim.runner import scaled_system_config
        energies = {}
        for name in ALL_SCHEMES:
            engine = SimulationEngine(
                make_scheme(name, scaled_system_config()))
            r = engine.run(iter(trace), app="mcf", total_hint=len(trace))
            energies[name] = r.total_energy_nj
        assert energies["ESD"] == min(energies.values())
