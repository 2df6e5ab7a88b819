"""Tests for the simulation engine (throttling, warm-up, integrity)."""

from dataclasses import replace

import pytest

from repro.common.errors import IntegrityError
from repro.common.types import AccessType, MemoryRequest
from repro.dedup import make_scheme
from repro.registry import registered_scheme_names
from repro.sim.engine import EngineConfig, SimulationEngine


class TestEngineConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            EngineConfig(max_outstanding=0)
        with pytest.raises(ValueError):
            EngineConfig(warmup_fraction=1.0)
        with pytest.raises(ValueError):
            EngineConfig(max_latency_samples=0)


class TestRun:
    def test_counts_post_warmup_requests(self, config, small_trace):
        engine = SimulationEngine(make_scheme("Baseline", config),
                                  EngineConfig(warmup_fraction=0.5))
        result = engine.run(iter(small_trace), app="gcc",
                            total_hint=len(small_trace))
        recorded = result.writes + result.reads
        assert recorded == len(small_trace) - len(small_trace) // 2

    def test_zero_warmup_records_everything(self, config, small_trace):
        engine = SimulationEngine(make_scheme("Baseline", config),
                                  EngineConfig(warmup_fraction=0.0))
        result = engine.run(iter(small_trace), app="gcc",
                            total_hint=len(small_trace))
        assert result.writes + result.reads == len(small_trace)

    def test_result_fields_populated(self, config, small_trace):
        engine = SimulationEngine(make_scheme("ESD", config))
        result = engine.run(iter(small_trace), app="gcc",
                            total_hint=len(small_trace))
        assert result.app == "gcc"
        assert result.scheme == "ESD"
        assert result.mean_write_latency_ns > 0
        assert result.mean_read_latency_ns > 0
        assert result.total_energy_nj > 0
        assert result.ipc > 0
        assert result.metadata is not None
        assert "efit_hit_rate" in result.extras

    def test_dedup_reduces_pcm_writes(self, config, write_heavy_trace):
        base = SimulationEngine(make_scheme("Baseline", config)).run(
            iter(write_heavy_trace), app="lbm",
            total_hint=len(write_heavy_trace))
        esd = SimulationEngine(make_scheme("ESD", config)).run(
            iter(write_heavy_trace), app="lbm",
            total_hint=len(write_heavy_trace))
        assert esd.pcm_data_writes < base.pcm_data_writes

    def test_throttling_bounds_latency_growth(self, config):
        """A tiny outstanding window keeps latencies near service times."""
        from repro.workloads import TraceGenerator
        trace = TraceGenerator("lbm", seed=3).generate_list(2_000)
        tight = SimulationEngine(
            make_scheme("Dedup_SHA1", config),
            EngineConfig(max_outstanding=4)).run(
                iter(trace), app="lbm", total_hint=len(trace))
        loose = SimulationEngine(
            make_scheme("Dedup_SHA1", config),
            EngineConfig(max_outstanding=100_000)).run(
                iter(trace), app="lbm", total_hint=len(trace))
        assert tight.mean_write_latency_ns <= loose.mean_write_latency_ns


class TestIntegrity:
    def test_detects_corrupting_scheme(self, config):
        """A deliberately broken scheme must trip the integrity check."""
        scheme = make_scheme("Baseline", config)
        original = scheme.handle_read

        def corrupted_read(request):
            result = original(request)
            from repro.dedup.base import ReadResult
            bad = bytes(64) if result.data != bytes(64) else b"\x01" * 64
            return ReadResult(data=bad, completion_ns=result.completion_ns,
                              latency_ns=result.latency_ns)

        scheme.handle_read = corrupted_read
        requests = [
            MemoryRequest(address=0, access=AccessType.WRITE,
                          data=bytes(range(64)), issue_time_ns=0.0, seq=1),
            MemoryRequest(address=0, access=AccessType.READ,
                          issue_time_ns=1000.0, seq=2),
        ]
        engine = SimulationEngine(scheme, EngineConfig(warmup_fraction=0.0))
        with pytest.raises(IntegrityError):
            engine.run(iter(requests), app="x")

    @pytest.mark.parametrize("scheme_name",
                             ["Baseline", "Dedup_SHA1", "DeWrite", "ESD"])
    def test_all_schemes_pass_integrity(self, config, small_trace,
                                        scheme_name):
        engine = SimulationEngine(make_scheme(scheme_name, config))
        engine.run(iter(small_trace), app="gcc",
                   total_hint=len(small_trace))  # raises on violation


def _throttled_run(config, requests, scheme_name, *, max_outstanding=2,
                   seen=None, revalidate=False):
    scheme = make_scheme(scheme_name, config)
    if seen is not None or revalidate:
        for name in ("handle_write", "handle_read"):
            def spy(request, inner=getattr(scheme, name)):
                # Record every request object the scheme is handed, or
                # hand it a copy rebuilt through the validating
                # constructor instead.
                if seen is not None:
                    seen.append(request)
                if revalidate:
                    request = replace(request)
                return inner(request)
            setattr(scheme, name, spy)
    engine = SimulationEngine(scheme,
                              EngineConfig(max_outstanding=max_outstanding))
    return engine.run(iter(requests), app="gcc", total_hint=len(requests))


class TestThrottledReissue:
    """A 2-request window re-issues most requests late, as trusted copies
    that skip the constructor's checks; the reference hands the scheme copies
    re-validated through ``dataclasses.replace`` instead."""

    def test_shared_requests_unchanged_and_rows_match_reference(
            self, config, small_trace):
        def fields(r):
            return (r.address, r.access, r.data, r.issue_time_ns, r.core,
                    r.seq)

        before = [fields(r) for r in small_trace]
        for scheme_name in ("ESD", "DeWrite"):
            want = _throttled_run(config, small_trace, scheme_name,
                                  revalidate=True).summary_row()
            seen = []
            got = _throttled_run(config, small_trace, scheme_name,
                                 seen=seen)
            assert got.summary_row() == want
            assert len(seen) == len(small_trace)
            late = 0
            for copy, source in zip(seen, small_trace):
                assert type(copy) is MemoryRequest
                assert fields(copy)[:3] == fields(source)[:3]
                assert fields(copy)[4:] == fields(source)[4:]
                late += copy.issue_time_ns > source.issue_time_ns
            assert late > len(small_trace) // 2
        assert [fields(r) for r in small_trace] == before

    @pytest.mark.parametrize("short", [True])
    @pytest.mark.parametrize("scheme_name", registered_scheme_names())
    def test_short_payload_fails_alike_throttled_or_not(self, config,
                                                        scheme_name, short):
        payload = bytes(63) if short else bytes(65)
        messages = []
        for max_outstanding in (64, 2):
            requests = [MemoryRequest(address=64 * i,
                                      access=AccessType.WRITE,
                                      data=bytes([i + 1]) * 64,
                                      issue_time_ns=0.0, seq=i)
                        for i in range(4)]
            # Mutated after construction, so the constructor never saw it;
            # with a 2-request window the last two writes are throttled.
            requests[3].data = payload
            with pytest.raises(ValueError) as caught:
                _throttled_run(config, requests, scheme_name,
                               max_outstanding=max_outstanding)
            messages.append(str(caught.value))
        assert messages[0] == messages[1]
        assert f"64 bytes, got {len(payload)}" in messages[0]
