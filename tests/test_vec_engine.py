"""Engine-level tests for the fast path's epoch priming (``repro.vec``).

Covers the pieces the parity suite exercises only implicitly: per-run
:class:`VecStats` accounting and its export through result extras and
the observability registry, the :class:`EpochPrecomputer`'s cache
priming and scalar-fallback paths, and the batched trace deserializer
against the scalar reference parser (identical requests and identical
errors on malformed streams).
"""

import io
import random
import struct
from dataclasses import replace

import pytest

from repro.common import small_test_config
from repro.common.config import ObservabilityConfig
from repro.common.types import AccessType, MemoryRequest, request_unchecked
from repro.crypto.fingerprints import SHA1Engine, TruncatedEngine
from repro.dedup import make_scheme
from repro.perf import memo
from repro.sim import session as session_mod
from repro.sim.runner import run_app
from repro.vec.epoch import EPOCH_SIZE, EpochPrecomputer, VecStats
from repro.workloads.generator import TraceGenerator
from repro.workloads.trace import (
    _parse_records,
    pack_records,
    parse_records,
    read_trace_list,
    write_trace,
)

REQUESTS = 600


@pytest.fixture(autouse=True)
def _cold_caches():
    memo.reset_all()
    yield
    memo.reset_all()


def _write(seq, content, address=0):
    return MemoryRequest(address=address, access=AccessType.WRITE,
                         data=content, issue_time_ns=float(seq), seq=seq)


def _read(seq, address=0):
    return MemoryRequest(address=address, access=AccessType.READ,
                         issue_time_ns=float(seq), seq=seq)


class TestVecStats:
    def test_observe_epoch_tracks_extremes(self):
        stats = VecStats()
        for size in (1024, 1024, 640):
            stats.observe_epoch(size)
        assert stats.epochs == 3
        assert stats.requests == 2688
        assert stats.min_epoch_size == 640
        assert stats.max_epoch_size == 1024

    def test_kernel_occupancy(self):
        stats = VecStats()
        assert stats.kernel_occupancy == 0.0
        stats.writes = 10
        stats.covered_writes = 7
        assert stats.kernel_occupancy == pytest.approx(0.7)

    def test_snapshot_keys(self):
        snap = VecStats().snapshot()
        assert all(k.startswith("vec_") for k in snap)
        assert "vec_epochs" in snap
        assert "vec_kernel_occupancy" in snap
        assert "vec_scalar_fallback_lines" in snap
        assert all(isinstance(v, float) for v in snap.values())


class TestEpochPrecomputer:
    def _epoch(self, contents):
        epoch = [_write(i, data, address=i * 64)
                 for i, data in enumerate(contents)]
        epoch.append(_read(len(epoch), address=0))
        return epoch

    def test_esd_priming_fills_line_ecc_cache(self):
        scheme = make_scheme("ESD", small_test_config())
        stats = VecStats()
        precomp = EpochPrecomputer(scheme, stats)
        rng = random.Random(31)
        contents = [rng.randbytes(64) for _ in range(8)]
        cache = memo.get_cache("line_ecc", 1 << 16)
        precomp.precompute(self._epoch(contents + contents[:3]))
        assert all(data in cache for data in contents)
        assert stats.writes == 11
        assert stats.unique_write_contents == 8  # duplicates deduped
        assert stats.batched_ecc_lines == 8
        assert stats.covered_writes == 11
        assert stats.scalar_fallback_lines == 0

    def test_already_cached_contents_not_recomputed(self):
        scheme = make_scheme("ESD", small_test_config())
        stats = VecStats()
        precomp = EpochPrecomputer(scheme, stats)
        contents = [random.Random(32).randbytes(64)]
        precomp.precompute(self._epoch(contents))
        precomp.precompute(self._epoch(contents))
        assert stats.batched_ecc_lines == 1  # second epoch found it cached

    def test_sha1_scheme_primes_fingerprint_cache(self):
        scheme = make_scheme("Dedup_SHA1", small_test_config())
        stats = VecStats()
        precomp = EpochPrecomputer(scheme, stats)
        rng = random.Random(33)
        contents = [rng.randbytes(64) for _ in range(5)]
        precomp.precompute(self._epoch(contents))
        assert stats.batched_fp_lines >= 5
        assert stats.covered_writes == 5

    def test_baseline_falls_back_to_scalar(self):
        scheme = make_scheme("Baseline", small_test_config())
        stats = VecStats()
        precomp = EpochPrecomputer(scheme, stats)
        rng = random.Random(34)
        contents = [rng.randbytes(64) for _ in range(4)]
        precomp.precompute(self._epoch(contents))
        assert stats.scalar_fallback_lines == 4
        assert stats.covered_writes == 0

    def test_dae_excluded_from_priming(self):
        # DaE fingerprints ciphertext (pad-dependent), so there is nothing
        # content-keyed to batch before resolution.
        scheme = make_scheme("DaE", small_test_config())
        assert scheme.vec_prime_engines() == ()

    def test_read_only_epoch_counts_no_writes(self):
        scheme = make_scheme("ESD", small_test_config())
        stats = VecStats()
        EpochPrecomputer(scheme, stats).precompute(
            [_read(i, address=i * 64) for i in range(6)])
        assert stats.epochs == 1
        assert stats.requests == 6
        assert stats.writes == 0


class TestPrimeBatchEngines:
    def test_sha1_prime_batch_serves_later_calls_from_cache(self):
        engine = SHA1Engine()
        rng = random.Random(36)
        contents = [rng.randbytes(64) for _ in range(6)]
        assert engine.prime_batch(contents) == 6
        cache = memo.get_cache(f"fp_{engine.name}", 1 << 16)
        hits_before = cache.hits
        values = [engine.fingerprint(d) for d in contents]
        assert cache.hits == hits_before + 6
        assert values == [engine._digest(d) for d in contents]

    def test_truncated_engine_delegates_to_inner(self):
        engine = TruncatedEngine(SHA1Engine(), bits=128)
        rng = random.Random(37)
        contents = [rng.randbytes(64) for _ in range(3)]
        assert engine.prime_batch(contents) == 3
        assert engine.prime_batch(contents) == 0  # all cached now


class TestEngineIntegration:
    def _run(self, requests=REQUESTS):
        return run_app("gcc", ["ESD"], system=small_test_config(),
                       requests=requests)["ESD"]

    def test_extras_exported_when_on(self):
        result = self._run()
        assert result.extras["vec_epochs"] == 1.0  # 600 < EPOCH_SIZE
        assert result.extras["vec_requests"] == float(REQUESTS)
        assert result.extras["vec_kernel_occupancy"] == 1.0
        assert result.extras["vec_scalar_fallback_lines"] == 0.0

    def test_epoch_size_shapes_stats_not_results(self, monkeypatch):
        assert EPOCH_SIZE == 1024
        monkeypatch.setattr(session_mod, "EPOCH_SIZE", 128)
        small = self._run()
        monkeypatch.setattr(session_mod, "EPOCH_SIZE", 4096)
        large = self._run()
        assert small.extras["vec_epochs"] == 5.0  # ceil(600 / 128)
        assert large.extras["vec_epochs"] == 1.0
        assert small.extras["vec_min_epoch_size"] == 88.0  # 600 - 4*128
        assert small.summary_row() == large.summary_row()

    def test_obs_registry_carries_vec_metrics(self):
        system = replace(
            small_test_config(),
            observability=ObservabilityConfig(enabled=True,
                                              trace_capacity=64,
                                              sample_every=3))
        result = run_app("gcc", ["ESD"], system=system,
                         requests=REQUESTS)["ESD"]
        rows = {row["name"]: row for row in result.obs["metrics"]}
        assert rows["vec_epochs"]["type"] == "counter"
        assert rows["vec_kernel_occupancy"]["type"] == "gauge"
        assert rows["vec_epoch_size"]["type"] == "histogram"
        assert rows["vec_epoch_size"]["count"] == \
            result.extras["vec_epochs"]


class TestVectorizedTraceIO:
    """The batched parser against the scalar reference parser."""

    def _requests(self, count=800):
        return TraceGenerator("gcc", seed=9).generate_list(count)

    def test_roundtrip_byte_identical_both_modes(self):
        requests = self._requests()
        payload, count = pack_records(requests)
        assert list(_parse_records(payload, count)) == requests
        assert list(parse_records(payload, count)) == requests

    def test_cross_mode_roundtrip(self):
        # The file reader's decode equals the reference parser's decode
        # of the same records.
        requests = self._requests(200)
        buffer = io.BytesIO()
        write_trace(requests, buffer)
        buffer.seek(0)
        payload, count = pack_records(requests)
        assert read_trace_list(buffer) == list(_parse_records(payload,
                                                              count))

    def _blob(self, requests):
        """A v1 trace's record bytes (after its 20-byte header)."""
        buffer = io.BytesIO()
        write_trace(requests, buffer, version=1)
        return buffer.getvalue()[20:]

    def _error(self, payload, count):
        outcomes = []
        for parse in (_parse_records, parse_records):
            try:
                list(parse(payload, count))
                outcomes.append(None)
            except Exception as exc:  # noqa: BLE001 - parity capture
                outcomes.append((type(exc), str(exc)))
        return outcomes

    def test_error_parity_truncated_payload(self):
        blob = self._blob(self._requests(50))
        ref, vec = self._error(blob[:-10], 50)
        assert ref == vec and ref is not None
        assert "truncated" in ref[1]

    def test_error_parity_unknown_kind(self):
        blob = bytearray(self._blob(self._requests(50)))
        blob[0] = 9  # first record's kind byte
        ref, vec = self._error(bytes(blob), 50)
        assert ref == vec and ref is not None
        assert "unknown record kind 9" in ref[1]

    def test_error_parity_misaligned_address(self):
        blob = bytearray(self._blob(self._requests(50)))
        struct.pack_into("<Q", blob, 8, 65)  # unaligned address
        ref, vec = self._error(bytes(blob), 50)
        assert ref == vec and ref is not None
        assert ref[0] is ValueError

    def test_empty_trace(self):
        assert list(_parse_records(b"", 0)) == []
        assert list(parse_records(b"", 0)) == []
        buffer = io.BytesIO()
        assert write_trace([], buffer) == 0
        buffer.seek(0)
        assert read_trace_list(buffer) == []


class TestRequestUnchecked:
    def test_equals_validated_constructor(self):
        data = bytes(range(64))
        checked = MemoryRequest(address=128, access=AccessType.WRITE,
                                data=data, issue_time_ns=5.0, core=1, seq=7)
        trusted = request_unchecked(128, AccessType.WRITE, data, 5.0, 1, 7)
        assert trusted == checked
        assert trusted.is_write and trusted.line_index == 2

    def test_read_request(self):
        trusted = request_unchecked(0, AccessType.READ, None, 0.0, 0, 0)
        assert trusted == MemoryRequest(address=0, access=AccessType.READ)

