"""Tests for the NV-Dedup related-work scheme."""

import pytest

from repro.common.types import AccessType, MemoryRequest, WritePathStage
from repro.dedup.nvdedup import NVDedupScheme
from repro.registry import make_scheme


def wreq(addr, data, t=0.0):
    return MemoryRequest(address=addr, access=AccessType.WRITE, data=data,
                         issue_time_ns=t)


def rreq(addr, t=0.0):
    return MemoryRequest(address=addr, access=AccessType.READ, issue_time_ns=t)


LINE = bytes(range(64))
OTHER = b"\x1D" * 64


@pytest.fixture
def scheme(config):
    return NVDedupScheme(config)


class TestTwoTierFingerprinting:
    def test_factory(self, config):
        assert isinstance(make_scheme("NV-Dedup", config), NVDedupScheme)

    def test_unique_write_skips_strong_hash_latency(self, scheme):
        """The scheme's selling point: weak-miss lines pay only the CRC."""
        r = scheme.handle_write(wreq(0, LINE))
        assert not r.deduplicated
        # Only the CRC appears on the critical path.
        assert r.stages[WritePathStage.FINGERPRINT_COMPUTE] == \
            pytest.approx(scheme.weak_engine.latency_ns)
        assert scheme.counters.get("strong_hashes") == 0

    def test_duplicate_pays_both_hashes(self, scheme):
        scheme.handle_write(wreq(0, LINE))
        r = scheme.handle_write(wreq(64, LINE, t=500.0))
        assert r.deduplicated
        assert r.stages[WritePathStage.FINGERPRINT_COMPUTE] == \
            pytest.approx(scheme.weak_engine.latency_ns
                          + scheme.strong_engine.latency_ns)
        assert scheme.counters.get("strong_hashes") == 1

    def test_read_back_correct(self, scheme):
        scheme.handle_write(wreq(0, LINE))
        scheme.handle_write(wreq(64, LINE, t=500.0))
        scheme.handle_write(wreq(128, OTHER, t=1000.0))
        assert scheme.handle_read(rreq(64, t=2000.0)).data == LINE
        assert scheme.handle_read(rreq(128, t=2500.0)).data == OTHER

    def test_weak_collision_not_deduplicated(self, scheme):
        """Same CRC, different content: the strong hash must catch it."""
        # CRC32 over fixed-length input is affine over GF(2):
        # crc(a^b^c) = crc(a)^crc(b)^crc(c).  Gaussian-eliminate the
        # single-bit basis images to construct a nonzero bit pattern in the
        # kernel — a guaranteed collider against the zero line.
        import zlib
        base = bytes(64)
        c0 = zlib.crc32(base)
        basis = {}  # pivot bit -> (value, combo bitmask over input bits)
        collider = None
        for i in range(512):
            m = bytearray(64)
            m[i // 8] ^= 1 << (i % 8)
            v = zlib.crc32(bytes(m)) ^ c0
            combo = 1 << i
            while v:
                pivot = v.bit_length() - 1
                if pivot in basis:
                    bv, bc = basis[pivot]
                    v ^= bv
                    combo ^= bc
                else:
                    basis[pivot] = (v, combo)
                    break
            else:
                out = bytearray(64)
                for bit in range(512):
                    if combo >> bit & 1:
                        out[bit // 8] ^= 1 << (bit % 8)
                collider = bytes(out)
                break
        assert collider is not None and collider != base
        assert zlib.crc32(collider) == c0
        scheme.handle_write(wreq(0, base))
        r = scheme.handle_write(wreq(64, collider, t=500.0))
        assert not r.deduplicated
        assert scheme.counters.get("weak_collisions") == 1
        assert scheme.handle_read(rreq(0, t=1000.0)).data == base
        assert scheme.handle_read(rreq(64, t=1100.0)).data == collider

    def test_strong_fingerprints_tracked_per_frame(self, scheme):
        scheme.handle_write(wreq(0, LINE))
        assert len(scheme._strong) == 1
        scheme.handle_write(wreq(0, OTHER, t=500.0))  # frees LINE's frame
        # One live frame -> one strong fingerprint retained.
        assert len(scheme._strong) == 1

    def test_metadata_includes_strong_store(self, scheme):
        scheme.handle_write(wreq(0, LINE))
        footprint = scheme.metadata_footprint()
        assert footprint.nvmm_bytes >= scheme.strong_entry_size


class TestIntegrity:
    def test_no_data_loss_on_trace(self, config):
        from repro.sim import SimulationEngine
        from repro.workloads import TraceGenerator
        trace = TraceGenerator("dedup", seed=21).generate_list(2_500)
        engine = SimulationEngine(make_scheme("NV-Dedup", config))
        result = engine.run(iter(trace), app="dedup", total_hint=len(trace))
        assert result.write_reduction > 0.3

    def test_cheaper_hashes_than_sha1_on_unique_heavy_trace(self, config):
        from repro.workloads import TraceGenerator
        trace = TraceGenerator("namd", seed=23).generate_list(2_000)
        nv = make_scheme("NV-Dedup", config)
        sha1 = make_scheme("Dedup_SHA1", config)
        nv_total = sha1_total = 0.0
        for req in trace:
            if req.is_write:
                nv_total += nv.handle_write(req).latency_ns
                sha1_total += sha1.handle_write(req).latency_ns
        # namd is ~33% duplicates: most writes skip the strong hash.
        assert nv_total < sha1_total
