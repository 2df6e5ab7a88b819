"""Tests for the Baseline scheme (encryption, no dedup)."""

import pytest

from repro.common.types import AccessType, MemoryRequest, WritePathStage
from repro.dedup.baseline import BaselineScheme


def wreq(addr, data, t=0.0):
    return MemoryRequest(address=addr, access=AccessType.WRITE, data=data,
                         issue_time_ns=t)


def rreq(addr, t=0.0):
    return MemoryRequest(address=addr, access=AccessType.READ, issue_time_ns=t)


LINE = bytes(range(64))


@pytest.fixture
def scheme(config):
    return BaselineScheme(config)


class TestWrites:
    def test_write_never_dedups(self, scheme):
        r1 = scheme.handle_write(wreq(0, LINE))
        r2 = scheme.handle_write(wreq(64, LINE))  # identical content
        assert not r1.deduplicated and not r2.deduplicated
        assert scheme.controller.data_writes == 2
        assert scheme.write_reduction() == 0.0

    def test_write_latency_includes_encrypt_and_pcm(self, scheme):
        r = scheme.handle_write(wreq(0, LINE))
        expected = (scheme.crypto.encrypt_latency_ns
                    + scheme.config.pcm.write_latency_ns)
        assert r.latency_ns == pytest.approx(expected)

    def test_rewrites_go_in_place(self, scheme):
        scheme.handle_write(wreq(0, LINE))
        scheme.handle_write(wreq(0, b"\xAA" * 64, t=1000.0))
        # One frame allocated, written twice.
        assert scheme.allocator.allocated_count == 1
        assert scheme.controller.device.occupied_frames() == 1
        assert scheme.controller.device.write_ops == 2

    def test_stage_breakdown(self, scheme):
        scheme.handle_write(wreq(0, LINE))
        fractions = scheme.breakdown.as_fractions()
        assert WritePathStage.ENCRYPTION in fractions
        assert WritePathStage.WRITE_UNIQUE in fractions
        assert WritePathStage.FINGERPRINT_COMPUTE not in fractions


class TestReads:
    def test_read_returns_written_data(self, scheme):
        scheme.handle_write(wreq(0, LINE))
        result = scheme.handle_read(rreq(0, t=1000.0))
        assert result.data == LINE

    def test_ciphertext_stored_not_plaintext(self, scheme):
        scheme.handle_write(wreq(0, LINE))
        stored = scheme.controller.device.read_line(0)
        assert stored != LINE  # encrypted at rest

    def test_unwritten_read_returns_zeros(self, scheme):
        result = scheme.handle_read(rreq(640))
        assert result.data == bytes(64)
        assert result.latency_ns >= scheme.config.pcm.row_hit_read_latency_ns

    def test_unwritten_line_never_charges_a_decrypt(self, scheme):
        from repro.nvmm.energy import EnergyCategory
        first = scheme.handle_read(rreq(640))
        second = scheme.handle_read(rreq(640, t=1000.0))
        for result in (first, second):
            assert result.data == bytes(64)
            stages = result.timeline.exposures
            assert WritePathStage.READ_FILL in stages
            assert WritePathStage.DECRYPTION not in stages
        assert scheme.total_energy().get(EnergyCategory.DECRYPTION) == 0

    def test_read_after_overwrite(self, scheme):
        scheme.handle_write(wreq(0, LINE))
        new = b"\x55" * 64
        scheme.handle_write(wreq(0, new, t=500.0))
        assert scheme.handle_read(rreq(0, t=1000.0)).data == new


class TestAccounting:
    def test_no_metadata_footprint(self, scheme):
        scheme.handle_write(wreq(0, LINE))
        fp = scheme.metadata_footprint()
        assert fp.onchip_bytes == 0
        assert fp.nvmm_bytes == 0
        assert fp.total_bytes == 0

    def test_energy_includes_crypto_and_pcm(self, scheme):
        scheme.handle_write(wreq(0, LINE))
        scheme.handle_read(rreq(0, t=500.0))
        energy = scheme.total_energy()
        from repro.nvmm.energy import EnergyCategory
        assert energy.get(EnergyCategory.PCM_WRITE) > 0
        assert energy.get(EnergyCategory.ENCRYPTION) > 0
        assert energy.get(EnergyCategory.DECRYPTION) > 0

    def test_counters(self, scheme):
        scheme.handle_write(wreq(0, LINE))
        scheme.handle_read(rreq(0, t=100.0))
        assert scheme.writes_handled == 1
        assert scheme.counters.get("reads") == 1
        assert scheme.duplicates_eliminated == 0
