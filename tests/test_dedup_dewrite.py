"""Tests for the DeWrite scheme (CRC + prediction + parallel encryption)."""

import pytest

from repro.common.types import AccessType, MemoryRequest, WritePathStage
from repro.dedup.dewrite import DeWriteScheme

from .test_scheme_state_machine import crc_collision


def wreq(addr, data, t=0.0):
    return MemoryRequest(address=addr, access=AccessType.WRITE, data=data,
                         issue_time_ns=t)


def rreq(addr, t=0.0):
    return MemoryRequest(address=addr, access=AccessType.READ, issue_time_ns=t)


LINE = bytes(range(64))
OTHER = b"\x99" * 64


@pytest.fixture
def scheme(config):
    return DeWriteScheme(config)


class TestDeduplication:
    def test_duplicates_eliminated_with_verification(self, scheme):
        scheme.handle_write(wreq(0, LINE))
        r = scheme.handle_write(wreq(64, LINE, t=500.0))
        assert r.deduplicated
        # CRC match alone is not trusted: a comparison read happened.
        assert WritePathStage.READ_FOR_COMPARISON in r.stages

    def test_read_back_correct(self, scheme):
        scheme.handle_write(wreq(0, LINE))
        scheme.handle_write(wreq(64, LINE, t=500.0))
        scheme.handle_write(wreq(128, OTHER, t=1000.0))
        assert scheme.handle_read(rreq(64, t=2000.0)).data == LINE
        assert scheme.handle_read(rreq(128, t=2500.0)).data == OTHER

    def test_self_rewrite_same_content_safe(self, scheme):
        scheme.handle_write(wreq(0, LINE))
        r = scheme.handle_write(wreq(0, LINE, t=500.0))
        assert r.deduplicated
        assert scheme.handle_read(rreq(0, t=1000.0)).data == LINE


class TestCrcCollisions:
    def test_freeing_a_twin_keeps_the_other_twins_entry(self, scheme):
        twin = crc_collision(LINE)
        scheme.handle_write(wreq(64, LINE))
        r = scheme.handle_write(wreq(128, twin, t=500.0))
        assert not r.deduplicated
        assert scheme.counters.get("crc_collisions") == 1
        # Overwriting line 1 frees LINE's frame; the CRC entry now points
        # at the twin's frame and must survive.
        scheme.handle_write(wreq(64, OTHER, t=1000.0))
        r = scheme.handle_write(wreq(192, twin, t=1500.0))
        assert r.deduplicated
        assert scheme.handle_read(rreq(192, t=2000.0)).data == twin
        assert scheme.handle_read(rreq(128, t=2500.0)).data == twin


class TestPredictionPaths:
    def test_cold_write_takes_predicted_dup_path(self, scheme):
        # Predictor initializes duplicate-biased; a cold unique write is an
        # F2 misprediction: serial CRC appears in the stage breakdown.
        r = scheme.handle_write(wreq(0, LINE))
        assert not r.deduplicated
        assert r.stages.get(WritePathStage.FINGERPRINT_COMPUTE) == \
            pytest.approx(scheme.engine.latency_ns)

    def test_trained_unique_path_hides_crc(self, scheme):
        # Train address 0 toward unique, then write: the CRC (40 ns) hides
        # under the encryption (40 ns), so no exposed compute stage.
        for i in range(4):
            scheme.handle_write(wreq(0, bytes([i]) * 64, t=i * 500.0))
        r = scheme.handle_write(wreq(0, b"\x42" * 64, t=5000.0))
        exposed = r.stages.get(WritePathStage.FINGERPRINT_COMPUTE, 0.0)
        assert exposed <= max(0.0, scheme.engine.latency_ns
                              - scheme.crypto.encrypt_latency_ns) + 1e-9

    def test_f4_wasted_encryption_counted(self, scheme):
        # Train toward unique, then write a duplicate -> F4.
        for i in range(4):
            scheme.handle_write(wreq(0, bytes([i]) * 64, t=i * 500.0))
        scheme.handle_write(wreq(64, LINE, t=5000.0))
        r = scheme.handle_write(wreq(0, LINE, t=6000.0))
        assert r.deduplicated
        assert scheme.counters.get("wasted_encryptions") >= 1

    def test_predictor_trained_by_outcomes(self, scheme):
        for i in range(4):
            scheme.handle_write(wreq(0, bytes([i + 1]) * 64, t=i * 500.0))
        assert scheme.predictor.stats.total >= 4


class TestCosts:
    def test_crc_cheaper_than_sha1_on_path(self, scheme):
        r = scheme.handle_write(wreq(0, LINE))
        # Even the serial path must be far below SHA-1's 321 ns compute.
        assert r.stages.get(WritePathStage.FINGERPRINT_COMPUTE, 0.0) < 100.0

    def test_metadata_entry_is_17_bytes(self, scheme):
        # The paper: (16 bytes + 3 bits) per physical line.
        assert scheme.fingerprint_entry_size == 17

    def test_energy_includes_wasted_work(self, scheme):
        from repro.nvmm.energy import EnergyCategory
        for i in range(4):
            scheme.handle_write(wreq(0, bytes([i]) * 64, t=i * 500.0))
        scheme.handle_write(wreq(64, LINE, t=5000.0))
        scheme.handle_write(wreq(0, LINE, t=6000.0))  # F4
        assert scheme.crypto_energy.get(EnergyCategory.ENCRYPTION) > 0
