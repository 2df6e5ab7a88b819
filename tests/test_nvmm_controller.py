"""Tests for the NVMM memory controller (timing, banking, energy)."""

import pytest

from repro.common.config import PCMConfig
from repro.common.units import mib
from repro.nvmm.controller import MemoryController
from repro.nvmm.energy import EnergyCategory


@pytest.fixture
def controller():
    return MemoryController(PCMConfig(capacity_bytes=mib(4), num_banks=4))


class TestDataPath:
    def test_write_then_read_content(self, controller):
        data = bytes(range(64))
        controller.write(10, data, 0.0)
        out, _ = controller.read(10, 200.0)
        assert out == data

    def test_write_timing(self, controller):
        r = controller.write(0, bytes(64), 0.0)
        assert r.completion_ns == 150.0
        assert r.latency_ns == 150.0

    def test_read_miss_timing(self, controller):
        _, r = controller.read(0, 0.0)
        assert r.latency_ns == 75.0

    def test_row_hit_read_is_fast(self, controller):
        controller.read(0, 0.0)           # opens bank 0's row 0
        _, r = controller.read(4, 100.0)  # bank 0 again, same 64-line row
        assert r.latency_ns == controller.config.row_hit_read_latency_ns

    def test_row_conflict_read_is_slow(self, controller):
        controller.read(0, 0.0)
        # Same bank (line % 4 == 0), different row.
        far = controller.config.row_size_lines * 4
        _, r = controller.read(far, 100.0)
        assert r.latency_ns == 75.0

    def test_bank_interleaving(self, controller):
        assert controller.bank_for_line(0).index == 0
        assert controller.bank_for_line(1).index == 1
        assert controller.bank_for_line(5).index == 1

    def test_same_bank_accesses_serialize(self, controller):
        controller.write(0, bytes(64), 0.0)
        r = controller.write(4, bytes(64), 0.0)  # same bank 0
        assert r.start_ns == 150.0

    def test_different_banks_parallel(self, controller):
        controller.write(0, bytes(64), 0.0)
        r = controller.write(1, bytes(64), 0.0)
        assert r.start_ns == 0.0


class TestEnergy:
    def test_write_energy(self, controller):
        controller.write(0, bytes(64), 0.0)
        assert controller.energy.get(EnergyCategory.PCM_WRITE) == 6.75

    def test_read_energy_row_miss_vs_hit(self, controller):
        controller.read(0, 0.0)
        miss_energy = controller.energy.get(EnergyCategory.PCM_READ)
        assert miss_energy == 1.49
        controller.read(4, 100.0)  # row hit (bank 0, same row)
        total = controller.energy.get(EnergyCategory.PCM_READ)
        assert total == pytest.approx(
            1.49 + controller.config.row_hit_read_energy_nj)


class TestMetadataPath:
    def test_metadata_read_charged(self, controller):
        r = controller.metadata_read(12345, 0.0)
        assert r.latency_ns == 75.0
        assert controller.metadata_reads == 1

    def test_metadata_row_hit(self, controller):
        controller.metadata_read(12345, 0.0)
        r = controller.metadata_read(12345, 100.0)
        assert r.latency_ns == controller.config.row_hit_read_latency_ns

    def test_metadata_write_charged(self, controller):
        controller.metadata_write(7, 0.0)
        assert controller.metadata_writes == 1
        assert controller.energy.get(EnergyCategory.PCM_WRITE) == 6.75

    def test_total_pcm_writes(self, controller):
        controller.write(0, bytes(64), 0.0)
        controller.metadata_write(1, 0.0)
        assert controller.total_pcm_writes == 2


class TestReporting:
    def test_counters(self, controller):
        controller.write(0, bytes(64), 0.0)
        controller.read(0, 200.0)
        controller.metadata_read(9, 0.0)
        assert controller.data_writes == 1
        assert controller.data_reads == 1
        assert controller.metadata_reads == 1

    def test_bank_utilization(self, controller):
        controller.write(0, bytes(64), 0.0)
        util = controller.bank_utilization(horizon_ns=300.0)
        assert util[0] == pytest.approx(0.5)
        assert all(u == 0.0 for u in util[1:])

    def test_bank_utilization_rejects_bad_horizon(self, controller):
        with pytest.raises(ValueError):
            controller.bank_utilization(0.0)

    def test_shared_config_enforced(self):
        cfg_a = PCMConfig(capacity_bytes=mib(4), num_banks=4)
        cfg_b = PCMConfig(capacity_bytes=mib(4), num_banks=4)
        from repro.nvmm.device import PCMDevice
        with pytest.raises(ValueError):
            MemoryController(cfg_a, PCMDevice(cfg_b))
