"""Tests for the in-order core timing / IPC model.

The session's request loop charges each access's stall itself and adds
the run's totals to the model at finalize; ``charge`` does the same
arithmetic here.
"""

import pytest

from repro.cache.cpu import CoreTimingModel
from repro.common.config import ProcessorConfig


def charge(core, instructions=0, *, read_ns=(), write_ns=()):
    """Add ``instructions`` and the stalls of the given accesses to
    ``core`` the way ``Session`` does: a read stalls for its whole
    latency, a write for ``write_stall_fraction`` of it."""
    cycle_ns = core.config.cycle_ns
    stall = 0.0
    for latency in read_ns:
        stall += latency / cycle_ns
    for latency in write_ns:
        stall += (latency / cycle_ns) * core.write_stall_fraction
    core.stall_cycles += stall
    core.instructions += instructions


class TestCoreTimingModel:
    def test_pure_compute_ipc_is_one(self):
        core = CoreTimingModel()
        charge(core, 1000)
        assert core.ipc == pytest.approx(1.0)

    def test_memory_stalls_lower_ipc(self):
        core = CoreTimingModel()
        charge(core, 1000, read_ns=[500.0])  # 1000 cycles at 2 GHz
        assert core.ipc == pytest.approx(1000 / 2000)

    def test_write_stall_fraction_applies(self):
        core = CoreTimingModel(write_stall_fraction=0.5)
        charge(core, 100, write_ns=[100.0])  # 200 cycles * 0.5 = 100
        assert core.total_cycles == pytest.approx(200)

    def test_reads_stall_fully(self):
        core = CoreTimingModel(write_stall_fraction=0.0)
        charge(core, 100, read_ns=[100.0])
        assert core.stall_cycles == pytest.approx(200)

    def test_clock_scaling(self):
        fast = CoreTimingModel(config=ProcessorConfig(clock_ghz=4.0))
        charge(fast, read_ns=[100.0])
        assert fast.stall_cycles == pytest.approx(400)

    def test_empty_ipc_zero(self):
        assert CoreTimingModel().ipc == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            CoreTimingModel(write_stall_fraction=1.5)
        with pytest.raises(ValueError):
            CoreTimingModel(write_stall_fraction=-0.1)


class TestRelativeIPC:
    """Figure 14's metric is IPC over the Baseline's IPC."""

    def test_faster_memory_higher_ipc(self):
        base = CoreTimingModel()
        charge(base, 1000, read_ns=[1000.0])
        fast = CoreTimingModel()
        charge(fast, 1000, read_ns=[100.0])
        assert fast.ipc / base.ipc > 1.0
