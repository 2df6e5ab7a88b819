"""Tests for the PCM device (contents and line counters)."""

import pytest

from repro.common.config import PCMConfig
from repro.common.errors import InvalidAddressError
from repro.common.units import mib
from repro.nvmm.device import PCMDevice


@pytest.fixture
def device():
    return PCMDevice(PCMConfig(capacity_bytes=mib(1), num_banks=4))


class TestReadWrite:
    def test_fresh_frames_read_zero(self, device):
        assert device.read_line(0) == bytes(64)

    def test_write_then_read(self, device):
        data = bytes(range(64))
        device.write_line(5, data)
        assert device.read_line(5) == data

    def test_overwrite(self, device):
        device.write_line(5, bytes(64))
        data = b"\xAA" * 64
        device.write_line(5, data)
        assert device.read_line(5) == data

    def test_address_bounds(self, device):
        last = device.num_lines - 1
        device.write_line(last, bytes(64))
        with pytest.raises(InvalidAddressError):
            device.read_line(device.num_lines)
        with pytest.raises(InvalidAddressError):
            device.write_line(-1, bytes(64))

    def test_payload_size_check(self, device):
        with pytest.raises(ValueError):
            device.write_line(0, b"small")

    def test_op_counters(self, device):
        device.write_line(0, bytes(64))
        device.read_line(0)
        device.read_line(1)
        assert device.write_ops == 1
        assert device.read_ops == 2

    def test_occupied_frames(self, device):
        assert device.occupied_frames() == 0
        device.write_line(3, bytes(64))
        device.write_line(9, bytes(64))
        assert device.occupied_frames() == 2
