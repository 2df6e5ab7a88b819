"""PCM device model: the content store.

The device is the functional half of the NVMM substrate: it remembers the
bytes stored in every physical cache-line frame and counts line reads and
writes.  Timing and queueing live in :mod:`repro.nvmm.controller`; energy
in :mod:`repro.nvmm.energy`.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..common.config import PCMConfig
from ..common.errors import InvalidAddressError
from ..common.types import CACHE_LINE_SIZE, validate_line

#: Shared zero line returned for never-written frames (bytes are immutable,
#: so one instance serves every fresh-cell read).
_ZERO = bytes(CACHE_LINE_SIZE)


class PCMDevice:
    """Functional PCM array addressed by physical cache-line number.

    Frames never written read back as zero lines (fresh PCM cells), matching
    the zero-initialized view a warmed simulator presents.
    """

    def __init__(self, config: Optional[PCMConfig] = None) -> None:
        self.config = config or PCMConfig()
        self._store: Dict[int, bytes] = {}
        #: Total line reads served (functional, not timing).
        self.read_ops = 0
        #: Total line writes absorbed.
        self.write_ops = 0

    @property
    def num_lines(self) -> int:
        return self.config.num_lines

    def read_line(self, line_number: int) -> bytes:
        """Read the 64-byte content of a physical frame."""
        # Bounds check inlined (hot path: one call per PCM data read).
        if not 0 <= line_number < self.config.num_lines:
            raise InvalidAddressError(
                f"line {line_number} outside device of "
                f"{self.config.num_lines} lines")
        self.read_ops += 1
        return self._store.get(line_number, _ZERO)

    def write_line(self, line_number: int, data: bytes) -> None:
        """Write a 64-byte line into a physical frame."""
        # Checks inlined; ``bytes`` payloads are stored as-is (immutable, and
        # ``bytes(data)`` is an identity for them anyway).
        config = self.config
        if not 0 <= line_number < config.num_lines:
            raise InvalidAddressError(
                f"line {line_number} outside device of "
                f"{config.num_lines} lines")
        if data.__class__ is not bytes:
            data = validate_line(data)
        elif len(data) != CACHE_LINE_SIZE:
            raise ValueError(
                f"cache line must be {CACHE_LINE_SIZE} bytes, got {len(data)}")
        self._store[line_number] = data
        self.write_ops += 1

    def occupied_frames(self) -> int:
        """Number of frames holding written data."""
        return len(self._store)
