"""PCM device model: content store plus endurance (wear) accounting.

The device is the functional half of the NVMM substrate: it remembers the
bytes stored in every physical cache-line frame and counts writes per frame
so endurance effects (the paper's Section IV-B write-reduction results are
endurance results) can be reported.  Timing and queueing live in
:mod:`repro.nvmm.controller`; energy in :mod:`repro.nvmm.energy`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from ..common.config import PCMConfig
from ..common.errors import EnduranceExceededError, InvalidAddressError
from ..common.types import CACHE_LINE_SIZE, validate_line

#: Shared zero line returned for never-written frames (bytes are immutable,
#: so one instance serves every fresh-cell read).
_ZERO = bytes(CACHE_LINE_SIZE)


@dataclass
class WearStats:
    """Aggregate endurance statistics for a device."""

    total_writes: int
    frames_touched: int
    max_writes_per_frame: int
    mean_writes_per_touched_frame: float

    @property
    def wear_imbalance(self) -> float:
        """Max-to-mean write ratio over touched frames (1.0 = perfectly even)."""
        if self.mean_writes_per_touched_frame == 0:
            return 0.0
        return self.max_writes_per_frame / self.mean_writes_per_touched_frame


class PCMDevice:
    """Functional PCM array addressed by physical cache-line number.

    Frames never written read back as zero lines (fresh PCM cells), matching
    the zero-initialized view a warmed simulator presents.
    """

    def __init__(self, config: Optional[PCMConfig] = None) -> None:
        self.config = config or PCMConfig()
        self._store: Dict[int, bytes] = {}
        self._write_counts: Dict[int, int] = {}
        #: Total line reads served (functional, not timing).
        self.read_ops = 0
        #: Total line writes absorbed.
        self.write_ops = 0

    @property
    def num_lines(self) -> int:
        return self.config.num_lines

    def _check_line_number(self, line_number: int) -> None:
        if not 0 <= line_number < self.num_lines:
            raise InvalidAddressError(
                f"line {line_number} outside device of {self.num_lines} lines")

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
        """Write a 64-byte line into a physical frame, recording wear."""
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
        counts = self._write_counts
        count = counts.get(line_number, 0) + 1
        if config.fail_on_endurance and count > config.endurance_writes:
            raise EnduranceExceededError(
                f"frame {line_number} exceeded endurance "
                f"({config.endurance_writes} writes)")
        counts[line_number] = count
        self._store[line_number] = data
        self.write_ops += 1

    def write_count(self, line_number: int) -> int:
        """Writes absorbed by one frame so far."""
        self._check_line_number(line_number)
        return self._write_counts.get(line_number, 0)

    def wear_stats(self) -> WearStats:
        """Summarize endurance state across all touched frames."""
        if not self._write_counts:
            return WearStats(total_writes=0, frames_touched=0,
                             max_writes_per_frame=0,
                             mean_writes_per_touched_frame=0.0)
        counts = self._write_counts.values()
        total = sum(counts)
        return WearStats(
            total_writes=total,
            frames_touched=len(self._write_counts),
            max_writes_per_frame=max(counts),
            mean_writes_per_touched_frame=total / len(self._write_counts),
        )

    def occupied_frames(self) -> int:
        """Number of frames holding written data."""
        return len(self._store)
