"""Baseline scheme: counter-mode encryption, no deduplication.

Every dirty write-back is encrypted and written to its own physical frame
(logical addresses map 1:1 onto frames, allocated on first touch).  Reads
fetch and decrypt.  This is the normalization reference for every figure in
the paper's evaluation.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..common.config import SystemConfig
from ..common.types import (
    CACHE_LINE_SIZE,
    MemoryRequest,
    WritePathStage,
    check_write_payload,
)
from ..crypto.costs import CryptoCosts, DEFAULT_COSTS
from .base import DedupScheme, MetadataFootprint, ReadResult, WriteResult

_READ_FILL = WritePathStage.READ_FILL
_DECRYPTION = WritePathStage.DECRYPTION


class BaselineScheme(DedupScheme):
    """No deduplication: encrypt + write in place."""

    name = "Baseline"

    def __init__(self, config: Optional[SystemConfig] = None,
                 costs: CryptoCosts = DEFAULT_COSTS) -> None:
        super().__init__(config, costs)
        self._frames: Dict[int, int] = {}

    def _frame_for(self, logical_line: int) -> int:
        frame = self._frames.get(logical_line)
        if frame is None:
            frame = self.allocator.allocate()
            self._frames[logical_line] = frame
        return frame

    def handle_write(self, request: MemoryRequest) -> WriteResult:
        payload = request.data
        if payload.__class__ is not bytes or len(payload) != CACHE_LINE_SIZE:
            check_write_payload(payload)
        values = self._counter_values
        values["writes"] = values.get("writes", 0) + 1
        timeline = self._timeline(request)
        frame = self._frame_for(request.line_index)
        self._encrypt_and_write(frame, request.data, timeline)
        return self._finalize_write(request, timeline,
                                    deduplicated=False, wrote_line=True)

    def handle_read(self, request: MemoryRequest) -> ReadResult:
        values = self._counter_values
        values["reads"] = values.get("reads", 0) + 1
        timeline = self._timeline(request)
        frame = self._frames.get(request.line_index)
        if frame is None or not self.crypto.counters.current(frame):
            # Unwritten memory: the access still round-trips to PCM, but the
            # frame holds no ciphertext, so nothing is decrypted and it
            # reads as zeros.  The first read maps the logical line onto a
            # frame so repeated reads hit the same bank; a frame mapped so
            # keeps counter 0 until its first write.
            if frame is None:
                frame = self._frame_for(request.line_index)
            _, access = self.controller.read(frame, timeline.now)
            timeline.advance_to(_READ_FILL, access.completion_ns)
            return self._finalize_read(request, timeline,
                                       bytes(CACHE_LINE_SIZE))
        plaintext = self._read_and_decrypt(frame, timeline, _READ_FILL,
                                           _DECRYPTION)
        return self._finalize_read(request, timeline, plaintext)

    def metadata_footprint(self) -> MetadataFootprint:
        """Baseline keeps no dedup metadata."""
        return MetadataFootprint(onchip_bytes=0, nvmm_bytes=0)
