"""Dedup_SHA1: traditional inline full deduplication with SHA-1 fingerprints.

The write pipeline is fully serial, which is why the paper's Figure 17
attributes ~80 % of this scheme's write latency to fingerprint computation:

1. compute the 160-bit SHA-1 digest of the incoming line (321 ns exposed),
2. look the digest up (fingerprint cache, then the NVMM-resident index),
3. duplicate -> remap the logical address (no data write, no encryption);
   unique -> encrypt, write, index, remap.

SHA-1 is treated as collision-free (the paper notes hash-trusting schemes
risk data loss on collision; at 2^-80 birthday bounds the simulator will
never see one), so duplicates are *not* verified by a comparison read.
"""

from __future__ import annotations

from typing import List, Optional

from ..common.config import SystemConfig
from ..common.types import (
    CACHE_LINE_SIZE,
    MemoryRequest,
    WritePathStage,
    check_write_payload,
)
from ..crypto.costs import CryptoCosts, DEFAULT_COSTS
from ..crypto.fingerprints import SHA1Engine
from ..perf.memo import MemoCache
from .base import WriteResult
from .full_dedup import FullDedupScheme


class DedupSHA1Scheme(FullDedupScheme):
    """Traditional SHA-1 full deduplication (the paper's Dedup_SHA1)."""

    name = "Dedup_SHA1"

    #: 20 B digest + 5 B packed frame address + 1 B refcount, padded to the
    #: store's slot granularity.
    fingerprint_entry_size = 26

    def __init__(self, config: Optional[SystemConfig] = None,
                 costs: CryptoCosts = DEFAULT_COSTS) -> None:
        super().__init__(config, costs)
        self.engine = SHA1Engine(costs)

    def memo_caches(self) -> List[MemoCache]:
        return super().memo_caches() + [self.engine.cache]

    def handle_write(self, request: MemoryRequest) -> WriteResult:
        payload = request.data
        if payload.__class__ is not bytes or len(payload) != CACHE_LINE_SIZE:
            check_write_payload(payload)
        values = self._counter_values
        values["writes"] = values.get("writes", 0) + 1
        timeline = self._timeline(request)

        # 1. Serial fingerprint computation on the critical path.
        fingerprint = self.engine.fingerprint(request.data)
        self._charge_fingerprint(self.engine.energy_nj)
        timeline.serial(WritePathStage.FINGERPRINT_COMPUTE,
                        self.engine.latency_ns)

        # 2. Index lookup: cache first, NVMM on miss.
        lookup = self.store.lookup(fingerprint, timeline.now)
        timeline.advance_to(WritePathStage.FINGERPRINT_NVMM_LOOKUP,
                            lookup.completion_ns)

        if lookup.found:
            # 3a. Duplicate: remap, eliminating the write entirely.
            assert lookup.frame is not None
            self._commit_duplicate(request.line_index, lookup.frame, timeline)
            return self._finalize_write(request, timeline,
                                        deduplicated=True, wrote_line=False)

        # 3b. Unique: encrypt + write + index + remap, all serial.
        self._commit_unique(request.line_index, fingerprint, request.data,
                            timeline)
        return self._finalize_write(request, timeline,
                                    deduplicated=False, wrote_line=True)
