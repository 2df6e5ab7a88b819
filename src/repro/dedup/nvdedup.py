"""NV-Dedup: two-tier (weak + strong) fingerprinting (related work [53]).

Wang et al.'s NV-Dedup (IEEE TC'18) attacks the same hash-latency problem
as DeWrite and ESD, with a different lever: compute a cheap *weak*
fingerprint (CRC) for every line, and only compute the expensive *strong*
fingerprint (MD5) when the weak one matches something — so unique lines
(the common case in low-duplication phases) never pay the full hash.

This simplified reproduction keeps the essential structure:

1. CRC-32 on every write (40 ns),
2. weak-index lookup (fingerprint cache + NVMM home, like the other
   full-dedup schemes),
3. on a weak hit: MD5 over the incoming line (312 ns), compared against
   the stored strong fingerprint of the candidate frame — a match
   deduplicates *without* a data read (MD5 is trusted, as in the original),
4. weak collisions with strong mismatch are written as unique (and not
   indexed — their weak slot is taken).

Against ESD it demonstrates the paper's point from the other direction:
even a scheme that skips hashing for unique lines still pays hash latency
for every *duplicate* line, plus the full-dedup NVMM lookup costs.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..common.config import SystemConfig
from ..common.types import (
    CACHE_LINE_SIZE,
    MemoryRequest,
    WritePathStage,
    check_write_payload,
)
from ..crypto.costs import CryptoCosts, DEFAULT_COSTS
from ..crypto.fingerprints import CRC32Engine, MD5Engine
from ..perf.memo import MemoCache
from .base import WriteResult
from .full_dedup import FullDedupScheme


class NVDedupScheme(FullDedupScheme):
    """Simplified NV-Dedup: CRC weak filter + MD5 strong confirmation."""

    name = "NV-Dedup"

    #: Weak-index entry: 4 B CRC + 5 B frame + 1 B refcount.
    fingerprint_entry_size = 10
    #: Strong fingerprints stored per frame: 16 B MD5.
    strong_entry_size = 16

    def __init__(self, config: Optional[SystemConfig] = None,
                 costs: CryptoCosts = DEFAULT_COSTS) -> None:
        super().__init__(config, costs)
        self.weak_engine = CRC32Engine(costs)
        self.strong_engine = MD5Engine(costs)
        #: frame -> strong fingerprint of its content.
        self._strong: Dict[int, int] = {}

    def memo_caches(self) -> List[MemoCache]:
        return super().memo_caches() + [self.weak_engine.cache,
                                        self.strong_engine.cache]

    def _release_previous(self, logical_line: int) -> None:
        # Also drop the freed frame's strong fingerprint.
        old_frame = self.mapping.current_frame(logical_line)
        super()._release_previous(logical_line)
        if old_frame is not None and not self.allocator.is_allocated(old_frame):
            self._strong.pop(old_frame, None)

    def handle_write(self, request: MemoryRequest) -> WriteResult:
        payload = request.data
        if payload.__class__ is not bytes or len(payload) != CACHE_LINE_SIZE:
            check_write_payload(payload)
        values = self._counter_values
        values["writes"] = values.get("writes", 0) + 1
        timeline = self._timeline(request)

        # 1. Weak fingerprint on every line (cheap).
        weak = self.weak_engine.fingerprint(request.data)
        self._charge_fingerprint(self.weak_engine.energy_nj)
        timeline.serial(WritePathStage.FINGERPRINT_COMPUTE,
                        self.weak_engine.latency_ns)

        # 2. Weak-index lookup.
        lookup = self.store.lookup(weak, timeline.now)
        timeline.advance_to(WritePathStage.FINGERPRINT_NVMM_LOOKUP,
                            lookup.completion_ns)

        if lookup.found:
            # 3. Weak hit: pay the strong hash, serial.
            assert lookup.frame is not None
            strong = self.strong_engine.fingerprint(request.data)
            self._charge_fingerprint(self.strong_engine.energy_nj)
            timeline.serial(WritePathStage.FINGERPRINT_COMPUTE,
                            self.strong_engine.latency_ns)
            self.counters.incr("strong_hashes")

            if self._strong.get(lookup.frame) == strong:
                self._commit_duplicate(request.line_index, lookup.frame,
                                       timeline)
                return self._finalize_write(request, timeline,
                                            deduplicated=True,
                                            wrote_line=False)
            # Weak collision (same CRC, different content): unique, but the
            # weak slot is occupied -> write without indexing.
            self.counters.incr("weak_collisions")
            self._release_previous(request.line_index)
            frame = self.allocator.allocate()
            self._encrypt_and_write(frame, request.data, timeline)
            self.refcounts.acquire(frame)
            self._strong[frame] = strong
            t2 = self.mapping.update(request.line_index, frame, timeline.now)
            timeline.advance_to(WritePathStage.METADATA, t2)
            return self._finalize_write(request, timeline,
                                        deduplicated=False, wrote_line=True)

        # 3b. Weak miss: definitively unique without any strong hash — the
        # scheme's selling point.
        frame = self._commit_unique(request.line_index, weak, request.data,
                                    timeline)
        self._strong[frame] = self.strong_engine.fingerprint(request.data)
        # The strong fingerprint of a unique line is computed lazily /
        # off the critical path in NV-Dedup (it is only needed when a
        # later weak hit compares against this frame): charge its energy,
        # hide its latency.
        self._charge_fingerprint(self.strong_engine.energy_nj)
        return self._finalize_write(request, timeline,
                                    deduplicated=False, wrote_line=True)

    def metadata_footprint(self):
        from .base import MetadataFootprint
        base = super().metadata_footprint()
        strong_bytes = len(self._strong) * self.strong_entry_size
        return MetadataFootprint(onchip_bytes=base.onchip_bytes,
                                 nvmm_bytes=base.nvmm_bytes + strong_bytes)
