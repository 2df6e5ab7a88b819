"""ESD: ECC-assisted and Selective Deduplication (the paper's contribution).

The write pipeline (Figure 9):

1. **Obtain the ECC** travelling with the evicted line — zero marginal
   latency and energy (the controller computes it for error protection
   regardless).
2. **Probe the EFIT** (on-chip only).  A miss definitively ends the dedup
   attempt: the line is treated as non-duplicate and written — no hash was
   computed, no NVMM lookup was made.  The new line's ECC is inserted into
   the EFIT under the LRCU policy.
3. **On a hit, confirm by content**: ECC equality only implies similarity,
   so ESD reads the candidate frame from NVMM, decrypts, and byte-compares
   (exploiting PCM's cheap reads relative to writes).  Equal content with
   ``referH`` headroom eliminates the write (remap in the AMT, bump
   ``referH``); unequal content (an ECC collision) or a saturated
   ``referH`` falls back to the unique-write path.

Every dropped write is a PCM write (150 ns, 6.75 nJ) traded for at most a
PCM read (75 ns, 1.49 nJ) plus an on-chip compare — the asymmetric
read/write economics the design leans on.

The on-chip EFIT probe is charged to the METADATA stage: it is metadata
machinery, not a fingerprint computation or an NVMM fingerprint lookup —
ESD's breakdown deliberately never contains a FINGERPRINT_* stage.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..common.config import SystemConfig
from ..common.timeline import StageTimeline
from ..common.types import (
    CACHE_LINE_SIZE,
    MemoryRequest,
    WritePathStage,
    check_write_payload,
    validate_line,
)
from ..crypto.costs import CryptoCosts, DEFAULT_COSTS
from ..dedup.base import DedupScheme, MetadataFootprint, ReadResult, WriteResult
from ..dedup.mapping import FrameRefcounts
from ..ecc.codec import line_ecc
from ..obs.runtime import RunObservation
from ..perf.memo import MemoCache
from .amt import AddressMappingTable
from .efit import EFIT

_READ_FILL = WritePathStage.READ_FILL
_DECRYPTION = WritePathStage.DECRYPTION


class ESDScheme(DedupScheme):
    """ECC-assisted selective deduplication for encrypted NVMM."""

    name = "ESD"

    def __init__(self, config: Optional[SystemConfig] = None,
                 costs: CryptoCosts = DEFAULT_COSTS) -> None:
        super().__init__(config, costs)
        self.efit = EFIT(self.config.metadata_cache, self.config.esd)
        self.amt = AddressMappingTable(self.config.metadata_cache,
                                       self.controller)
        self.refcounts = FrameRefcounts(self.allocator)
        #: frame -> ECC, to invalidate EFIT entries of recycled frames.
        self._frame_ecc: Dict[int, int] = {}
        #: Line-ECC memo, keyed on line content (see :meth:`_line_ecc`).
        self.line_ecc_cache = MemoCache("line_ecc", 1 << 16)

    def memo_caches(self) -> List[MemoCache]:
        return super().memo_caches() + [self.line_ecc_cache]

    def bind_observation(self, obs: Optional[RunObservation]) -> None:
        super().bind_observation(obs)
        self.efit.bind_observation(obs)
        self.amt._obs = obs

    # ------------------------------------------------------------------
    # Write-path helpers
    # ------------------------------------------------------------------

    def _line_ecc(self, data: bytes) -> int:
        """:func:`~repro.ecc.codec.line_ecc` through this scheme's memo,
        with ``MemoCache.get``/``put`` inlined as in the fingerprint
        engines; a ``bytearray`` line is looked up as ``bytes``."""
        cache = self.line_ecc_cache
        entries = cache._data
        try:
            ecc = entries.get(data)
        except TypeError:
            return self._line_ecc(validate_line(data))
        if ecc is None:
            cache.misses += 1
            ecc = line_ecc(data)
            if len(entries) >= cache.capacity:
                entries.popitem(last=False)
                cache.evictions += 1
            entries[data] = ecc
        else:
            cache.hits += 1
            entries.move_to_end(data)
        return ecc

    def _release_previous(self, logical_line: int) -> None:
        old_frame = self.amt.current_frame(logical_line)
        if old_frame is None:
            return
        remaining = self.refcounts.release(old_frame)
        if remaining == 0:
            ecc = self._frame_ecc.pop(old_frame, None)
            if ecc is not None:
                self.efit.remove(ecc)

    def _write_unique(self, request: MemoryRequest, ecc: int,
                      timeline: StageTimeline,
                      *, index_in_efit: bool) -> WriteResult:
        """Encrypt + write a non-duplicate line, then update metadata."""
        self._release_previous(request.line_index)
        frame = self.allocator.allocate()
        self._encrypt_and_write(frame, request.data, timeline)
        self.refcounts.acquire(frame)
        if index_in_efit:
            evicted_frame = self.efit.insert(ecc, frame)
            if evicted_frame is not None:
                self._frame_ecc.pop(evicted_frame, None)
            self._frame_ecc[frame] = ecc
        t = self.amt.update(request.line_index, frame, timeline.now)
        timeline.advance_to(WritePathStage.METADATA, t)
        return self._finalize_write(request, timeline,
                                    deduplicated=False, wrote_line=True)

    # ------------------------------------------------------------------
    # Request handlers
    # ------------------------------------------------------------------

    def handle_write(self, request: MemoryRequest) -> WriteResult:
        payload = request.data
        if payload.__class__ is not bytes or len(payload) != CACHE_LINE_SIZE:
            check_write_payload(payload)
        values = self._counter_values
        values["writes"] = values.get("writes", 0) + 1
        timeline = self._timeline(request)

        # 1. ECC fingerprint: already computed by the controller — free.
        ecc = self._line_ecc(request.data)

        # 2. On-chip EFIT probe; the only fingerprint lookup ESD ever does.
        entry, probe_ns = self.efit.lookup(ecc)
        timeline.serial(WritePathStage.METADATA, probe_ns)

        if entry is None:
            # Miss: definitively treated as non-duplicate; index it.
            return self._write_unique(request, ecc, timeline,
                                      index_in_efit=True)

        # 3. Similar line found: confirm with a byte-by-byte comparison.
        stored = self._read_and_decrypt(entry.frame, timeline)
        timeline.serial(WritePathStage.READ_FOR_COMPARISON,
                        self._charge_compare())

        if stored != request.data:
            # ECC collision: same fingerprint, different content.  The
            # entry keeps its frame; the incoming line is written fresh
            # (and is not indexed — its ECC slot is taken).
            self.counters.incr("ecc_collisions")
            obs = self._obs
            if obs is not None:
                obs.emit(timeline.now, obs.request_id, "esd",
                         "ecc_collision", {"frame": entry.frame})
            return self._write_unique(request, ecc, timeline,
                                      index_in_efit=False)

        if self.efit.refer_h_saturated(ecc):
            # referH is a 1-byte field; once it saturates ESD treats the
            # line as new and re-points the EFIT entry at the fresh frame
            # (Section III-D).
            self.counters.incr("referh_overflows")
            obs = self._obs
            if obs is not None:
                obs.emit(timeline.now, obs.request_id, "esd",
                         "referh_overflow", {"frame": entry.frame})
            self._frame_ecc.pop(entry.frame, None)
            result = self._write_unique(request, ecc, timeline,
                                        index_in_efit=False)
            new_frame = self.amt.current_frame(request.line_index)
            assert new_frame is not None
            self.efit.replace_frame(ecc, new_frame)
            self._frame_ecc[new_frame] = ecc
            return result

        # 4. Confirmed duplicate: eliminate the write.  Acquire before
        # releasing the old mapping — when the line rewrites the content it
        # already references, releasing first would free the frame (and its
        # EFIT entry) mid-commit.
        values["dedup_hits"] = values.get("dedup_hits", 0) + 1
        obs = self._obs
        if obs is not None:
            obs.record(timeline.now, "esd", "dedup_hit", frame=entry.frame)
        self.refcounts.acquire(entry.frame)
        self._release_previous(request.line_index)
        self.efit.record_duplicate(ecc)
        t2 = self.amt.update(request.line_index, entry.frame, timeline.now)
        timeline.advance_to(WritePathStage.METADATA, t2)
        return self._finalize_write(request, timeline,
                                    deduplicated=True, wrote_line=False)

    def handle_read(self, request: MemoryRequest) -> ReadResult:
        values = self._counter_values
        values["reads"] = values.get("reads", 0) + 1
        timeline = self._timeline(request)
        frame, t, _hit = self.amt.lookup(request.line_index, timeline.now)
        timeline.advance_to(WritePathStage.METADATA, t)
        if frame is None:
            return self._finalize_read(request, timeline,
                                       bytes(CACHE_LINE_SIZE))
        plaintext = self._read_and_decrypt(frame, timeline, _READ_FILL,
                                           _DECRYPTION)
        return self._finalize_read(request, timeline, plaintext)

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------

    def metadata_footprint(self) -> MetadataFootprint:
        """EFIT is on-chip only; the AMT home is ESD's sole NVMM metadata."""
        return MetadataFootprint(
            onchip_bytes=self.efit.onchip_bytes() + self.amt.onchip_bytes(),
            nvmm_bytes=self.amt.nvmm_bytes())

    @property
    def efit_hit_rate(self) -> float:
        return self.efit.hit_rate

    @property
    def amt_hit_rate(self) -> float:
        return self.amt.hit_rate
