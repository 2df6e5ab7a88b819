"""Shared machinery for the full-deduplication schemes (Dedup_SHA1, DeWrite).

Full deduplication tries to eliminate *every* duplicate line: each unique
line's fingerprint is indexed in an NVMM-resident store
(:class:`~repro.dedup.fingerprint_store.FullFingerprintStore`), and each
logical address is remapped through a :class:`~repro.dedup.mapping.MappingTable`.
This base class owns that plumbing — reference counting, frame recycling,
fingerprint-entry invalidation, and the shared read path — so the concrete
schemes only implement their distinctive write pipelines.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..common.config import SystemConfig
from ..common.timeline import StageTimeline
from ..common.types import CACHE_LINE_SIZE, MemoryRequest, WritePathStage
from ..crypto.costs import CryptoCosts, DEFAULT_COSTS
from ..obs.runtime import RunObservation
from .base import DedupScheme, MetadataFootprint, ReadResult
from .fingerprint_store import FullFingerprintStore
from .mapping import FrameRefcounts, MappingTable

_READ_FILL = WritePathStage.READ_FILL
_DECRYPTION = WritePathStage.DECRYPTION


class FullDedupScheme(DedupScheme):
    """Base for schemes that index every unique line's fingerprint."""

    #: Bytes per fingerprint-store entry; subclasses override.
    fingerprint_entry_size: int = 32
    #: Bytes per mapping-table entry (8 B logical + 5 B packed physical +
    #: refcount/flags); shared by both full-dedup schemes.
    mapping_entry_size: int = 16

    def __init__(self, config: Optional[SystemConfig] = None,
                 costs: CryptoCosts = DEFAULT_COSTS) -> None:
        super().__init__(config, costs)
        mc = self.config.metadata_cache
        self.store = FullFingerprintStore(
            cache_bytes=mc.efit_bytes,
            entry_size=self.fingerprint_entry_size,
            controller=self.controller,
            probe_latency_ns=mc.probe_latency_ns)
        self.mapping = MappingTable(
            cache_bytes=mc.amt_bytes,
            entry_size=self.mapping_entry_size,
            controller=self.controller,
            probe_latency_ns=mc.probe_latency_ns)
        self.refcounts = FrameRefcounts(self.allocator)
        #: frame -> fingerprint, for invalidating index entries of freed frames.
        self._frame_fingerprint: Dict[int, int] = {}

    def bind_observation(self, obs: Optional[RunObservation]) -> None:
        super().bind_observation(obs)
        self.mapping._obs = obs

    # ------------------------------------------------------------------
    # Commit helpers shared by the concrete write pipelines
    # ------------------------------------------------------------------

    def _release_previous(self, logical_line: int) -> None:
        """Drop the logical line's old mapping reference, recycling frames."""
        old_frame = self.mapping.current_frame(logical_line)
        if old_frame is None:
            return
        remaining = self.refcounts.release(old_frame)
        if remaining == 0:
            fingerprint = self._frame_fingerprint.pop(old_frame, None)
            if fingerprint is not None:
                self.store.remove(fingerprint, old_frame)

    def _commit_duplicate(self, logical_line: int, frame: int,
                          timeline: StageTimeline) -> None:
        """Remap the logical line onto an existing frame (dedup hit).

        The new reference is acquired *before* the old mapping is released:
        when a line rewrites the content it already points at (old frame ==
        new frame, refcount 1), releasing first would free the frame — and
        drop its fingerprint — mid-commit.
        """
        values = self._counter_values
        values["dedup_hits"] = values.get("dedup_hits", 0) + 1
        self.refcounts.acquire(frame)
        self._release_previous(logical_line)
        t = self.mapping.update(logical_line, frame, timeline.now)
        timeline.advance_to(WritePathStage.METADATA, t)

    def _commit_unique(self, logical_line: int, fingerprint: int,
                       plaintext: bytes, timeline: StageTimeline,
                       *, pre_encrypted: bool = False) -> int:
        """Write a unique line: allocate, encrypt+write, index, remap.

        Args:
            pre_encrypted: when the caller already declared the encryption
                on the timeline (DeWrite/PDE overlap it with fingerprinting),
                only the PCM write is issued here; otherwise encryption and
                write are declared serially.

        Returns:
            The allocated frame.
        """
        self._release_previous(logical_line)
        frame = self.allocator.allocate()
        if not pre_encrypted:
            self._encrypt_and_write(frame, plaintext, timeline)
        else:
            # Caller accounted encryption; issue the PCM write now.
            enc = self.crypto.encrypt(plaintext, frame)
            self._integrity_update(frame)
            result = self.controller.write(frame, enc.ciphertext,
                                           timeline.now)
            timeline.advance_to(WritePathStage.WRITE_UNIQUE,
                                result.completion_ns)
        self.refcounts.acquire(frame)
        self._frame_fingerprint[frame] = fingerprint
        # Index insertion's NVMM write proceeds off the critical path (it
        # occupies a bank and consumes energy, but the write's completion
        # does not wait for it).
        self.store.insert(fingerprint, frame, timeline.now)
        t2 = self.mapping.update(logical_line, frame, timeline.now)
        timeline.advance_to(WritePathStage.METADATA, t2)
        return frame

    # ------------------------------------------------------------------
    # Shared read path
    # ------------------------------------------------------------------

    def handle_read(self, request: MemoryRequest) -> ReadResult:
        values = self._counter_values
        values["reads"] = values.get("reads", 0) + 1
        timeline = self._timeline(request)
        frame, t, _hit = self.mapping.lookup(request.line_index,
                                             timeline.now)
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
        return MetadataFootprint(
            onchip_bytes=self.store.onchip_bytes() + self.mapping.onchip_bytes(),
            nvmm_bytes=self.store.nvmm_bytes() + self.mapping.nvmm_bytes())
