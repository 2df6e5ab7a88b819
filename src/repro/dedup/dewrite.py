"""DeWrite: prediction-driven full deduplication with CRC fingerprints.

Reproduction of the state-of-the-art comparison point (Zuo et al.,
MICRO'18).  DeWrite performs *full* deduplication (every unique line is
indexed, the index lives in NVMM) but attacks the hash-latency problem with
two pipelines selected by a duplication predictor:

* **Predicted duplicate (serial)** — compute the 32-bit CRC, look it up
  (cache, then NVMM), and on a hit read the candidate frame back, decrypt,
  and byte-compare (CRC is too weak to trust).  Correct prediction (T1)
  eliminates the write; a mis-prediction (F2) has paid CRC + lookup +
  compare before falling back to encrypt-and-write, all serial — the
  paper's worst case.
* **Predicted unique (parallel)** — CRC and encryption start together as
  two timeline branches, so the CRC's latency hides under the (longer)
  encryption (T3).  The lookup still must confirm uniqueness before the
  write commits; when the line was actually a duplicate (F4), the
  speculative encryption was wasted energy and its branch is never joined.

Both pipelines inherit full deduplication's fingerprint NVMM_lookup cost on
every fingerprint-cache miss.
"""

from __future__ import annotations

from typing import List, Optional

from ..common.config import SystemConfig
from ..common.timeline import StageTimeline
from ..common.types import (
    CACHE_LINE_SIZE,
    MemoryRequest,
    WritePathStage,
    check_write_payload,
)
from ..crypto.costs import CryptoCosts, DEFAULT_COSTS
from ..crypto.fingerprints import CRC32Engine
from ..nvmm.energy import EnergyCategory
from ..perf.memo import MemoCache
from .base import WriteResult
from .full_dedup import FullDedupScheme
from .predictor import DuplicationPredictor


class DeWriteScheme(FullDedupScheme):
    """DeWrite (MICRO'18): CRC + prediction + parallel encryption."""

    name = "DeWrite"

    #: The paper quotes (16 bytes + 3 bits) of metadata per physical line.
    fingerprint_entry_size = 17

    def __init__(self, config: Optional[SystemConfig] = None,
                 costs: CryptoCosts = DEFAULT_COSTS) -> None:
        super().__init__(config, costs)
        self.engine = CRC32Engine(costs)
        self.predictor = DuplicationPredictor(
            entries=self.config.dewrite.predictor_entries,
            bits=self.config.dewrite.predictor_bits)

    def memo_caches(self) -> List[MemoCache]:
        return super().memo_caches() + [self.engine.cache]

    # ------------------------------------------------------------------
    # Write pipelines
    # ------------------------------------------------------------------

    def _write_predicted_duplicate(self, request: MemoryRequest,
                                   timeline: StageTimeline) -> WriteResult:
        """Serial pipeline: CRC -> lookup -> read-and-compare -> commit."""
        fingerprint = self.engine.fingerprint(request.data)
        self._charge_fingerprint(self.engine.energy_nj)
        timeline.serial(WritePathStage.FINGERPRINT_COMPUTE,
                        self.engine.latency_ns)

        lookup = self.store.lookup(fingerprint, timeline.now)
        timeline.advance_to(WritePathStage.FINGERPRINT_NVMM_LOOKUP,
                            lookup.completion_ns)

        if lookup.found:
            assert lookup.frame is not None
            stored = self._read_and_decrypt(lookup.frame, timeline)
            timeline.serial(WritePathStage.READ_FOR_COMPARISON,
                            self._charge_compare())
            if stored == request.data:
                # T1: correctly predicted duplicate.
                self.predictor.update(request.line_index, True)
                self._commit_duplicate(request.line_index, lookup.frame,
                                       timeline)
                return self._finalize_write(request, timeline,
                                            deduplicated=True,
                                            wrote_line=False)
            # CRC collision: same fingerprint, different bytes -> unique.
            self.counters.incr("crc_collisions")

        # F2 (or collision): everything so far was wasted; fall back to the
        # fully serial unique path.
        self.predictor.update(request.line_index, False)
        self._commit_unique(request.line_index, fingerprint, request.data,
                            timeline)
        return self._finalize_write(request, timeline,
                                    deduplicated=False, wrote_line=True)

    def _write_predicted_unique(self, request: MemoryRequest,
                                timeline: StageTimeline) -> WriteResult:
        """Parallel pipeline: CRC overlaps encryption; lookup gates commit."""
        # CRC and encryption start together as concurrent branches.  Only
        # the portion of the fingerprint leg that outlasts the encryption
        # is exposed.  The speculative encryption's energy is spent
        # regardless of the outcome.
        fingerprint = self.engine.fingerprint(request.data)
        self._charge_fingerprint(self.engine.energy_nj)
        self.crypto_energy.charge(EnergyCategory.ENCRYPTION,
                                  self.crypto.encrypt_energy_nj)
        enc_leg = timeline.overlap_with(WritePathStage.ENCRYPTION,
                                        self.crypto.encrypt_latency_ns)
        fp_leg = timeline.branch()
        fp_leg.serial(WritePathStage.FINGERPRINT_COMPUTE,
                      self.engine.latency_ns)

        # The lookup needs the fingerprint, so it starts when the CRC ends.
        lookup = self.store.lookup(fingerprint, fp_leg.now)
        fp_leg.advance_to(WritePathStage.FINGERPRINT_NVMM_LOOKUP,
                          lookup.completion_ns)

        if lookup.found:
            assert lookup.frame is not None
            stored = self._read_and_decrypt(lookup.frame, fp_leg)
            fp_leg.serial(WritePathStage.READ_FOR_COMPARISON,
                          self._charge_compare())
            if stored == request.data:
                # F4: the line was a duplicate after all.  The speculative
                # encryption is wasted work: its branch is never joined, so
                # its time never reaches the critical path (the energy was
                # already charged).  Commit the dedup.
                self.counters.incr("wasted_encryptions")
                self.predictor.update(request.line_index, True)
                timeline.join(fp_leg)
                self._commit_duplicate(request.line_index, lookup.frame,
                                       timeline)
                return self._finalize_write(request, timeline,
                                            deduplicated=True,
                                            wrote_line=False)
            self.counters.incr("crc_collisions")

        # T3 (or collision): confirmed unique; the write can commit once
        # both the encryption and the confirming fingerprint leg are done.
        # Joining the encryption first means the fingerprint leg is charged
        # only for the tail that outlasts it — the CRC hides entirely when
        # encryption is longer.
        timeline.join(enc_leg)
        timeline.join(fp_leg)
        self.predictor.update(request.line_index, False)
        self._commit_unique(request.line_index, fingerprint, request.data,
                            timeline, pre_encrypted=True)
        return self._finalize_write(request, timeline,
                                    deduplicated=False, wrote_line=True)

    def handle_write(self, request: MemoryRequest) -> WriteResult:
        payload = request.data
        if payload.__class__ is not bytes or len(payload) != CACHE_LINE_SIZE:
            check_write_payload(payload)
        values = self._counter_values
        values["writes"] = values.get("writes", 0) + 1
        timeline = self._timeline(request)
        if self.predictor.predict(request.line_index):
            return self._write_predicted_duplicate(request, timeline)
        return self._write_predicted_unique(request, timeline)

    def metadata_footprint(self):
        """DeWrite packs all per-line metadata into (16 bytes + 3 bits).

        The paper quotes 25.59 % metadata overhead for DeWrite — a single
        (16 B + 3 bit) record per line covering fingerprint *and* mapping
        state, rather than the separate index + mapping tables Dedup_SHA1
        carries.  The NVMM footprint is therefore that packed record per
        mapped logical line.
        """
        from .base import MetadataFootprint
        bits_per_entry = 16 * 8 + 3
        entries = self.mapping.entry_count
        nvmm = (entries * bits_per_entry + 7) // 8
        return MetadataFootprint(
            onchip_bytes=self.store.onchip_bytes() + self.mapping.onchip_bytes(),
            nvmm_bytes=nvmm)
