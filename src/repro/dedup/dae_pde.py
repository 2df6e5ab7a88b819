"""The rejected alternatives: DaE and PDE (Section II-C).

The paper motivates ESD by eliminating the two straightforward ways of
combining deduplication with encryption:

* **DaE — Deduplication after Encryption.**  Fingerprint the *ciphertext*.
  Under counter-mode encryption the pad depends on (address, write count),
  so identical plaintexts encrypt to unrelated ciphertexts; the "strong
  diffusion effect" destroys all duplicate structure and DaE's dedup rate
  collapses to ~0 (only an exact pad+plaintext coincidence could match).
  This scheme exists to *demonstrate* that collapse.

* **PDE — Parallelism of Deduplication and Encryption.**  Compute the
  fingerprint and the encryption of *every* line concurrently.  The
  fingerprint latency of unique lines hides under the encryption, but the
  energy of both operations is burned on every line — including the
  duplicates whose encryption is discarded.  The paper rejects PDE on
  exactly this energy argument.

Both reuse the full-dedup machinery so their only differences from
Dedup_SHA1 are the pipeline orderings under study.
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
from ..nvmm.energy import EnergyCategory
from ..perf.memo import MemoCache
from .base import WriteResult
from .full_dedup import FullDedupScheme


class DaEScheme(FullDedupScheme):
    """Deduplication-after-Encryption: fingerprint the ciphertext.

    Retained for the motivation experiment only — its dedup rate against
    counter-mode ciphertext is ~0, reproducing the paper's argument that
    DaE "is not applicable" to encrypted NVMM.
    """

    name = "DaE"
    fingerprint_entry_size = 26

    def __init__(self, config: Optional[SystemConfig] = None,
                 costs: CryptoCosts = DEFAULT_COSTS) -> None:
        super().__init__(config, costs)
        self.engine = SHA1Engine(costs)

    def handle_write(self, request: MemoryRequest) -> WriteResult:
        payload = request.data
        if payload.__class__ is not bytes or len(payload) != CACHE_LINE_SIZE:
            check_write_payload(payload)
        values = self._counter_values
        values["writes"] = values.get("writes", 0) + 1
        timeline = self._timeline(request)

        # 1. Encrypt first (DaE's defining order).  The frame must be
        # allocated before encryption because the pad binds to it.
        self._release_previous(request.line_index)
        frame = self.allocator.allocate()
        encrypted = self.crypto.encrypt(request.data, frame)
        self._integrity_update(frame)
        self.crypto_energy.charge(EnergyCategory.ENCRYPTION,
                                  self.crypto.encrypt_energy_nj)
        timeline.serial(WritePathStage.ENCRYPTION,
                        self.crypto.encrypt_latency_ns)

        # 2. Fingerprint the *ciphertext* with the SHA-1 kernel itself:
        # counter-mode ciphertexts never repeat, so a digest memo would
        # never hit (DaE owns no memo cache beyond the pad store).
        fingerprint = self.engine._digest(encrypted.ciphertext)
        self._charge_fingerprint(self.engine.energy_nj)
        timeline.serial(WritePathStage.FINGERPRINT_COMPUTE,
                        self.engine.latency_ns)

        # 3. Lookup.  Diffusion makes a hit essentially impossible, but the
        # pipeline is honest: a hit would dedup.
        lookup = self.store.lookup(fingerprint, timeline.now)
        timeline.advance_to(WritePathStage.FINGERPRINT_NVMM_LOOKUP,
                            lookup.completion_ns)

        if lookup.found:
            # The allocated frame is not needed after all.
            self.allocator.free(frame)
            assert lookup.frame is not None
            self._commit_duplicate(request.line_index, lookup.frame, timeline)
            return self._finalize_write(request, timeline,
                                        deduplicated=True, wrote_line=False)

        # 4. Unique: the ciphertext is already made; write it out.
        result = self.controller.write(frame, encrypted.ciphertext,
                                       timeline.now)
        timeline.advance_to(WritePathStage.WRITE_UNIQUE, result.completion_ns)
        self.refcounts.acquire(frame)
        self._frame_fingerprint[frame] = fingerprint
        self.store.insert(fingerprint, frame, timeline.now)
        t2 = self.mapping.update(request.line_index, frame, timeline.now)
        timeline.advance_to(WritePathStage.METADATA, t2)
        return self._finalize_write(request, timeline,
                                    deduplicated=False, wrote_line=True)


class PDEScheme(FullDedupScheme):
    """Parallelism of Deduplication and Encryption.

    Fingerprint (SHA-1, on the plaintext) and encryption start together on
    *every* write.  Unique lines hide the hash latency under the (shorter)
    encryption plus the lookup; duplicate lines throw the finished
    encryption away.  Latency approaches Dedup_SHA1-with-hidden-hash;
    energy pays both operations on all lines.
    """

    name = "PDE"
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

        # Fingerprint and encryption start together as concurrent branches;
        # both energies are spent unconditionally (PDE's defining property).
        fingerprint = self.engine.fingerprint(request.data)
        self._charge_fingerprint(self.engine.energy_nj)
        self.crypto_energy.charge(EnergyCategory.ENCRYPTION,
                                  self.crypto.encrypt_energy_nj)
        enc_leg = timeline.overlap_with(WritePathStage.ENCRYPTION,
                                        self.crypto.encrypt_latency_ns)
        fp_leg = timeline.branch()
        fp_leg.serial(WritePathStage.FINGERPRINT_COMPUTE,
                      self.engine.latency_ns)

        # The lookup needs the fingerprint, so it starts when the hash ends.
        lookup = self.store.lookup(fingerprint, fp_leg.now)
        fp_leg.advance_to(WritePathStage.FINGERPRINT_NVMM_LOOKUP,
                          lookup.completion_ns)

        if lookup.found:
            # Duplicate: the parallel encryption was wasted energy; its
            # branch is never joined, so the discarded work costs no time.
            self.counters.incr("wasted_encryptions")
            assert lookup.frame is not None
            timeline.join(fp_leg)
            self._commit_duplicate(request.line_index, lookup.frame, timeline)
            return self._finalize_write(request, timeline,
                                        deduplicated=True, wrote_line=False)

        # Unique: commit once both the encryption and the fingerprint leg
        # (hash + confirming lookup) are done.
        timeline.join(enc_leg)
        timeline.join(fp_leg)
        self._commit_unique(request.line_index, fingerprint, request.data,
                            timeline, pre_encrypted=True)
        return self._finalize_write(request, timeline,
                                    deduplicated=False, wrote_line=True)
