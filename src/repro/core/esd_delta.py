"""ESD-Δ: partial-match deduplication on per-word ECC signatures.

An *extension* beyond the paper (in the spirit of the BCD related work it
cites): ESD's fingerprint is the concatenation of eight per-word ECC
bytes, so it carries sub-line structure for free.  When a full-line match
fails, lines that share most of their words with an indexed line can
still be stored as a **delta** — base frame + only the differing words —
because PCM is byte-addressable and write energy scales with bits
written.

Pipeline (a superset of ESD's):

1. full 64-bit ECC probe of the EFIT — identical path to ESD; a full hit
   dedups exactly as ESD does;
2. on a full miss, probe a second on-chip index keyed by each entry's
   *word-ECC multiset signature*; a candidate sharing at least
   ``min_matching_words`` per-word ECC bytes is fetched and compared
   word-by-word;
3. if at least that many words truly match, write only the differing
   words (charged proportional energy, full write latency) and record a
   delta mapping; otherwise fall back to a unique full-line write.

Reads of delta-mapped lines read the base frame plus the delta region
(one extra PCM read) and reconstruct.

The extension preserves ESD's safety argument: every partial match is
confirmed by comparing actual bytes before anything is shared.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..common.config import SystemConfig
from ..common.timeline import StageTimeline
from ..common.types import (
    CACHE_LINE_SIZE,
    WORDS_PER_LINE,
    MemoryRequest,
    WritePathStage,
    check_write_payload,
)
from ..crypto.costs import CryptoCosts, DEFAULT_COSTS
from ..dedup.base import ReadResult, WriteResult
from .esd import ESDScheme

_READ_FILL = WritePathStage.READ_FILL
_DECRYPTION = WritePathStage.DECRYPTION


def word_ecc_bytes(ecc: int) -> Tuple[int, ...]:
    """The eight per-word ECC bytes of a line ECC."""
    return tuple((ecc >> (8 * i)) & 0xFF for i in range(WORDS_PER_LINE))


def matching_words(ecc_a: int, ecc_b: int) -> int:
    """How many word positions have equal per-word ECC bytes."""
    a, b = word_ecc_bytes(ecc_a), word_ecc_bytes(ecc_b)
    return sum(1 for x, y in zip(a, b) if x == y)


@dataclass
class DeltaRecord:
    """A logical line stored as base + differing words."""

    base_frame: int
    #: word index -> 8 replacement bytes.
    words: Dict[int, bytes]

    def reconstruct(self, base_plaintext: bytes) -> bytes:
        buf = bytearray(base_plaintext)
        for index, data in self.words.items():
            buf[index * 8:(index + 1) * 8] = data
        return bytes(buf)

    @property
    def delta_bytes(self) -> int:
        """Stored payload bytes (words) plus 1 index byte per word."""
        return len(self.words) * 9


class ESDDeltaScheme(ESDScheme):
    """ESD extended with word-granular delta deduplication."""

    name = "ESD-Delta"

    def __init__(self, config: Optional[SystemConfig] = None,
                 costs: CryptoCosts = DEFAULT_COSTS, *,
                 min_matching_words: int = 6) -> None:
        super().__init__(config, costs)
        if not 1 <= min_matching_words <= WORDS_PER_LINE - 1:
            raise ValueError("min_matching_words must be 1..7")
        self.min_matching_words = min_matching_words
        #: Secondary similarity index: word-ECC byte -> recent frames whose
        #: line contains that word ECC (bounded per bucket).
        self._word_index: Dict[Tuple[int, int], List[int]] = {}
        self._word_index_depth = 4
        #: logical line -> delta record (overrides the AMT mapping).
        self._deltas: Dict[int, DeltaRecord] = {}
        #: base frame -> logical lines holding deltas against it.
        self._delta_users: Dict[int, List[int]] = {}
        self.delta_writes = 0
        self.delta_bytes_written = 0

    # ------------------------------------------------------------------
    # Similarity index maintenance
    # ------------------------------------------------------------------

    def _index_words(self, ecc: int, frame: int) -> None:
        for position, byte in enumerate(word_ecc_bytes(ecc)):
            bucket = self._word_index.setdefault((position, byte), [])
            if frame in bucket:
                continue
            bucket.append(frame)
            if len(bucket) > self._word_index_depth:
                bucket.pop(0)

    def _candidate_frames(self, ecc: int) -> List[int]:
        """Frames sharing word-ECC bytes, ranked by signature overlap."""
        votes: Dict[int, int] = {}
        for position, byte in enumerate(word_ecc_bytes(ecc)):
            for frame in self._word_index.get((position, byte), ()):
                votes[frame] = votes.get(frame, 0) + 1
        ranked = [frame for frame, count in votes.items()
                  if count >= self.min_matching_words
                  and self.allocator.is_allocated(frame)]
        ranked.sort(key=lambda f: -votes[f])
        return ranked[:2]

    # ------------------------------------------------------------------
    # Delta bookkeeping
    # ------------------------------------------------------------------

    def _drop_delta(self, logical_line: int) -> None:
        record = self._deltas.pop(logical_line, None)
        if record is None:
            return
        users = self._delta_users.get(record.base_frame)
        if users is not None:
            try:
                users.remove(logical_line)
            except ValueError:
                pass
            if not users:
                del self._delta_users[record.base_frame]
        remaining = self.refcounts.release(record.base_frame)
        if remaining == 0:
            ecc = self._frame_ecc.pop(record.base_frame, None)
            if ecc is not None:
                self.efit.remove(ecc)

    def _release_previous(self, logical_line: int) -> None:
        if logical_line in self._deltas:
            self._drop_delta(logical_line)
            return
        super()._release_previous(logical_line)

    # ------------------------------------------------------------------
    # Write path
    # ------------------------------------------------------------------

    def handle_write(self, request: MemoryRequest) -> WriteResult:
        payload = request.data
        if payload.__class__ is not bytes or len(payload) != CACHE_LINE_SIZE:
            check_write_payload(payload)
        ecc = self._line_ecc(request.data)
        entry, _probe = self.efit.lookup(ecc)
        if entry is not None:
            # Full-line path: delegate to ESD (it will re-probe; refund the
            # double-counted statistics by probing once here only for the
            # delta decision).
            self.efit.hits -= 1
            result = super().handle_write(request)
            if result.wrote_line:
                frame = self.amt.current_frame(request.line_index)
                if frame is not None:
                    self._index_words(ecc, frame)
            return result

        values = self._counter_values
        values["writes"] = values.get("writes", 0) + 1
        timeline = self._timeline(request)
        timeline.serial(WritePathStage.METADATA, self.efit.probe_latency_ns)

        # Partial-match attempt.
        for candidate in self._candidate_frames(ecc):
            stored = self._read_and_decrypt(candidate, timeline)
            timeline.serial(WritePathStage.READ_FOR_COMPARISON,
                            self._charge_compare())
            diff = {i: request.data[i * 8:(i + 1) * 8]
                    for i in range(WORDS_PER_LINE)
                    if stored[i * 8:(i + 1) * 8]
                    != request.data[i * 8:(i + 1) * 8]}
            if len(diff) <= WORDS_PER_LINE - self.min_matching_words:
                return self._commit_delta(request, candidate, diff, timeline)

        # No similar base: unique full-line write (ESD's path), and index
        # the new line's word signature for future partial matches.
        result = self._write_unique(request, ecc, timeline,
                                    index_in_efit=True)
        frame = self.amt.current_frame(request.line_index)
        if frame is not None:
            self._index_words(ecc, frame)
        return result

    def _commit_delta(self, request: MemoryRequest, base_frame: int,
                      diff: Dict[int, bytes],
                      timeline: StageTimeline) -> WriteResult:
        """Store the line as base + differing words."""
        self.counters.incr("delta_hits")
        # A delta hit eliminates the full-line write, so it counts toward
        # the scheme's overall dedup effectiveness.
        values = self._counter_values
        values["dedup_hits"] = values.get("dedup_hits", 0) + 1
        self.delta_writes += 1
        record = DeltaRecord(base_frame=base_frame, words=dict(diff))
        self.delta_bytes_written += record.delta_bytes

        # Acquire the base before releasing any previous mapping (the
        # self-rewrite hazard, as in ESD's full path).
        self.refcounts.acquire(base_frame)
        self._release_previous(request.line_index)
        self._deltas[request.line_index] = record
        self._delta_users.setdefault(base_frame, []).append(
            request.line_index)

        # The delta write: full PCM write latency (one array access), but
        # energy scales with the fraction of the line actually written.
        # Deltas live in a dedicated region keyed by the logical line.
        fraction = min(1.0, max(1, record.delta_bytes) / CACHE_LINE_SIZE)
        result = self.controller.write_partial(
            request.line_index ^ 0x5DE17A, fraction, timeline.now)
        timeline.advance_to(WritePathStage.WRITE_UNIQUE,
                            result.completion_ns)
        return self._finalize_write(request, timeline,
                                    deduplicated=True, wrote_line=False)

    # ------------------------------------------------------------------
    # Read path
    # ------------------------------------------------------------------

    def handle_read(self, request: MemoryRequest) -> ReadResult:
        record = self._deltas.get(request.line_index)
        if record is None:
            return super().handle_read(request)
        values = self._counter_values
        values["reads"] = values.get("reads", 0) + 1
        timeline = self._timeline(request)
        # Base read + delta-region read.
        base_plain = self._read_and_decrypt(record.base_frame, timeline,
                                            _READ_FILL, _DECRYPTION)
        delta_access = self.controller.metadata_read(
            request.line_index ^ 0x5DE17A, timeline.now)
        timeline.advance_to(WritePathStage.READ_FILL,
                            delta_access.completion_ns)
        data = record.reconstruct(base_plain)
        return self._finalize_read(request, timeline, data)

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------

    def metadata_footprint(self):
        from ..dedup.base import MetadataFootprint
        base = super().metadata_footprint()
        delta_bytes = sum(r.delta_bytes + 5 for r in self._deltas.values())
        return MetadataFootprint(onchip_bytes=base.onchip_bytes,
                                 nvmm_bytes=base.nvmm_bytes + delta_bytes)

    @property
    def delta_mapped_lines(self) -> int:
        return len(self._deltas)
