"""Scheme interface shared by Baseline, Dedup_SHA1, DeWrite, and ESD.

Every scheme consumes :class:`~repro.common.types.MemoryRequest` objects and
returns per-request timing results; the simulation engine treats all four
identically, which is what lets every benchmark sweep schemes uniformly.

A scheme owns:

* a :class:`~repro.nvmm.controller.MemoryController` (PCM timing/energy),
* a :class:`~repro.crypto.counter_mode.CounterModeEngine` (encryption),
* an :class:`~repro.nvmm.energy.EnergyAccount` for crypto/fingerprint energy
  (PCM energy is accounted inside the controller),
* a :class:`~repro.common.types.LatencyBreakdown` accumulating the Figure 17
  write-path profile (and a second one for the read path),
* counters for dedup effectiveness (duplicates eliminated, writes issued).

Request handlers declare their pipeline on a
:class:`~repro.common.timeline.StageTimeline` and finish through
:meth:`DedupScheme._finalize_write` / :meth:`DedupScheme._finalize_read`,
the single point where a request's sealed timeline folds into the scheme's
running breakdowns.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, NamedTuple, Optional

from ..common.config import SystemConfig
from ..common.stats import Counter
from ..common.timeline import StageTimeline
from ..common.types import (
    LatencyBreakdown,
    MemoryRequest,
    WritePathStage,
)
from ..crypto.costs import CryptoCosts, DEFAULT_COSTS
from ..crypto.counter_mode import CounterModeEngine
from ..nvmm.allocator import FrameAllocator
from ..nvmm.controller import MemoryController
from ..nvmm.energy import EnergyAccount, EnergyCategory
from ..obs import runtime as _obs
from ..perf import memo as _memo

if TYPE_CHECKING:
    from ..crypto.integrity import CounterIntegrityTree

# Hoisted enum members for the fast-path branches (module-global loads are
# cheaper than two-level attribute lookups on per-request paths).
_ENCRYPTION = WritePathStage.ENCRYPTION
_WRITE_UNIQUE = WritePathStage.WRITE_UNIQUE
_new_tuple = tuple.__new__


class WriteResult(NamedTuple):
    """Timing outcome of one write handled by a scheme.

    ``NamedTuple`` rather than a frozen dataclass: one is built per write
    request.  Its generated ``__new__`` is a Python function, so the fast
    path builds it with ``tuple.__new__`` (DESIGN.md §8).
    """

    completion_ns: float
    latency_ns: float
    deduplicated: bool
    #: True when a data line was physically written to PCM.
    wrote_line: bool
    #: The sealed per-request timeline (critical path + stage exposures).
    timeline: Optional[StageTimeline] = None

    @property
    def stages(self) -> Dict[WritePathStage, float]:
        """Per-stage exposed latency of this write (feeds Figure 17)."""
        if self.timeline is None:
            return {}
        return self.timeline.exposures


class ReadResult(NamedTuple):
    """Timing + data outcome of one read handled by a scheme."""

    data: bytes
    completion_ns: float
    latency_ns: float
    #: The sealed per-request timeline (critical path + stage exposures).
    timeline: Optional[StageTimeline] = None


@dataclass(frozen=True)
class MetadataFootprint:
    """Measured metadata space consumption of a scheme (Figure 19)."""

    onchip_bytes: int
    nvmm_bytes: int

    @property
    def total_bytes(self) -> int:
        return self.onchip_bytes + self.nvmm_bytes


class DedupScheme(abc.ABC):
    """Base class wiring the shared substrates together."""

    #: Scheme identifier used in results tables ("Baseline", "Dedup_SHA1",
    #: "DeWrite", "ESD").  Set by the ``@register_scheme`` decorator.
    name: str = "abstract"

    def __init__(self, config: Optional[SystemConfig] = None,
                 costs: CryptoCosts = DEFAULT_COSTS) -> None:
        self.config = config or SystemConfig()
        self.costs = costs
        self.controller = MemoryController(self.config.pcm)
        self.allocator = FrameAllocator(self.config.pcm.num_lines)
        self.crypto = CounterModeEngine(costs=costs)
        self.crypto_energy = EnergyAccount()
        self.breakdown = LatencyBreakdown()
        self.read_breakdown = LatencyBreakdown()
        self.counters = Counter()
        # Cost scalars hoisted out of the (frozen) cost table: the shared
        # write/read helpers below run once or more per request, and each
        # ``self.crypto.encrypt_latency_ns`` there is a property call plus
        # two attribute hops.  Used by the kernel-fast-path branches only;
        # the reference branches keep the original dotted lookups.
        self._encrypt_latency_ns = costs.encrypt.latency_ns
        self._encrypt_energy_nj = costs.encrypt.energy_nj
        self._decrypt_latency_ns = costs.decrypt.latency_ns
        self._decrypt_energy_nj = costs.decrypt.energy_nj
        self._compare_latency_ns = costs.compare.latency_ns
        self._compare_energy_nj = costs.compare.energy_nj
        #: Optional counter-integrity tree (Section III-E trust model).
        self.integrity_tree: Optional["CounterIntegrityTree"] = None
        if self.config.protect_counters:
            from ..crypto.integrity import CounterIntegrityTree
            self.integrity_tree = CounterIntegrityTree(
                self.crypto.counters, self.config.pcm.num_lines)

    def _integrity_update(self, frame: int) -> float:
        """Maintain the counter tree after a write; returns its latency."""
        if self.integrity_tree is None:
            return 0.0
        self.integrity_tree.update(frame)
        return (self.integrity_tree.depth
                * self.config.integrity_hash_latency_ns)

    def _integrity_verify(self, frame: int) -> float:
        """Verify the counter path before trusting a read's pad."""
        if self.integrity_tree is None:
            return 0.0
        self.integrity_tree.verify(frame)
        return (self.integrity_tree.depth
                * self.config.integrity_hash_latency_ns)

    # ------------------------------------------------------------------
    # Abstract request handlers
    # ------------------------------------------------------------------

    @abc.abstractmethod
    def handle_write(self, request: MemoryRequest) -> WriteResult:
        """Process one write-back arriving at the memory controller."""

    @abc.abstractmethod
    def handle_read(self, request: MemoryRequest) -> ReadResult:
        """Process one LLC miss fill; must return the current plaintext."""

    @abc.abstractmethod
    def metadata_footprint(self) -> MetadataFootprint:
        """Current measured metadata space consumption."""

    def vec_prime_engines(self) -> tuple:
        """Fingerprint engines keyed on *plaintext line content*.

        The vectorized engine's epoch front end batch-digests each epoch's
        unique write contents through these engines, priming their memo
        caches before the scalar per-line resolution (see
        :mod:`repro.vec.epoch`).  Priming is only sound for engines whose
        ``fingerprint`` is called on ``request.data`` verbatim, so the
        default discovers the conventional engine attributes; schemes that
        digest something else (e.g. DaE fingerprints *ciphertext*) must
        override this to exclude those engines.
        """
        engines = []
        for attr in ("engine", "weak_engine", "strong_engine"):
            candidate = getattr(self, attr, None)
            if candidate is not None and hasattr(candidate, "prime_batch"):
                engines.append(candidate)
        return tuple(engines)

    # ------------------------------------------------------------------
    # Timeline lifecycle
    # ------------------------------------------------------------------

    def _timeline(self, request: MemoryRequest) -> StageTimeline:
        """Open a timeline at the request's arrival at the controller."""
        return StageTimeline(request.issue_time_ns)

    def _finalize_write(self, request: MemoryRequest,
                        timeline: StageTimeline, *,
                        deduplicated: bool,
                        wrote_line: bool) -> WriteResult:
        """Seal a write's timeline and fold it into the running breakdown.

        The single instrumentation point of the write path: sealing checks
        stage conservation, folding accumulates the Figure 17 profile, and
        the reported latency is the timeline's critical path by
        construction.
        """
        if _memo.ENABLED:
            # seal(validate=False) + fold_into inlined: the conservation
            # check is covered by the slow-path parity gate, and the fold
            # is a plain dict accumulation.
            timeline._sealed = True
            obs = _obs.RUN
            if obs is not None:
                # The fast path never calls seal(); this is its seal
                # point, so the trace sees the same event either way.
                obs.record(timeline.now, "timeline", "sealed",
                           critical_path_ns=(timeline.now
                                             - timeline.start_ns),
                           stages=len(timeline._exposure))
            by_stage = self.breakdown.by_stage
            for stage, ns in timeline._exposure.items():
                if ns > 0.0:
                    by_stage[stage] = by_stage.get(stage, 0.0) + ns
            now = timeline.now
            return _new_tuple(WriteResult,
                              (now, now - request.issue_time_ns,
                               deduplicated, wrote_line, timeline))
        timeline.seal()
        timeline.fold_into(self.breakdown)
        return WriteResult(
            completion_ns=timeline.now,
            latency_ns=timeline.now - request.issue_time_ns,
            deduplicated=deduplicated,
            wrote_line=wrote_line,
            timeline=timeline,
        )

    def _finalize_read(self, request: MemoryRequest,
                       timeline: StageTimeline,
                       data: bytes) -> ReadResult:
        """Seal a read's timeline and fold it into ``read_breakdown``."""
        if _memo.ENABLED:
            timeline._sealed = True
            obs = _obs.RUN
            if obs is not None:
                # Fast-path seal point (see _finalize_write).
                obs.record(timeline.now, "timeline", "sealed",
                           critical_path_ns=(timeline.now
                                             - timeline.start_ns),
                           stages=len(timeline._exposure))
            by_stage = self.read_breakdown.by_stage
            for stage, ns in timeline._exposure.items():
                if ns > 0.0:
                    by_stage[stage] = by_stage.get(stage, 0.0) + ns
            now = timeline.now
            return _new_tuple(ReadResult,
                              (data, now, now - request.issue_time_ns,
                               timeline))
        timeline.seal()
        timeline.fold_into(self.read_breakdown)
        return ReadResult(
            data=data,
            completion_ns=timeline.now,
            latency_ns=timeline.now - request.issue_time_ns,
            timeline=timeline,
        )

    # ------------------------------------------------------------------
    # Shared building blocks
    # ------------------------------------------------------------------

    def _charge_fingerprint(self, energy_nj: float) -> None:
        """Account fingerprint energy; its latency lives on the timeline."""
        if _memo.ENABLED:
            buckets = self.crypto_energy.buckets
            buckets[EnergyCategory.FINGERPRINT] = buckets.get(
                EnergyCategory.FINGERPRINT, 0.0) + energy_nj
            return
        self.crypto_energy.charge(EnergyCategory.FINGERPRINT, energy_nj)

    def _encrypt_and_write(self, frame: int, plaintext: bytes,
                           timeline: StageTimeline) -> None:
        """Encrypt a line and write its ciphertext to PCM.

        Declares ENCRYPTION (plus the counter-tree METADATA update when
        enabled) serially, then advances to the controller's completion,
        charging the full queueing-inclusive access to WRITE_UNIQUE.
        """
        if _memo.ENABLED:
            # Fast path: energy charge inlined, cost scalars hoisted, and
            # the two timeline declarations (serial ENCRYPTION, advance to
            # the write's completion) folded into direct field updates —
            # identical arithmetic to serial()/advance_to(), minus two
            # method calls on a once-per-unique-write path.
            enc = self.crypto.encrypt(plaintext, frame)
            buckets = self.crypto_energy.buckets
            buckets[EnergyCategory.ENCRYPTION] = buckets.get(
                EnergyCategory.ENCRYPTION, 0.0) + self._encrypt_energy_nj
            exposure = timeline._exposure
            segments = timeline._segments
            now = timeline.now
            enc_ns = self._encrypt_latency_ns
            exposure[_ENCRYPTION] = exposure.get(_ENCRYPTION, 0.0) + enc_ns
            segments.append((_ENCRYPTION, now, now + enc_ns))
            now += enc_ns
            timeline.now = now
            if self.integrity_tree is not None:
                tree_ns = self._integrity_update(frame)
                if tree_ns:
                    timeline.serial(WritePathStage.METADATA, tree_ns)
                now = timeline.now
            completion = self.controller.write(frame, enc.ciphertext,
                                               now).completion_ns
            duration = completion - now
            if duration < 0.0:
                duration = 0.0
            exposure[_WRITE_UNIQUE] = (exposure.get(_WRITE_UNIQUE, 0.0)
                                       + duration)
            segments.append((_WRITE_UNIQUE, now, now + duration))
            if completion > now:
                timeline.now = completion
            return
        # Reference form (pre-fast-path implementation).
        enc = self.crypto.encrypt(plaintext, frame)
        self.crypto_energy.charge(EnergyCategory.ENCRYPTION,
                                  self.crypto.encrypt_energy_nj)
        timeline.serial(WritePathStage.ENCRYPTION,
                        self.crypto.encrypt_latency_ns)
        tree_ns = self._integrity_update(frame)
        if tree_ns:
            timeline.serial(WritePathStage.METADATA, tree_ns)
        result = self.controller.write(frame, enc.ciphertext, timeline.now)
        timeline.advance_to(WritePathStage.WRITE_UNIQUE,
                            result.completion_ns)

    def _read_and_decrypt(
            self, frame: int, timeline: StageTimeline, *,
            read_stage: WritePathStage = WritePathStage.READ_FOR_COMPARISON,
            decrypt_stage: Optional[WritePathStage] = None) -> bytes:
        """Read a frame and decrypt it, declaring the work on ``timeline``.

        With ``protect_counters`` enabled, the counter's integrity path is
        verified as a METADATA branch overlapping the (usually slower) PCM
        array access; joining the branch exposes only its excess.
        """
        if _memo.ENABLED and self.integrity_tree is None:
            # Fast path for the common no-integrity-tree configuration:
            # the advance-to-read-completion and serial-decrypt timeline
            # declarations are folded into direct field updates (identical
            # arithmetic, minus two method calls on the hottest read path).
            # The bank completion can never precede the timeline clock —
            # service starts at or after the arrival we just passed in —
            # so advance_to's backwards-clock check is vacuous here.
            ciphertext, access = self.controller.read(frame, timeline.now)
            completion = access.completion_ns
            exposure = timeline._exposure
            segments = timeline._segments
            now = timeline.now
            duration = completion - now
            if duration < 0.0:
                duration = 0.0
            exposure[read_stage] = exposure.get(read_stage, 0.0) + duration
            segments.append((read_stage, now, now + duration))
            if completion > now:
                now = completion
            buckets = self.crypto_energy.buckets
            buckets[EnergyCategory.DECRYPTION] = buckets.get(
                EnergyCategory.DECRYPTION, 0.0) + self._decrypt_energy_nj
            plaintext = self.crypto.decrypt_at(ciphertext, frame)
            dec_stage = decrypt_stage or read_stage
            dec_ns = self._decrypt_latency_ns
            exposure[dec_stage] = exposure.get(dec_stage, 0.0) + dec_ns
            segments.append((dec_stage, now, now + dec_ns))
            timeline.now = now + dec_ns
            return plaintext
        ciphertext, access = self.controller.read(frame, timeline.now)
        tree_ns = self._integrity_verify(frame)
        tree_leg = (timeline.overlap_with(WritePathStage.METADATA, tree_ns)
                    if tree_ns else None)
        timeline.advance_to(read_stage, access.completion_ns)
        if tree_leg is not None:
            timeline.join(tree_leg)
        self.crypto_energy.charge(EnergyCategory.DECRYPTION,
                                  self.crypto.decrypt_energy_nj)
        plaintext = self.crypto.decrypt_at(ciphertext, frame)
        timeline.serial(decrypt_stage or read_stage,
                        self.crypto.decrypt_latency_ns)
        return plaintext

    def _charge_compare(self) -> float:
        """Account one byte-by-byte line comparison; returns its latency."""
        if _memo.ENABLED:
            buckets = self.crypto_energy.buckets
            buckets[EnergyCategory.COMPARISON] = buckets.get(
                EnergyCategory.COMPARISON, 0.0) + self._compare_energy_nj
            return self._compare_latency_ns
        self.crypto_energy.charge(EnergyCategory.COMPARISON,
                                  self.costs.compare.energy_nj)
        return self.costs.compare.latency_ns

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------

    def total_energy(self) -> EnergyAccount:
        """PCM energy (controller) merged with crypto/fingerprint energy."""
        return self.controller.energy.merged_with(self.crypto_energy)

    @property
    def pcm_data_writes(self) -> int:
        return self.controller.data_writes

    @property
    def duplicates_eliminated(self) -> int:
        return self.counters.get("dedup_hits")

    @property
    def writes_handled(self) -> int:
        return self.counters.get("writes")

    def write_reduction(self) -> float:
        """Fraction of handled writes that never reached PCM as data writes."""
        handled = self.writes_handled
        if handled == 0:
            return 0.0
        return 1.0 - (self.controller.data_writes / handled)
