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
from ..obs.runtime import RunObservation

if TYPE_CHECKING:
    from ..crypto.integrity import CounterIntegrityTree

# Hoisted enum members (module-global loads are cheaper than two-level
# attribute lookups on per-request paths).
_ENCRYPTION = WritePathStage.ENCRYPTION
_WRITE_UNIQUE = WritePathStage.WRITE_UNIQUE
_READ_FOR_COMPARISON = WritePathStage.READ_FOR_COMPARISON
_new_tuple = tuple.__new__


class WriteResult(NamedTuple):
    """Timing outcome of one write handled by a scheme.

    ``NamedTuple`` rather than a frozen dataclass: one is built per write
    request.  Its generated ``__new__`` is a Python function, so
    :meth:`DedupScheme._finalize_write` builds it with ``tuple.__new__``
    (DESIGN.md §8).
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
        #: The tallies' dict, for the per-request counts the handlers bump
        #: inline (``writes``, ``reads``, ``dedup_hits``); ``Counter.incr``
        #: would be a method call with two checks per request.
        self._counter_values = self.counters.values
        # Cost scalars hoisted out of the (frozen) cost table: the shared
        # write/read helpers below run once or more per request, and each
        # ``self.crypto.encrypt_latency_ns`` there is a property call plus
        # two attribute hops.
        self._encrypt_latency_ns = costs.encrypt.latency_ns
        self._encrypt_energy_nj = costs.encrypt.energy_nj
        self._decrypt_latency_ns = costs.decrypt.latency_ns
        self._decrypt_energy_nj = costs.decrypt.energy_nj
        self._compare_latency_ns = costs.compare.latency_ns
        self._compare_energy_nj = costs.compare.energy_nj
        #: Run scope the hooks record into; see bind_observation.
        self._obs: Optional[RunObservation] = None
        #: Optional counter-integrity tree (Section III-E trust model).
        self.integrity_tree: Optional["CounterIntegrityTree"] = None
        if self.config.protect_counters:
            from ..crypto.integrity import CounterIntegrityTree
            self.integrity_tree = CounterIntegrityTree(
                self.crypto.counters, self.config.pcm.num_lines)

    def bind_observation(self, obs: Optional[RunObservation]) -> None:
        """Record this scheme's events, and those of the structures it
        owns, into ``obs`` (``None`` turns every hook off).

        The session calls this once at open; schemes that own more hooked
        structures than the memory controller extend it.
        """
        self._obs = self.controller._obs = obs

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

        The single instrumentation point of the write path: folding
        accumulates the Figure 17 profile, and the reported latency is the
        timeline's critical path by construction.  ``seal`` and
        ``fold_into`` are inlined (this runs once per write); stage
        conservation on this path is asserted by the tests on every
        request (``tests/test_stage_conservation.py`` and the scheme state
        machine) rather than re-checked here.
        """
        timeline._sealed = True
        obs = self._obs
        if obs is not None:
            # The seal point: one ``sealed`` event per traced request.
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

    def _finalize_read(self, request: MemoryRequest,
                       timeline: StageTimeline,
                       data: bytes) -> ReadResult:
        """Seal a read's timeline and fold it into ``read_breakdown``."""
        timeline._sealed = True
        obs = self._obs
        if obs is not None:
            # The seal point (see _finalize_write).
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

    # ------------------------------------------------------------------
    # Shared building blocks
    # ------------------------------------------------------------------

    def _charge_fingerprint(self, energy_nj: float) -> None:
        """Account fingerprint energy; its latency lives on the timeline."""
        buckets = self.crypto_energy.buckets
        buckets[EnergyCategory.FINGERPRINT] = buckets.get(
            EnergyCategory.FINGERPRINT, 0.0) + energy_nj

    def _encrypt_and_write(self, frame: int, plaintext: bytes,
                           timeline: StageTimeline) -> None:
        """Encrypt a line and write its ciphertext to PCM.

        Declares ENCRYPTION (plus the counter-tree METADATA update when
        enabled) serially, then advances to the controller's completion,
        charging the full queueing-inclusive access to WRITE_UNIQUE.
        """
        # Energy charge inlined, cost scalars hoisted, and the two
        # timeline declarations (serial ENCRYPTION, advance to the
        # write's completion) folded into direct field updates —
        # identical arithmetic to serial()/advance_to(), minus two method
        # calls on a once-per-unique-write path.
        enc = self.crypto.encrypt(plaintext, frame)
        buckets = self.crypto_energy.buckets
        buckets[EnergyCategory.ENCRYPTION] = buckets.get(
            EnergyCategory.ENCRYPTION, 0.0) + self._encrypt_energy_nj
        # Only a branch leg logs segments (StageTimeline.join reads
        # them); a request's spine keeps per-stage totals only.
        exposure = timeline._exposure
        segments = timeline._segments
        now = timeline.now
        enc_ns = self._encrypt_latency_ns
        exposure[_ENCRYPTION] = exposure.get(_ENCRYPTION, 0.0) + enc_ns
        if segments is not None:
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
        if segments is not None:
            segments.append((_WRITE_UNIQUE, now, now + duration))
        if completion > now:
            timeline.now = completion

    def _read_and_decrypt(
            self, frame: int, timeline: StageTimeline,
            read_stage: WritePathStage = _READ_FOR_COMPARISON,
            decrypt_stage: Optional[WritePathStage] = None) -> bytes:
        """Read a frame and decrypt it, declaring the work on ``timeline``.

        The read is charged to ``read_stage`` and the decrypt to
        ``decrypt_stage`` (``read_stage`` when None).  Callers pass the
        stages positionally: this runs once per read.  With
        ``protect_counters`` enabled, the counter's integrity path is
        verified as a METADATA branch overlapping the (usually slower) PCM
        array access; joining the branch exposes only its excess.
        """
        if self.integrity_tree is None:
            # The common no-integrity-tree configuration: the
            # advance-to-read-completion and serial-decrypt timeline
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
            if segments is not None:
                # A leg: DeWrite's predicted-unique pipeline compares on
                # its fingerprint leg.
                segments.append((read_stage, now, now + duration))
            if completion > now:
                now = completion
            buckets = self.crypto_energy.buckets
            buckets[EnergyCategory.DECRYPTION] = buckets.get(
                EnergyCategory.DECRYPTION, 0.0) + self._decrypt_energy_nj
            plaintext = self.crypto.decrypt_at(ciphertext, frame)
            if decrypt_stage is None:
                decrypt_stage = read_stage
            dec_ns = self._decrypt_latency_ns
            exposure[decrypt_stage] = (exposure.get(decrypt_stage, 0.0)
                                       + dec_ns)
            if segments is not None:
                segments.append((decrypt_stage, now, now + dec_ns))
            timeline.now = now + dec_ns
            return plaintext
        # With the counter integrity tree: the walk overlaps the read.
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
        buckets = self.crypto_energy.buckets
        buckets[EnergyCategory.COMPARISON] = buckets.get(
            EnergyCategory.COMPARISON, 0.0) + self._compare_energy_nj
        return self._compare_latency_ns

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
