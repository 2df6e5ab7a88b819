"""Declarative stage timelines for the write and read critical paths.

Every scheme's request handler used to hand-roll its own stage accounting:
a mutable ``stages`` dict, running ``t`` clocks, and ad-hoc overlap math
like ``max(0.0, crc_done - encrypt_done)`` scattered across eight files.
:class:`StageTimeline` replaces all of that with a small declarative
vocabulary:

* :meth:`serial` — a fixed-latency step on the critical path (hashing,
  encryption, a byte compare);
* :meth:`advance_to` — a step whose completion time comes from a stateful
  substrate (a PCM bank access, a metadata-cache lookup); the exposed
  latency is whatever wall clock it consumed;
* :meth:`branch` / :meth:`join` — concurrent work.  A branch runs on its
  own clock from the moment it forks; joining charges the spine only for
  the portion of the branch that *outlasts* it (DeWrite's encryption
  hiding the CRC, ESD's integrity-tree walk hiding under the PCM read).
  A branch that is never joined is wasted speculative work: its energy was
  spent but its time never reaches the critical path.  Only a branch leg
  logs its ``(stage, begin, end)`` segments, because :meth:`join` reads
  them to attribute the exposed tail; a spine (a timeline built directly,
  as every request's is) keeps per-stage totals only;
* :meth:`overlap_with` / :meth:`parallel` — sugar over branch/join for the
  two common shapes.

The payoff is a *conservation invariant*, checked by :meth:`seal`: the
exposed per-stage latencies must sum to the timeline's critical path
(``now - start_ns``).  No wall clock can go unattributed and no stage can
be double-counted, which is exactly the property the paper's Figure 17
latency profile depends on.
"""

from __future__ import annotations

import math
from typing import Dict, Iterator, List, Optional, Tuple

from .errors import ReproError
from .types import LatencyBreakdown, WritePathStage

#: Relative tolerance of the conservation check.  Stage exposures are
#: accumulated as floats in declaration order while the critical path is a
#: single subtraction, so the two sides agree only up to rounding.
REL_TOLERANCE = 1e-9

#: Absolute tolerance of the conservation check, in nanoseconds.
ABS_TOLERANCE_NS = 1e-6


class TimelineError(ReproError):
    """A timeline was declared or used inconsistently."""


class StageTimeline:
    """One request's critical path, declared stage by stage.

    A timeline starts at ``start_ns`` (the request's issue time) and keeps
    a running clock ``now``.  Declaring work moves the clock forward and
    charges the consumed wall time to a named
    :class:`~repro.common.types.WritePathStage`.  After :meth:`seal`, the
    timeline is immutable and guarantees::

        sum(exposures.values()) == critical_path_ns == now - start_ns

    (up to float tolerance).  Schemes hand sealed timelines to
    ``DedupScheme._finalize_write`` / ``_finalize_read``, the single point
    where per-request stage latencies fold into the scheme's running
    :class:`~repro.common.types.LatencyBreakdown`.
    """

    __slots__ = ("start_ns", "now", "_exposure", "_segments", "_sealed")

    def __init__(self, start_ns: float) -> None:
        self.start_ns = start_ns
        #: The running clock; equals the completion time of all work
        #: declared so far.
        self.now = start_ns
        self._exposure: Dict[WritePathStage, float] = {}
        #: (stage, begin, end) spans in absolute time, used by join() to
        #: attribute a branch's exposed tail to the stages that ran in it.
        #: Only a leg built by branch() keeps the log (join() reads the
        #: leg's log, never the spine's); a spine holds None.
        self._segments: Optional[List[Tuple[WritePathStage, float,
                                            float]]] = None
        self._sealed = False

    # ------------------------------------------------------------------
    # Declaration vocabulary
    # ------------------------------------------------------------------

    def serial(self, stage: WritePathStage, duration_ns: float) -> None:
        """A fixed-duration step fully exposed on this timeline."""
        if self._sealed:
            self._check_open()
        if duration_ns < 0:
            raise TimelineError(
                f"stage {stage} declared with negative duration "
                f"{duration_ns!r}")
        # Inlined _charge: serial/advance_to carry most of the declaration
        # traffic (hundreds of thousands of calls per run), so the hot path
        # avoids a second method call.
        now = self.now
        exposure = self._exposure
        exposure[stage] = exposure.get(stage, 0.0) + duration_ns
        segments = self._segments
        if segments is not None:
            segments.append((stage, now, now + duration_ns))
        self.now = now + duration_ns

    def advance_to(self, stage: WritePathStage, completion_ns: float) -> None:
        """A step that finishes at an externally computed absolute time.

        Used for substrate operations (PCM accesses, metadata-cache
        lookups) whose completion time includes queueing: the exposed
        latency is ``completion_ns - now``, i.e. all wall clock between
        the step's start and its completion.
        """
        if self._sealed:
            self._check_open()
        now = self.now
        if completion_ns < now - ABS_TOLERANCE_NS:
            raise TimelineError(
                f"stage {stage} completes at {completion_ns!r}, before the "
                f"timeline clock {self.now!r}")
        duration = completion_ns - now
        if duration < 0.0:
            duration = 0.0
        exposure = self._exposure
        exposure[stage] = exposure.get(stage, 0.0) + duration
        segments = self._segments
        if segments is not None:
            segments.append((stage, now, now + duration))
        if completion_ns > now:
            self.now = completion_ns

    def branch(self) -> "StageTimeline":
        """Fork a concurrent leg (it logs segments for :meth:`join`)."""
        self._check_open()
        leg = StageTimeline(self.now)
        leg._segments = []
        return leg

    def join(self, leg: "StageTimeline") -> None:
        """Merge a branch back; only its exposed tail reaches this clock.

        The branch ran concurrently with whatever this timeline did since
        the fork.  If the branch finished first (``leg.now <= now``) it is
        fully hidden and charges nothing.  Otherwise the window
        ``[now, leg.now]`` is the branch's exposed tail: each of the
        branch's stage segments is charged for its overlap with that
        window, and the clock advances to ``leg.now``.  A timeline that
        was not forked by :meth:`branch` has no segments to charge, so
        joining one leaves its tail unattributed (and :meth:`seal`'s
        conservation check fails).
        """
        self._check_open()
        leg._sealed = True  # a joined leg must not be mutated further
        window_start = self.now
        window_end = leg.now
        if window_end <= window_start:
            return
        for stage, begin, end in leg._segments or ():
            lo = begin if begin > window_start else window_start
            hi = end if end < window_end else window_end
            if hi > lo:
                self._charge(stage, lo, hi)
        self.now = window_end

    def overlap_with(self, stage: WritePathStage,
                     duration_ns: float) -> "StageTimeline":
        """Start ``stage`` concurrently; returns the leg for a later join.

        Sugar for ``leg = branch(); leg.serial(stage, duration_ns)`` — the
        shape of DeWrite's speculative encryption and the integrity tree
        walk overlapping a PCM access.
        """
        leg = self.branch()
        leg.serial(stage, duration_ns)
        return leg

    def parallel(self, *legs: Tuple[WritePathStage, float]) -> None:
        """Run fixed-duration stages concurrently and join them in order.

        The first-listed stage is joined first, so it absorbs the shared
        prefix of the overlap and later stages are charged only for the
        time by which they outlast it.
        """
        forked = [self.overlap_with(stage, ns) for stage, ns in legs]
        for leg in forked:
            self.join(leg)

    # ------------------------------------------------------------------
    # Sealing and reporting
    # ------------------------------------------------------------------

    def seal(self) -> "StageTimeline":
        """Freeze the timeline after checking stage conservation.

        The scheme finalize helpers (``DedupScheme._finalize_write`` /
        ``_finalize_read``) do not call ``seal``: they set the sealing flag
        and fold inline, once per request.  Conservation on that path is a
        test assertion instead (``tests/test_stage_conservation.py`` on
        every request of every scheme, and the scheme state machine on
        every step).
        """
        if self._sealed:
            return self
        total = math.fsum(self._exposure.values())
        span = self.now - self.start_ns
        if not math.isclose(total, span, rel_tol=REL_TOLERANCE,
                            abs_tol=ABS_TOLERANCE_NS):
            raise TimelineError(
                f"stage conservation violated: exposures sum to "
                f"{total!r} ns but the critical path is {span!r} ns")
        self._sealed = True
        return self

    @property
    def sealed(self) -> bool:
        return self._sealed

    @property
    def critical_path_ns(self) -> float:
        """Wall clock from the request's issue to its completion."""
        return self.now - self.start_ns

    @property
    def exposures(self) -> Dict[WritePathStage, float]:
        """Per-stage exposed latency; stages that charged nothing are
        omitted (a fully hidden stage did not appear on the critical
        path)."""
        return {stage: ns for stage, ns in self._exposure.items() if ns > 0.0}

    def fold_into(self, breakdown: LatencyBreakdown) -> None:
        """Accumulate this request's exposures into a running breakdown."""
        # Direct dict update: exposures are non-negative by construction,
        # so ``LatencyBreakdown.add``'s validation is redundant here and
        # this is a per-request path.
        by_stage = breakdown.by_stage
        for stage, ns in self._exposure.items():
            if ns > 0.0:
                by_stage[stage] = by_stage.get(stage, 0.0) + ns

    def segments(self) -> Iterator[Tuple[WritePathStage, float, float]]:
        """A leg's declared (stage, begin, end) spans, in declaration
        order; a spine keeps no segment log and yields nothing."""
        return iter(self._segments or ())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        stages = ", ".join(f"{stage}={ns:.1f}"
                           for stage, ns in self._exposure.items())
        return (f"StageTimeline(start={self.start_ns:.1f}, "
                f"now={self.now:.1f}, sealed={self._sealed}, {stages})")

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _check_open(self) -> None:
        if self._sealed:
            raise TimelineError("timeline is sealed; declare all work "
                                "before seal()/join()")

    def _charge(self, stage: WritePathStage, begin: float,
                end: float) -> None:
        self._exposure[stage] = self._exposure.get(stage, 0.0) + (end - begin)
        if self._segments is not None:
            self._segments.append((stage, begin, end))
