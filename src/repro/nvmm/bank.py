"""Bank-level timing model for the PCM array.

PCM banks serve one access at a time.  Because the simulator processes the
trace in program order while a request's pipeline stages carry absolute
timestamps, a bank can be asked to serve accesses whose arrival times are
*not* monotonic.  A naive busy-until model would let one late-scheduled
access block every earlier-arriving access processed after it — a phantom
backlog no real controller exhibits (controllers reorder requests across
bank idle gaps).  Each bank therefore keeps a set of busy intervals and
places each access at the **earliest idle gap at or after its arrival**
(earliest-fit scheduling).

Banks also carry a one-entry row buffer (NVMain-style open row): a read
whose row matches the open row is a *row hit*, served at SRAM-like latency.
This matters enormously for deduplication — the byte-comparison reads of a
hot shared line (e.g. the all-zero line) all land on one row of one bank
and would otherwise serialize at full PCM read latency.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Hashable, List, NamedTuple, Optional, Tuple

from ..perf import memo as _memo

_NEG_INF = float("-inf")


class BankService(NamedTuple):
    """Record of one scheduled bank access.

    A ``NamedTuple`` rather than a dataclass: one is built per bank access
    (tens of thousands per run) and tuple construction is C-level.
    """

    bank: int
    arrival_ns: float
    start_ns: float
    completion_ns: float

    @property
    def latency_ns(self) -> float:
        """Arrival-to-completion latency (queueing + service)."""
        return self.completion_ns - self.arrival_ns

    @property
    def queue_delay_ns(self) -> float:
        return self.start_ns - self.arrival_ns


class Bank:
    """One PCM bank with earliest-fit interval scheduling and a row buffer.

    Args:
        index: bank number (for reporting).
        prune_margin_ns: busy intervals ending this far before the latest
            arrival seen are discarded; out-of-order arrivals deeper than
            this margin would mis-schedule, so it must exceed the engine's
            throttling window span (the default is generous).
    """

    def __init__(self, index: int, prune_margin_ns: float = 1_000_000.0) -> None:
        self.index = index
        self.prune_margin_ns = prune_margin_ns
        # Sorted, non-overlapping, merged busy intervals as (start, end).
        self._intervals: List[Tuple[float, float]] = []
        self._latest_arrival = 0.0
        self.busy_time_ns = 0.0
        self.services = 0
        self.open_row: Optional[Hashable] = None
        self.row_hits = 0
        self.row_misses = 0

    # ------------------------------------------------------------------
    # Row buffer
    # ------------------------------------------------------------------

    def access_row(self, row: Hashable) -> bool:
        """Open ``row``; returns True when it was already open (row hit)."""
        if self.open_row == row:
            self.row_hits += 1
            return True
        self.open_row = row
        self.row_misses += 1
        return False

    # ------------------------------------------------------------------
    # Earliest-fit scheduling
    # ------------------------------------------------------------------

    def service(self, arrival_ns: float, duration_ns: float) -> BankService:
        """Schedule an access at the earliest idle gap >= its arrival."""
        if arrival_ns < 0 or duration_ns < 0:
            raise ValueError("times must be non-negative")
        if arrival_ns > self._latest_arrival:
            self._latest_arrival = arrival_ns
        intervals = self._intervals
        if _memo.ENABLED:
            if duration_ns > 0.0 and (not intervals
                                      or arrival_ns >= intervals[-1][0]):
                # Common case: the access lands in or after the *last* busy
                # interval (program-order traces are mostly monotonic, and
                # a busy bank queues arrivals behind its tail).  The
                # earliest fit is then ``max(arrival, last_end)`` and the
                # new interval appends/merges at the tail.  (A 0-ns access
                # arriving exactly at a busy interval's start fits *before*
                # it, so zero-duration accesses take the branch below.)
                if intervals:
                    last_start, last_end = intervals[-1]
                    start = last_end if arrival_ns < last_end else arrival_ns
                else:
                    last_end = -1.0
                    start = arrival_ns
                end = start + duration_ns
                if end > start:
                    if start == last_end:
                        intervals[-1] = (last_start, end)
                    else:
                        intervals.append((start, end))
            else:
                # Out-of-order arrival, typically a few intervals behind
                # the tail of a saturated bank: ``_find_slot`` and
                # ``_insert_interval`` inlined, with the same earliest-fit
                # and merge rules, walking the intervals by index instead
                # of copying the suffix.
                n = len(intervals)
                i = bisect_left(intervals, (arrival_ns, _NEG_INF))
                if i and intervals[i - 1][1] > arrival_ns:
                    i -= 1
                start = arrival_ns
                while i < n:
                    busy_start, busy_end = intervals[i]
                    if start + duration_ns <= busy_start:
                        break
                    if busy_end > start:
                        start = busy_end
                    i += 1
                end = start + duration_ns
                # Intervals before ``i`` end at or before ``start`` and
                # ``intervals[i]`` starts at or after ``end``, so ``i`` is
                # where ``_insert_interval``'s bisection would land.
                if end != start:
                    if i and intervals[i - 1][1] == start:
                        if i < n and intervals[i][0] == end:
                            intervals[i - 1] = (intervals[i - 1][0],
                                                intervals[i][1])
                            del intervals[i]
                        else:
                            intervals[i - 1] = (intervals[i - 1][0], end)
                    elif i < n and intervals[i][0] == end:
                        intervals[i] = (start, intervals[i][1])
                    else:
                        intervals.insert(i, (start, end))
            self.busy_time_ns += duration_ns
            self.services += 1
            if len(intervals) >= 4096:
                self._maybe_prune()
            return BankService(bank=self.index, arrival_ns=arrival_ns,
                               start_ns=start, completion_ns=end)
        start = self._find_slot(arrival_ns, duration_ns)
        end = start + duration_ns
        self._insert_interval(start, end)
        self.busy_time_ns += duration_ns
        self.services += 1
        self._maybe_prune()
        return BankService(bank=self.index, arrival_ns=arrival_ns,
                           start_ns=start, completion_ns=end)

    def service_batch(self, arrivals, durations):
        """Vectorized earliest-fit schedule of a tail-monotonic burst.

        Schedules ``len(arrivals)`` accesses whose arrivals are sorted and
        land at/after the current busy tail — the shape a batch consumer
        (benchmark replay, epoch-level planner) naturally produces — as
        closed-form array math instead of per-access ``service`` calls.
        With ``S`` the prefix sum of durations, the sequential recurrence
        ``end[i] = max(arrival[i], end[i-1]) + duration[i]`` telescopes to
        ``end = S + cummax(arrival - Sshift)``.

        State updates (interval tail, busy time, service count) match the
        scalar path's, so subsequent ``service`` calls see the same bank.
        Not used on the simulated per-request path: the closed form
        associates float additions differently than the scalar recurrence
        (last-ulp differences on long queue chains), and the bit-exact
        parity contract keeps the engine's resolution scalar.  Agreement
        is within float tolerance (``tests/test_vec_kernels.py``).

        Args:
            arrivals: sorted, non-negative arrival times (ns).
            durations: positive service times (ns), scalar or aligned array.

        Returns:
            ``(starts, completions)`` float64 arrays.

        Raises:
            ValueError: on empty/unsorted arrivals, negative times, or a
                burst arriving before the current busy tail.
        """
        import numpy as np
        arrivals = np.asarray(arrivals, dtype=np.float64)
        if arrivals.size == 0:
            raise ValueError("burst must contain at least one access")
        durations = np.broadcast_to(
            np.asarray(durations, dtype=np.float64), arrivals.shape)
        if np.any(arrivals[1:] < arrivals[:-1]):
            raise ValueError("burst arrivals must be sorted")
        if arrivals[0] < 0 or np.any(durations <= 0):
            raise ValueError("times must be non-negative, durations positive")
        intervals = self._intervals
        tail_end = intervals[-1][1] if intervals else 0.0
        if intervals and arrivals[0] < intervals[-1][0]:
            raise ValueError("burst must arrive at/after the busy tail")
        prefix = np.cumsum(durations)
        shifted = np.empty_like(prefix)
        shifted[0] = 0.0
        shifted[1:] = prefix[:-1]
        floor = np.maximum(arrivals, tail_end)
        completions = prefix + np.maximum.accumulate(floor - shifted)
        # Starts via one exact recurrence step, ``max(arrival, prev_end)``:
        # a queued access starts *exactly* at its predecessor's completion,
        # so genuine idle gaps — not last-ulp closed-form residue — decide
        # the span boundaries committed below.
        prev_end = np.empty_like(completions)
        prev_end[0] = tail_end
        prev_end[1:] = completions[:-1]
        starts = np.maximum(arrivals, prev_end)
        # Commit the burst's busy spans: a new span opens wherever an access
        # started strictly after its predecessor finished (idle gap).
        opens = np.flatnonzero(
            np.concatenate(([True], starts[1:] > prev_end[1:])))
        span_starts = starts[opens]
        span_ends = completions[
            np.concatenate((opens[1:] - 1, [len(starts) - 1]))]
        if intervals and span_starts[0] == tail_end:
            last_start, _ = intervals[-1]
            intervals[-1] = (last_start, float(span_ends[0]))
            span_starts, span_ends = span_starts[1:], span_ends[1:]
        intervals.extend(zip(span_starts.tolist(), span_ends.tolist()))
        self.busy_time_ns += float(durations.sum())
        self.services += len(arrivals)
        last_arrival = float(arrivals[-1])
        if last_arrival > self._latest_arrival:
            self._latest_arrival = last_arrival
        if len(intervals) >= 4096:
            self._maybe_prune()
        return starts, completions

    def _find_slot(self, arrival: float, duration: float) -> float:
        intervals = self._intervals
        # First interval whose end is after the arrival can conflict.
        idx = bisect_left(intervals, (arrival, _NEG_INF))
        if idx > 0 and intervals[idx - 1][1] > arrival:
            idx -= 1
        candidate = arrival
        for start, end in intervals[idx:]:
            if candidate + duration <= start:
                break
            candidate = max(candidate, end)
        return candidate

    def _insert_interval(self, start: float, end: float) -> None:
        if end == start:
            return
        intervals = self._intervals
        idx = bisect_left(intervals, (start, end))
        # Merge with predecessor when contiguous.
        if idx > 0 and intervals[idx - 1][1] == start:
            prev_start, _ = intervals[idx - 1]
            # Merge with successor too, when contiguous on the other side.
            if idx < len(intervals) and intervals[idx][0] == end:
                succ_end = intervals[idx][1]
                intervals[idx - 1] = (prev_start, succ_end)
                del intervals[idx]
            else:
                intervals[idx - 1] = (prev_start, end)
            return
        if idx < len(intervals) and intervals[idx][0] == end:
            intervals[idx] = (start, intervals[idx][1])
            return
        intervals.insert(idx, (start, end))

    def _maybe_prune(self) -> None:
        # Drop intervals safely in the past; amortized via a size trigger.
        if len(self._intervals) < 4096:
            return
        cutoff = self._latest_arrival - self.prune_margin_ns
        idx = bisect_left(self._intervals, (cutoff, _NEG_INF))
        # Keep the interval straddling the cutoff.
        while idx > 0 and self._intervals[idx - 1][1] > cutoff:
            idx -= 1
        if idx:
            del self._intervals[:idx]

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def busy_until_ns(self) -> float:
        """End of the last scheduled interval (0 when never used)."""
        return self._intervals[-1][1] if self._intervals else 0.0

    def queue_delay(self, arrival_ns: float) -> float:
        """Wait a hypothetical zero-length access arriving now would see."""
        return max(0.0, self._find_slot(arrival_ns, 0.0) - arrival_ns)
