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
from typing import List, NamedTuple, Optional, Tuple

_NEG_INF = float("-inf")
_new_tuple = tuple.__new__


class BankService(NamedTuple):
    """Record of one scheduled bank access.

    A ``NamedTuple`` rather than a dataclass: one is built per bank access.
    Its generated ``__new__`` is a Python function, so :meth:`Bank.service`
    builds it with ``tuple.__new__`` (DESIGN.md §8).
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
        self.open_row: Optional[int] = None
        self.row_hits = 0
        self.row_misses = 0

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
            # the tail of a saturated bank: ``_find_slot``'s earliest fit
            # inlined, walking the intervals by index instead of copying
            # the suffix, then a sorted insert that merges contiguous
            # neighbours (``tests/test_nvmm_bank.py`` keeps the
            # bisect-and-merge reference these steps are checked
            # against).
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
            # where a bisection for ``(start, end)`` would land.
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
            self._prune()
        return _new_tuple(BankService,
                          (self.index, arrival_ns, start, end))

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

    def _prune(self) -> None:
        # Drop intervals safely in the past; service() calls this once the
        # interval list reaches 4096 entries, amortizing the scan.
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
