"""Tests for bank-level earliest-fit scheduling and the row buffer."""

import random
from bisect import bisect_left

import pytest

from repro.nvmm.bank import Bank, BankService
from repro.nvmm.controller import MemoryController


class TestBasicService:
    def test_idle_bank_serves_immediately(self):
        bank = Bank(index=0)
        s = bank.service(100.0, 75.0)
        assert s.start_ns == 100.0
        assert s.completion_ns == 175.0
        assert s.latency_ns == 75.0
        assert s.queue_delay_ns == 0.0

    def test_busy_bank_queues(self):
        bank = Bank(index=0)
        bank.service(0.0, 150.0)
        s = bank.service(50.0, 75.0)
        assert s.start_ns == 150.0
        assert s.queue_delay_ns == 100.0

    def test_busy_time_accumulates(self):
        bank = Bank(index=0)
        bank.service(0.0, 150.0)
        bank.service(0.0, 75.0)
        assert bank.busy_time_ns == 225.0
        assert bank.services == 2

    def test_negative_times_rejected(self):
        bank = Bank(index=0)
        with pytest.raises(ValueError):
            bank.service(-1.0, 10.0)
        with pytest.raises(ValueError):
            bank.service(0.0, -1.0)


class TestEarliestFit:
    def test_gap_filling(self):
        """An access arriving before a future-scheduled op fills the gap."""
        bank = Bank(index=0)
        # An op scheduled far in the future (delayed request chain).
        bank.service(1000.0, 150.0)
        # An earlier-arriving op processed later must NOT queue behind it.
        s = bank.service(100.0, 75.0)
        assert s.start_ns == 100.0
        assert s.completion_ns == 175.0

    def test_gap_too_small(self):
        bank = Bank(index=0)
        bank.service(0.0, 100.0)       # [0, 100)
        bank.service(150.0, 100.0)     # [150, 250)
        # Needs 75ns starting at 90: gap [100,150) is only 50ns -> goes after.
        s = bank.service(90.0, 75.0)
        assert s.start_ns == 250.0

    def test_exact_fit_gap(self):
        bank = Bank(index=0)
        bank.service(0.0, 100.0)       # [0, 100)
        bank.service(200.0, 100.0)     # [200, 300)
        s = bank.service(100.0, 100.0)  # exactly fills [100, 200)
        assert s.start_ns == 100.0
        assert s.completion_ns == 200.0

    def test_busy_until_tracks_last_interval(self):
        bank = Bank(index=0)
        bank.service(0.0, 50.0)
        bank.service(500.0, 50.0)
        assert bank.busy_until_ns == 550.0

    def test_queue_delay_probe(self):
        bank = Bank(index=0)
        bank.service(0.0, 100.0)
        assert bank.queue_delay(50.0) == 50.0
        assert bank.queue_delay(200.0) == 0.0

    def test_no_overlapping_intervals(self):
        bank = Bank(index=0)
        services = []
        import random
        rnd = random.Random(5)
        for _ in range(300):
            services.append(bank.service(rnd.uniform(0, 1000),
                                         rnd.choice([15.0, 75.0, 150.0])))
        spans = sorted((s.start_ns, s.completion_ns) for s in services)
        for (s1, e1), (s2, e2) in zip(spans, spans[1:]):
            assert e1 <= s2 + 1e-9  # non-overlapping

    def test_pruning_keeps_scheduling_correct(self):
        bank = Bank(index=0, prune_margin_ns=10_000.0)
        t = 0.0
        for i in range(10_000):
            s = bank.service(t, 10.0)
            t = s.completion_ns
        # Internal interval list stays bounded.
        assert len(bank._intervals) < 9_000


class TestRowBuffer:
    """The banks' open-row buffer, driven through the controller."""

    @staticmethod
    def _row_line(controller, row, bank=0):
        """A data line on ``bank`` inside row ``row``."""
        size = controller.config.row_size_lines
        return next(line for line in range(row * size, (row + 1) * size)
                    if line % controller.config.num_banks == bank)

    def test_first_access_misses(self):
        controller = MemoryController()
        _, service = controller.read(self._row_line(controller, 1), 0.0)
        bank = controller.banks[0]
        assert (bank.row_hits, bank.row_misses) == (0, 1)
        assert service.latency_ns == controller.config.read_latency_ns

    def test_repeat_access_hits(self):
        controller = MemoryController()
        line = self._row_line(controller, 1)
        controller.read(line, 0.0)
        _, service = controller.read(line, 1000.0)
        assert controller.banks[0].row_hits == 1
        assert (service.latency_ns
                == controller.config.row_hit_read_latency_ns)

    def test_conflicting_row_replaces(self):
        controller = MemoryController()
        one, two = (self._row_line(controller, row) for row in (1, 2))
        controller.read(one, 0.0)
        controller.read(two, 1000.0)
        _, service = controller.read(one, 2000.0)  # evicted earlier
        assert service.latency_ns == controller.config.read_latency_ns
        assert controller.banks[0].row_misses == 3

    def test_metadata_and_data_rows_distinct(self):
        controller = MemoryController()
        banks = controller.config.num_banks
        # A metadata key whose row number (key >> 3) and bank match a
        # data line's: the two rows still never alias.
        key = next(k for k in range(1 << 16)
                   if (k * 2654435761 >> 8) % banks == 0)
        line = self._row_line(controller, key >> 3)
        controller.read(line, 0.0)
        service = controller.metadata_read(key, 1000.0)
        assert service.latency_ns == controller.config.read_latency_ns
        assert controller.banks[0].row_misses == 2


def insert_interval(intervals, start, end):
    """The reference insert: bisect, then merge with contiguous
    neighbours (the form ``Bank.service`` inlines)."""
    if end == start:
        return
    idx = bisect_left(intervals, (start, end))
    # Merge with predecessor when contiguous.
    if idx > 0 and intervals[idx - 1][1] == start:
        prev_start, _ = intervals[idx - 1]
        # Merge with successor too, when contiguous on the other side.
        if idx < len(intervals) and intervals[idx][0] == end:
            intervals[idx - 1] = (prev_start, intervals[idx][1])
            del intervals[idx]
        else:
            intervals[idx - 1] = (prev_start, end)
        return
    if idx < len(intervals) and intervals[idx][0] == end:
        intervals[idx] = (start, intervals[idx][1])
        return
    intervals.insert(idx, (start, end))


def reference_service(bank, arrival, duration):
    """One access the reference way: ``Bank._find_slot``, then
    :func:`insert_interval`, then the same bookkeeping and prune."""
    if arrival > bank._latest_arrival:
        bank._latest_arrival = arrival
    start = bank._find_slot(arrival, duration)
    end = start + duration
    insert_interval(bank._intervals, start, end)
    bank.busy_time_ns += duration
    bank.services += 1
    if len(bank._intervals) >= 4096:
        bank._prune()
    return BankService(bank=bank.index, arrival_ns=arrival, start_ns=start,
                       completion_ns=end)


def _serve_both(ref, fast, arrival, duration):
    """One access on a reference-driven bank and through ``service``."""
    want = reference_service(ref, arrival, duration)
    got = fast.service(arrival, duration)
    assert got == want
    return want


def _assert_same_state(ref, fast):
    assert fast._intervals == ref._intervals
    assert fast.busy_time_ns == ref.busy_time_ns
    assert fast.services == ref.services
    assert fast._latest_arrival == ref._latest_arrival


def _behind_tail_access(rng, intervals):
    """An (arrival, duration) pair aimed 0-40 intervals behind the tail.

    Times are whole nanoseconds so that sums are exact and gap-filling,
    exact-fit and merge cases occur by construction.
    """
    if not intervals:
        return float(rng.randrange(0, 500)), float(rng.choice([0, 15, 75]))
    j = max(0, len(intervals) - 1 - rng.randrange(0, 41))
    start, end = intervals[j]
    gap_end = intervals[j + 1][0] if j + 1 < len(intervals) else end + 400.0
    gap = gap_end - end
    kind = rng.randrange(7)
    if kind == 0:    # inside a busy interval
        return float(rng.randrange(int(start), int(end))), 75.0
    if kind == 1:    # zero-duration, exactly at a busy start or end
        return rng.choice([start, end]), 0.0
    if kind == 2 and gap > 0:    # exact fit: merges both neighbours
        return end, gap
    if kind == 3 and gap > 1:    # merges with the predecessor only
        return end, float(rng.randrange(1, int(gap)))
    if kind == 4 and gap > 1:    # merges with the successor only
        d = float(rng.randrange(1, int(gap)))
        return gap_end - d, d
    if kind == 5:    # in the gap before this interval
        return max(0.0, start - float(rng.randrange(1, 200))), 15.0
    # Past the tail, like in-order traffic.
    return intervals[-1][1] + float(rng.randrange(0, 300)), 150.0


class TestFastPathMatchesReference:
    """``Bank.service``'s tail append and inlined out-of-order placement
    against :func:`reference_service` (``_find_slot`` plus
    :func:`insert_interval`)."""

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_random_streams_behind_the_tail(self, seed):
        rng = random.Random(seed)
        ref, fast = Bank(index=0), Bank(index=0)
        behind = 0
        for _ in range(3000):
            arrival, duration = _behind_tail_access(rng, ref._intervals)
            if ref._intervals and arrival < ref._intervals[-1][0]:
                behind += 1
            _serve_both(ref, fast, arrival, duration)
        _assert_same_state(ref, fast)
        assert behind > 1000

    def test_stream_crossing_the_prune(self):
        rng = random.Random(11)
        ref = Bank(index=0, prune_margin_ns=50_000.0)
        fast = Bank(index=0, prune_margin_ns=50_000.0)
        pruned_at = []
        for step in range(12_000):
            if rng.random() < 0.5 or not ref._intervals:
                # In-order access after an idle gap: one new interval.
                arrival = (ref._intervals[-1][1] if ref._intervals else 0.0)
                arrival += float(rng.randrange(1, 40))
                duration = 10.0
            else:
                arrival, duration = _behind_tail_access(rng, ref._intervals)
            before = len(ref._intervals)
            _serve_both(ref, fast, arrival, duration)
            # One access adds at most one interval or merges away one; a
            # larger drop is the prune at 4,096 intervals.
            if len(ref._intervals) < before - 1:
                pruned_at.append(step)
            _assert_same_state(ref, fast)
        # Pruned, and then served thousands more accesses.
        assert pruned_at and pruned_at[0] < 9_000

    @pytest.mark.parametrize("arrival, duration, expected", [
        # Exact fit into [100, 200): merges with both neighbours.
        (100.0, 100.0, [(0.0, 300.0), (400.0, 500.0)]),
        # Starts at the predecessor's end, stops short of the successor.
        (100.0, 50.0, [(0.0, 150.0), (200.0, 300.0), (400.0, 500.0)]),
        # Ends at the successor's start.
        (150.0, 50.0, [(0.0, 100.0), (150.0, 300.0), (400.0, 500.0)]),
        # Arrives inside a busy interval: queued to the next gap that fits.
        (50.0, 100.0, [(0.0, 300.0), (400.0, 500.0)]),
        # Zero duration at a busy start fits before it; nothing is added.
        (200.0, 0.0, [(0.0, 100.0), (200.0, 300.0), (400.0, 500.0)]),
    ])
    def test_out_of_order_merge_rules(self, arrival, duration, expected):
        for serve in (Bank.service, reference_service):
            bank = Bank(index=0)
            for start in (0.0, 200.0, 400.0):
                serve(bank, start, 100.0)
            serve(bank, arrival, duration)
            assert bank._intervals == expected
            assert bank.services == 4
