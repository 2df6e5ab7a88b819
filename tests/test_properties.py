"""Property-based tests (hypothesis) on core data structures and invariants."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.common.types import CACHE_LINE_SIZE, AccessType, MemoryRequest
from repro.core.lrcu import LRCUCache
from repro.crypto.counter_mode import CounterModeEngine
from repro.ecc.codec import decode_line, line_ecc
from repro.ecc.faults import flip_bits
from repro.nvmm.allocator import FrameAllocator
from repro.nvmm.bank import Bank
from repro.registry import make_scheme
from repro.workloads.trace import roundtrip_bytes

LINES = st.binary(min_size=CACHE_LINE_SIZE, max_size=CACHE_LINE_SIZE)


class TestECCProperties:
    @given(LINES, st.sets(st.integers(0, 7), min_size=1, max_size=8),
           st.data())
    @settings(max_examples=80)
    def test_one_flip_per_word_always_recovers(self, line, words, data):
        bits = [w * 64 + data.draw(st.integers(0, 63), label=f"bit{w}")
                for w in sorted(words)]
        ecc = line_ecc(line)
        corrupted = flip_bits(line, bits)
        result = decode_line(corrupted, ecc)
        assert result.data == line
        assert set(result.corrected_words) == words

    @given(LINES, LINES)
    @settings(max_examples=80)
    def test_equal_lines_equal_ecc(self, a, b):
        if a == b:
            assert line_ecc(a) == line_ecc(b)


class TestCounterModeProperties:
    @given(st.lists(st.tuples(LINES, st.integers(0, 63)),
                    min_size=1, max_size=20))
    @settings(max_examples=40)
    def test_interleaved_writes_always_decrypt(self, operations):
        engine = CounterModeEngine()
        latest = {}
        for plaintext, frame in operations:
            engine.encrypt(plaintext, frame)
            latest[frame] = plaintext
        for frame, plaintext in latest.items():
            # Re-derive ciphertext from the engine's device-facing view:
            # the last encrypt wrote with the current counter.
            enc = engine.encrypt(plaintext, frame)  # fresh write
            assert engine.decrypt_at(enc.ciphertext, frame) == plaintext


class TestLRCUProperties:
    @given(st.lists(st.tuples(st.integers(0, 40), st.booleans()),
                    min_size=1, max_size=300),
           st.integers(2, 16))
    @settings(max_examples=60, suppress_health_check=[HealthCheck.too_slow])
    def test_capacity_and_consistency(self, operations, capacity):
        cache = LRCUCache(capacity=capacity, decay_period=16)
        for key, should_touch in operations:
            if should_touch and key in cache:
                cache.touch(key)
            else:
                cache.put(key, key * 2)
            assert len(cache) <= capacity
        for key, value, count in cache.items():
            assert value == key * 2
            assert 1 <= count <= cache.max_count

    @given(st.lists(st.integers(0, 30), min_size=1, max_size=200))
    @settings(max_examples=60)
    def test_most_referenced_key_survives(self, keys):
        """A key touched on every step is never evicted under LRCU."""
        cache = LRCUCache(capacity=4, decay_period=0)
        cache.put("vip", 0)
        for key in keys:
            cache.touch("vip")
            if ("k", key) in cache:
                cache.touch(("k", key))
            else:
                cache.put(("k", key), key)
        assert "vip" in cache


class TestAllocatorProperties:
    @given(st.lists(st.booleans(), min_size=1, max_size=300))
    @settings(max_examples=60)
    def test_no_double_allocation(self, ops):
        alloc = FrameAllocator(32)
        live = set()
        for do_alloc in ops:
            if do_alloc and alloc.free_count:
                frame = alloc.allocate()
                assert frame not in live
                live.add(frame)
            elif live:
                frame = live.pop()
                alloc.free(frame)
        assert alloc.allocated_count == len(live)


class TestBankProperties:
    @given(st.lists(st.tuples(st.floats(0, 10_000), st.sampled_from(
        [15.0, 75.0, 150.0])), min_size=1, max_size=200))
    @settings(max_examples=60)
    def test_services_never_overlap_and_never_early(self, ops):
        bank = Bank(index=0)
        spans = []
        for arrival, duration in ops:
            s = bank.service(arrival, duration)
            assert s.start_ns >= arrival
            assert s.completion_ns == s.start_ns + duration
            spans.append((s.start_ns, s.completion_ns))
        spans.sort()
        for (s1, e1), (s2, e2) in zip(spans, spans[1:]):
            assert e1 <= s2 + 1e-6


class TestTraceProperties:
    @given(st.lists(st.tuples(st.integers(0, 1000), st.booleans(), LINES),
                    min_size=0, max_size=50))
    @settings(max_examples=40)
    def test_serialization_roundtrip(self, specs):
        requests = []
        for seq, (line, is_write, data) in enumerate(specs):
            if is_write:
                requests.append(MemoryRequest(
                    address=line * 64, access=AccessType.WRITE, data=data,
                    issue_time_ns=float(seq), seq=seq))
            else:
                requests.append(MemoryRequest(
                    address=line * 64, access=AccessType.READ,
                    issue_time_ns=float(seq), seq=seq))
        restored = roundtrip_bytes(requests)
        assert [(r.address, r.access, r.data) for r in requests] == \
               [(r.address, r.access, r.data) for r in restored]


class TestSchemeProperties:
    """Dedup safety as a property: random write/read interleavings."""

    @given(st.lists(st.tuples(st.integers(0, 15), st.integers(0, 5),
                              st.booleans()),
                    min_size=1, max_size=60))
    @settings(max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @pytest.mark.parametrize("scheme_name",
                             ["Dedup_SHA1", "DeWrite", "ESD"])
    def test_reads_always_return_last_write(self, scheme_name, ops):
        from repro.common import small_test_config
        scheme = make_scheme(scheme_name, small_test_config())
        contents = [bytes([i]) * CACHE_LINE_SIZE for i in range(6)]
        shadow = {}
        t = 0.0
        for line, content_idx, is_write in ops:
            t += 200.0
            addr = line * 64
            if is_write:
                data = contents[content_idx]
                scheme.handle_write(MemoryRequest(
                    address=addr, access=AccessType.WRITE, data=data,
                    issue_time_ns=t))
                shadow[addr] = data
            elif addr in shadow:
                result = scheme.handle_read(MemoryRequest(
                    address=addr, access=AccessType.READ, issue_time_ns=t))
                assert result.data == shadow[addr]
