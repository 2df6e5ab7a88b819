"""Tests for counter-mode encryption (CME)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.types import CACHE_LINE_SIZE, ZERO_LINE
from repro.crypto.counter_mode import (
    CounterModeEngine,
    CounterTable,
    EncryptedLine,
    _derive_pad_uncached,
    demonstrate_diffusion,
)
from repro.perf import memo

LINES = st.binary(min_size=CACHE_LINE_SIZE, max_size=CACHE_LINE_SIZE)


class TestCounterTable:
    def test_starts_at_zero(self):
        assert CounterTable().current(5) == 0

    def test_advance(self):
        t = CounterTable()
        assert t.advance(5) == 1
        assert t.advance(5) == 2
        assert t.current(5) == 2
        assert t.current(6) == 0

    def test_overflow_guard(self):
        t = CounterTable(width_bits=2)
        t.advance(0)
        t.advance(0)
        t.advance(0)
        with pytest.raises(OverflowError):
            t.advance(0)


class TestEncryptDecrypt:
    def test_roundtrip(self):
        engine = CounterModeEngine()
        plaintext = bytes(range(64))
        enc = engine.encrypt(plaintext, 10)
        assert engine.decrypt(enc) == plaintext

    def test_decrypt_at_uses_current_counter(self):
        engine = CounterModeEngine()
        plaintext = bytes(range(64))
        enc = engine.encrypt(plaintext, 3)
        assert engine.decrypt_at(enc.ciphertext, 3) == plaintext

    def test_ciphertext_differs_from_plaintext(self):
        engine = CounterModeEngine()
        enc = engine.encrypt(ZERO_LINE, 0)
        assert enc.ciphertext != ZERO_LINE

    def test_counter_advances_per_write(self):
        engine = CounterModeEngine()
        a = engine.encrypt(ZERO_LINE, 7)
        b = engine.encrypt(ZERO_LINE, 7)
        assert a.counter == 1 and b.counter == 2
        # Re-encrypting the same data at the same address gives fresh
        # ciphertext (counter-mode freshness).
        assert a.ciphertext != b.ciphertext

    def test_key_length_check(self):
        with pytest.raises(ValueError):
            CounterModeEngine(key=b"short")

    def test_negative_line_rejected(self):
        with pytest.raises(ValueError):
            CounterModeEngine().encrypt(ZERO_LINE, -1)

    def test_wrong_size_ciphertext_rejected(self):
        engine = CounterModeEngine()
        with pytest.raises(ValueError):
            engine.decrypt(EncryptedLine(ciphertext=b"x", line_number=0,
                                         counter=1))

    @given(LINES, st.integers(min_value=0, max_value=1_000_000))
    @settings(max_examples=60)
    def test_roundtrip_property(self, plaintext, line):
        engine = CounterModeEngine()
        assert engine.decrypt(engine.encrypt(plaintext, line)) == plaintext


class TestDiffusion:
    """The property that rules out deduplication-after-encryption."""

    def test_same_plaintext_different_addresses(self):
        engine = CounterModeEngine()
        ct_a, ct_b = demonstrate_diffusion(engine, bytes(range(64)), 1, 2)
        assert ct_a != ct_b

    def test_different_keys_different_ciphertexts(self):
        pt = bytes(range(64))
        a = CounterModeEngine(key=b"A" * 32).encrypt(pt, 0).ciphertext
        b = CounterModeEngine(key=b"B" * 32).encrypt(pt, 0).ciphertext
        assert a != b


class TestCostAccounting:
    def test_counts_and_energy(self):
        engine = CounterModeEngine()
        engine.encrypt(ZERO_LINE, 0)
        engine.encrypt(ZERO_LINE, 1)
        engine.decrypt_at(b"\x00" * 64, 0)
        assert engine.encrypt_count == 2
        assert engine.decrypt_count == 1
        expected = (2 * engine.encrypt_energy_nj + engine.decrypt_energy_nj)
        assert engine.total_crypto_energy_nj() == pytest.approx(expected)

    def test_latency_accessors_positive(self):
        engine = CounterModeEngine()
        assert engine.encrypt_latency_ns > 0
        assert engine.decrypt_latency_ns > 0


class TestPinnedPads:
    """Pad bytes and pad-memo accounting, pinned from the loop-built
    derivation and the ``MemoCache.get``/``put`` encrypt path."""

    @pytest.mark.parametrize("key, line, counter, pad_hex", [
        (b"\x13" * 32, 0, 1,
         "e8682a85402e0a45c259669143de043f967c58ac4eacbbfbbf8040515f739d31"
         "f9ffff71e71ca68b688d0e477a1d241a96455fb413441e8602b896467d41e749"),
        (bytes(range(16)), 12345, 7,
         "768626dc56ac44594bad8491a5f4e859c1ddf1a761b288a2ead9cf20b2c4c7b3"
         "699596d13355b70ac8d9728449a7e77a7877781439924c70627be11a2cd3bfde"),
        (b"k" * 24, (1 << 40) - 1, (1 << 63) + 5,
         "e34a5d5a2848f5f18cb9f1739e03807f6dc8b3ccde5277b338939d32897e4948"
         "fec2ca58c4d9a6406a2ab627c0c897aa08f66f2ab0f9892eca29df078af10fed"),
    ])
    def test_derive_pad_bytes(self, key, line, counter, pad_hex):
        assert _derive_pad_uncached(key, line, counter).hex() == pad_hex

    @staticmethod
    def _encrypt_decrypt_reencrypt():
        engine = CounterModeEngine()
        lines = [bytes([i]) * 64 for i in range(4)]
        first = [engine.encrypt(lines[i], 10 + i) for i in range(4)]
        for i in range(4):
            assert engine.decrypt_at(first[i].ciphertext, 10 + i) == lines[i]
        assert engine.decrypt(first[0]) == lines[0]
        again = [engine.encrypt(lines[i], 10 + i) for i in range(2)]
        for i in range(2):
            assert engine.decrypt_at(again[i].ciphertext, 10 + i) == lines[i]
        assert engine.decrypt(first[1]) == lines[1]
        # A second engine with the same key re-mints cached pads: the
        # encrypt side's hits.
        other = CounterModeEngine()
        for i in (3, 0):
            assert other.encrypt(lines[i], 10 + i) == first[i]

    @pytest.mark.parametrize("capacity, stats, recency", [
        (None, {"hits": 10, "misses": 6, "evictions": 0, "size": 6},
         [(12, 1), (10, 2), (11, 2), (11, 1), (13, 1), (10, 1)]),
        (3, {"hits": 2, "misses": 14, "evictions": 11, "size": 3},
         [(11, 1), (13, 1), (10, 1)]),
    ])
    def test_counter_pad_counts(self, capacity, stats, recency):
        cache = memo.get_cache("counter_pad", 1)
        saved = cache.capacity
        if capacity is not None:
            cache.capacity = capacity
        try:
            memo.reset_all()
            self._encrypt_decrypt_reencrypt()
            assert cache.stats() == stats
            assert [key[1:] for key in cache._data] == recency
        finally:
            cache.capacity = saved
            memo.reset_all()
