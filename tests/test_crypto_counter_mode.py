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
    _xor_line_reference,
    demonstrate_diffusion,
)

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
    """Pad bytes, pinned from the loop-built derivation, and the pad
    store's accounting: one slot per line, holding the pad of the
    counter it was derived for."""

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
    def _encrypt_decrypt_reencrypt(capacity):
        engine, other = CounterModeEngine(), CounterModeEngine()
        if capacity is not None:
            engine.pad_cache.capacity = other.pad_cache.capacity = capacity
        lines = [bytes([i]) * 64 for i in range(4)]
        first = [engine.encrypt(lines[i], 10 + i) for i in range(4)]
        for i in range(4):
            assert engine.decrypt_at(first[i].ciphertext, 10 + i) == lines[i]
        assert engine.decrypt(first[0]) == lines[0]
        again = [engine.encrypt(lines[i], 10 + i) for i in range(2)]
        for i in range(2):
            assert engine.decrypt_at(again[i].ciphertext, 10 + i) == lines[i]
        assert engine.decrypt(first[1]) == lines[1]
        # A second engine with the same key mints the same ciphertexts
        # from its own cache: pads are never shared between engines.
        for i in (3, 0):
            assert other.encrypt(lines[i], 10 + i) == first[i]
        return engine, other

    @pytest.mark.parametrize("capacity, stats, recency", [
        (None,
         ({"hits": 7, "misses": 7, "evictions": 0, "size": 4},
          {"hits": 0, "misses": 2, "evictions": 0, "size": 2}),
         ([(12, 1), (13, 1), (10, 2), (11, 2)], [(13, 1), (10, 1)])),
        (3,
         ({"hits": 2, "misses": 12, "evictions": 7, "size": 3},
          {"hits": 0, "misses": 2, "evictions": 0, "size": 2}),
         ([(13, 1), (10, 2), (11, 2)], [(13, 1), (10, 1)])),
    ])
    def test_counter_pad_counts(self, capacity, stats, recency):
        """Re-encrypting lines 10 and 11 replaces their counter-1 slots,
        so decrypting ``first[1]`` afterwards derives its pad again (a
        miss) and leaves the line's newer slot in place.  At capacity 3
        a line already in the store re-encrypts without evicting."""
        engines = self._encrypt_decrypt_reencrypt(capacity)
        assert tuple(e.pad_cache.stats() for e in engines) == stats
        assert tuple([(line, slot[0]) for line, slot
                      in e.pad_cache._data.items()]
                     for e in engines) == recency


class _CountingKeyState:
    """Stands in for an engine's key hash state, counting pad derivations:
    each derivation continues two copies of the state, one per block."""

    def __init__(self, state):
        self._state = state
        self.copies = 0

    def copy(self):
        self.copies += 1
        return self._state.copy()


_PAD_OPS = st.lists(
    st.tuples(st.sampled_from(("encrypt", "decrypt_at", "decrypt")),
              st.integers(min_value=0, max_value=5),
              st.integers(min_value=0, max_value=7),
              LINES),
    max_size=60)


class TestPadStore:
    """The pad store against the uncached derivation, over random
    interleavings of encrypts and both decrypt forms on up to 6 lines."""

    @pytest.mark.parametrize("capacity", [3, None], ids=["cap3", "default"])
    @given(ops=_PAD_OPS)
    @settings(max_examples=80, deadline=None)
    def test_random_interleavings(self, capacity, ops):
        """Every decrypt returns its plaintext; a decrypt hits exactly
        when the line's slot holds the counter it decrypts under, and a
        decrypt never replaces a slot with an older counter's pad; every
        held pad is the derivation of its slot's counter; misses equal
        derivations; and the store holds at most one slot per line and
        at most its capacity."""
        engine = CounterModeEngine()
        if capacity is not None:
            engine.pad_cache.capacity = capacity
        key_state = engine._key_state = _CountingKeyState(engine._key_state)
        store = engine.pad_cache
        slots = store._data
        written = {}  # line -> [(EncryptedLine, plaintext), ...]
        touched = set()
        for op, line, pick, plaintext in ops:
            touched.add(line)
            history = written.get(line)
            before, hits = slots.get(line), store.hits
            if op == "encrypt" or (op == "decrypt" and not history):
                enc = engine.encrypt(plaintext, line)
                written.setdefault(line, []).append((enc, plaintext))
                counter = None
            elif op == "decrypt":
                enc, expected = history[pick % len(history)]
                assert engine.decrypt(enc) == expected
                counter = enc.counter
            elif history:
                enc, expected = history[-1]
                assert engine.decrypt_at(enc.ciphertext, line) == expected
                counter = enc.counter
            else:
                pad = _derive_pad_uncached(engine._key, line, 0)
                assert engine.decrypt_at(plaintext, line) \
                    == _xor_line_reference(plaintext, pad)
                counter = 0
            if counter is not None:
                hit = before is not None and before[0] == counter
                assert store.hits - hits == hit
                if before is not None:
                    assert slots[line][0] >= before[0]
            for held, (held_counter, pad) in slots.items():
                assert pad == int.from_bytes(
                    _derive_pad_uncached(engine._key, held, held_counter),
                    "little")
                assert held_counter <= engine.counters.current(held)
            assert len(slots) <= min(store.capacity, len(touched))
            assert store.misses == key_state.copies // 2
        assert store.hits + store.misses == len(ops)
