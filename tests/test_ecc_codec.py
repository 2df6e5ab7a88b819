"""Tests for the cache-line ECC codec and fingerprint engine."""

import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import UncorrectableError
from repro.common.types import CACHE_LINE_SIZE, ZERO_LINE
from repro.ecc.codec import (
    ECCFingerprintEngine,
    decode_line,
    line_ecc,
    line_ecc_bytes,
    line_ecc_uncached,
    verify_distinct,
    word_eccs,
)
from repro.ecc.faults import flip_bit
from repro.ecc.hamming import _encode_word_masks, encode_word

LINES = st.binary(min_size=CACHE_LINE_SIZE, max_size=CACHE_LINE_SIZE)


class TestLineECC:
    def test_zero_line(self):
        assert line_ecc(ZERO_LINE) == 0

    def test_size_check(self):
        with pytest.raises(ValueError):
            line_ecc(b"short")

    def test_concatenates_word_codes(self):
        data = bytes(range(64))
        words = struct.unpack("<8Q", data)
        expected = 0
        for i, w in enumerate(words):
            expected |= encode_word(w) << (8 * i)
        assert line_ecc(data) == expected

    def test_word_eccs_match(self):
        data = bytes(range(64))
        eccs = word_eccs(data)
        full = line_ecc(data)
        for i, e in enumerate(eccs):
            assert (full >> (8 * i)) & 0xFF == e

    def test_bytes_view(self):
        data = bytes(range(64))
        assert int.from_bytes(line_ecc_bytes(data), "little") == line_ecc(data)

    @given(LINES)
    @settings(max_examples=100)
    def test_deterministic(self, data):
        assert line_ecc(data) == line_ecc(data)

    @given(LINES, LINES)
    @settings(max_examples=100)
    def test_soundness(self, a, b):
        # Different ECC always proves different content.
        if line_ecc(a) != line_ecc(b):
            assert a != b


def _reference_line_ecc(data):
    """The line ECC from the mask-and-popcount word encoder."""
    ecc = 0
    for i, word in enumerate(struct.unpack("<8Q", data)):
        ecc |= _encode_word_masks(word) << (8 * i)
    return ecc


class TestLineEccKernel:
    """``line_ecc_uncached`` (eight byte-lane translates) against the
    mask-and-popcount reference encoder, word by word."""

    @given(LINES)
    @settings(max_examples=300)
    def test_matches_reference(self, data):
        assert line_ecc_uncached(data) == _reference_line_ecc(data)

    def test_zero_and_all_ones_lines(self):
        assert line_ecc_uncached(bytes(64)) == 0
        ones = b"\xff" * 64
        assert line_ecc_uncached(ones) == _reference_line_ecc(ones)

    def test_every_single_bit_line(self):
        for bit in range(8 * CACHE_LINE_SIZE):
            data = flip_bit(bytes(64), bit)
            assert line_ecc_uncached(data) == _reference_line_ecc(data)

    @given(LINES)
    @settings(max_examples=50)
    def test_bytearray_gives_same_value(self, data):
        assert line_ecc_uncached(bytearray(data)) == line_ecc_uncached(data)

    @pytest.mark.parametrize("data,message", [
        (bytes(63), "cache line must be 64 bytes, got 63"),
        (bytes(65), "cache line must be 64 bytes, got 65"),
        ("x" * 64, "cache line must be bytes, got str"),
        (None, "cache line must be bytes, got NoneType"),
    ], ids=["63-bytes", "65-bytes", "str", "None"])
    def test_bad_input_messages(self, data, message):
        with pytest.raises(ValueError) as err:
            line_ecc_uncached(data)
        assert str(err.value) == message


class TestDecodeLine:
    def test_clean(self):
        data = bytes(range(64))
        r = decode_line(data, line_ecc(data))
        assert r.data == data
        assert not r.corrected

    def test_single_bit_per_word_corrected(self):
        data = bytes(range(64))
        ecc = line_ecc(data)
        for word in range(8):
            corrupted = flip_bit(data, word * 64 + 13)
            r = decode_line(corrupted, ecc)
            assert r.data == data
            assert r.corrected_words == (word,)

    def test_one_bit_in_every_word_corrected(self):
        data = bytes(range(64))
        ecc = line_ecc(data)
        corrupted = data
        for word in range(8):
            corrupted = flip_bit(corrupted, word * 64 + word)
        r = decode_line(corrupted, ecc)
        assert r.data == data
        assert r.corrected_words == tuple(range(8))

    def test_double_bit_same_word_detected(self):
        data = bytes(range(64))
        ecc = line_ecc(data)
        corrupted = flip_bit(flip_bit(data, 128), 130)
        with pytest.raises(UncorrectableError) as exc:
            decode_line(corrupted, ecc)
        assert exc.value.word_index == 2

    def test_ecc_range_check(self):
        with pytest.raises(ValueError):
            decode_line(bytes(64), 1 << 64)


class TestFingerprintEngine:
    def test_protocol_fields(self):
        engine = ECCFingerprintEngine()
        assert engine.name == "ecc"
        assert engine.bits == 64
        assert engine.fingerprint_size_bytes() == 8

    def test_zero_marginal_cost(self):
        # The property ESD exploits: the ECC already exists.
        engine = ECCFingerprintEngine()
        assert engine.latency_ns == 0.0
        assert engine.energy_nj == 0.0

    def test_fingerprint_matches_line_ecc(self):
        data = bytes(range(64))
        assert ECCFingerprintEngine().fingerprint(data) == line_ecc(data)


class TestVerifyDistinct:
    def test_identical_lines(self):
        assert not verify_distinct(ZERO_LINE, ZERO_LINE)

    def test_obviously_different(self):
        other = b"\xff" * 64
        assert verify_distinct(ZERO_LINE, other)
