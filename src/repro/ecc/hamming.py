"""SEC-DED Hamming(72,64) codec for 64-bit words.

The paper's ECC granularity is *per word*: each 8-byte (64-bit) word of a
cache line is protected by an 8-bit ECC, and the eight per-word codes
concatenate into the 64-bit line fingerprint ESD reuses for similarity
identification.

This module implements the classic extended Hamming code: a Hamming(71,64)
single-error-correcting code (7 check bits over codeword positions 1..71,
check bits at power-of-two positions) plus one overall parity bit, yielding
single-error correction and double-error detection (SEC-DED).

The encoder is a linear map: check bit *j* is the parity of the data bits
whose codeword positions have bit *j* set.  We precompute one 64-bit mask per
check bit so encoding a word is seven AND+popcount operations, fast enough to
fingerprint millions of cache lines per simulation run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from ..common.errors import UncorrectableError

#: Number of check bits of the inner Hamming(71,64) code.
NUM_CHECK_BITS = 7

#: Codeword length of the inner code (64 data + 7 check positions).
CODEWORD_LEN = 71

#: Width of the full per-word ECC (7 Hamming checks + 1 overall parity).
ECC_BITS = 8


def _parity(x: int) -> int:
    """Parity (popcount mod 2) of a non-negative integer."""
    return x.bit_count() & 1


def _build_layout() -> Tuple[List[int], List[int]]:
    """Compute the codeword layout of Hamming(71,64).

    Returns:
        ``(data_positions, check_masks)`` where ``data_positions[i]`` is the
        1-based codeword position of data bit *i*, and ``check_masks[j]`` is
        the 64-bit mask of data bits covered by check bit *j* (the check bit
        at codeword position ``2**j``).
    """
    data_positions: List[int] = []
    pos = 1
    while len(data_positions) < 64:
        if pos & (pos - 1) != 0:  # not a power of two -> data position
            data_positions.append(pos)
        pos += 1
    if data_positions[-1] > CODEWORD_LEN:
        raise AssertionError("layout exceeded codeword length")

    check_masks = [0] * NUM_CHECK_BITS
    for data_bit, position in enumerate(data_positions):
        for j in range(NUM_CHECK_BITS):
            if position & (1 << j):
                check_masks[j] |= 1 << data_bit
    return data_positions, check_masks


_DATA_POSITIONS, _CHECK_MASKS = _build_layout()

#: Map 1-based codeword position -> data bit index (or -1 for check bits).
_POSITION_TO_DATA_BIT = [-1] * (CODEWORD_LEN + 1)
for _i, _p in enumerate(_DATA_POSITIONS):
    _POSITION_TO_DATA_BIT[_p] = _i


def _encode_word_masks(word: int) -> int:
    """Reference encoder: compute the ECC byte directly from parity masks.

    Builds the fast encoder's tables and is the reference the parity
    tests compare :func:`encode_word` against.
    """
    ecc = 0
    checks_parity = 0
    for j in range(NUM_CHECK_BITS):
        bit = _parity(word & _CHECK_MASKS[j])
        ecc |= bit << j
        checks_parity ^= bit
    overall = _parity(word) ^ checks_parity
    ecc |= overall << NUM_CHECK_BITS
    return ecc


def _build_encode_tables() -> Tuple[Tuple[int, ...], ...]:
    """Per-byte contribution tables for the fast encoder.

    The ECC byte is a GF(2)-linear function of the data word, so it
    decomposes exactly into the XOR of eight per-byte contributions:
    ``ecc(w) = T[0][b0] ^ T[1][b1] ^ ... ^ T[7][b7]``.
    """
    tables = []
    for byte_index in range(8):
        tables.append(tuple(
            _encode_word_masks(value << (8 * byte_index))
            for value in range(256)))
    return tuple(tables)


_ENCODE_TABLES = _build_encode_tables()

#: Parity (popcount mod 2) of every byte value; with the ECC byte in hand,
#: a syndrome needs only byte-sized parities, so one 256-entry table
#: replaces the seven mask-AND-popcount passes of the reference decoder.
_BYTE_PARITY = bytes(_parity(value) for value in range(256))

_CHECK_BITS_MASK = (1 << NUM_CHECK_BITS) - 1


def encode_word(word: int) -> int:
    """Compute the 8-bit SEC-DED ECC of a 64-bit word.

    Bit layout of the returned byte: bits 0..6 are the Hamming check bits
    (for codeword positions 1, 2, 4, ..., 64); bit 7 is the overall parity
    of the 71-bit inner codeword (data bits plus check bits).

    Args:
        word: the data word, ``0 <= word < 2**64``.

    Returns:
        The ECC byte, ``0 <= ecc < 256``.
    """
    if not 0 <= word < (1 << 64):
        raise ValueError("word must be a 64-bit unsigned integer")
    t = _ENCODE_TABLES
    return (t[0][word & 0xFF]
            ^ t[1][(word >> 8) & 0xFF]
            ^ t[2][(word >> 16) & 0xFF]
            ^ t[3][(word >> 24) & 0xFF]
            ^ t[4][(word >> 32) & 0xFF]
            ^ t[5][(word >> 40) & 0xFF]
            ^ t[6][(word >> 48) & 0xFF]
            ^ t[7][(word >> 56) & 0xFF])


def syndrome(word: int, ecc: int) -> Tuple[int, int]:
    """Compute the decoding syndrome for a received (word, ecc) pair.

    Returns:
        ``(position_syndrome, parity_syndrome)``.  ``position_syndrome`` is
        the XOR of stored and recomputed check bits — under a single-bit
        error it equals the 1-based codeword position of the flipped bit.
        ``parity_syndrome`` is the overall parity of the *received* 72-bit
        codeword (data word, stored check bits, stored parity bit); it is 0
        for an intact codeword, flips to 1 under any single-bit error, and
        returns to 0 under a double-bit error — which is exactly how SEC-DED
        distinguishes the two cases.

    Table-driven (byte-indexed encode + parity lookups); bit-identical to
    the mask-and-popcount :func:`syndrome_reference`.
    """
    if not 0 <= ecc < (1 << ECC_BITS):
        raise ValueError("ecc must be an 8-bit value")
    if not 0 <= word < (1 << 64):
        raise ValueError("word must be a 64-bit unsigned integer")
    # Table-driven: re-encoding the word yields the recomputed check bits
    # (bits 0..6) and, in bit 7, parity(word) XOR parity(check bits) — so
    # parity(word) folds out of the encode byte with one byte-parity lookup
    # instead of a 64-bit popcount.
    t = _ENCODE_TABLES
    encoded = (t[0][word & 0xFF]
               ^ t[1][(word >> 8) & 0xFF]
               ^ t[2][(word >> 16) & 0xFF]
               ^ t[3][(word >> 24) & 0xFF]
               ^ t[4][(word >> 32) & 0xFF]
               ^ t[5][(word >> 40) & 0xFF]
               ^ t[6][(word >> 48) & 0xFF]
               ^ t[7][(word >> 56) & 0xFF])
    recomputed_checks = encoded & _CHECK_BITS_MASK
    stored_checks = ecc & _CHECK_BITS_MASK
    stored_overall = (ecc >> NUM_CHECK_BITS) & 1
    position_syndrome = recomputed_checks ^ stored_checks
    word_parity = ((encoded >> NUM_CHECK_BITS)
                   ^ _BYTE_PARITY[recomputed_checks]) & 1
    parity_syndrome = (word_parity ^ _BYTE_PARITY[stored_checks]
                       ^ stored_overall)
    return position_syndrome, parity_syndrome


def syndrome_reference(word: int, ecc: int) -> Tuple[int, int]:
    """Mask-and-popcount reference syndrome (kept for parity tests).

    Computes the syndrome directly from the seven coverage masks; the
    table-driven :func:`syndrome` must agree with it bit-for-bit on every
    input.
    """
    if not 0 <= ecc < (1 << ECC_BITS):
        raise ValueError("ecc must be an 8-bit value")
    if not 0 <= word < (1 << 64):
        raise ValueError("word must be a 64-bit unsigned integer")
    stored_checks = ecc & _CHECK_BITS_MASK
    stored_overall = (ecc >> NUM_CHECK_BITS) & 1
    recomputed_checks = 0
    for j in range(NUM_CHECK_BITS):
        recomputed_checks |= _parity(word & _CHECK_MASKS[j]) << j
    position_syndrome = recomputed_checks ^ stored_checks
    parity_syndrome = _parity(word) ^ _parity(stored_checks) ^ stored_overall
    return position_syndrome, parity_syndrome


@dataclass(frozen=True)
class DecodeResult:
    """Outcome of decoding one protected word."""

    word: int
    corrected: bool
    #: 1-based codeword position of the corrected bit (0 when no correction;
    #: power-of-two positions denote a flipped *check* bit, which leaves the
    #: data word untouched).
    corrected_position: int = 0


def decode_word(word: int, ecc: int) -> DecodeResult:
    """Decode a received 64-bit word against its stored 8-bit ECC.

    Corrects any single-bit error (in the data word or in the check bits)
    and detects double-bit errors.

    Raises:
        UncorrectableError: when the syndrome indicates a double-bit error
            or an invalid (out-of-range) error position.
    """
    pos, parity_bit = syndrome(word, ecc)
    if pos == 0 and parity_bit == 0:
        return DecodeResult(word=word, corrected=False)
    if pos == 0 and parity_bit == 1:
        # The overall parity bit itself flipped; data is intact.
        return DecodeResult(word=word, corrected=True, corrected_position=0)
    if parity_bit == 0:
        # Nonzero position syndrome with even parity => two bits flipped.
        raise UncorrectableError("double-bit error detected")
    if pos > CODEWORD_LEN:
        raise UncorrectableError(f"invalid error position {pos}")
    data_bit = _POSITION_TO_DATA_BIT[pos]
    if data_bit < 0:
        # A check bit flipped; the data word is intact.
        return DecodeResult(word=word, corrected=True, corrected_position=pos)
    return DecodeResult(word=word ^ (1 << data_bit), corrected=True,
                        corrected_position=pos)


def check_masks() -> Tuple[int, ...]:
    """The seven 64-bit coverage masks (exposed for tests/analysis)."""
    return tuple(_CHECK_MASKS)


def data_positions() -> Tuple[int, ...]:
    """1-based codeword positions of the 64 data bits (for tests/analysis)."""
    return tuple(_DATA_POSITIONS)
