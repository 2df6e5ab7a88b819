"""Cache-line ECC: per-word SEC-DED codes concatenated into a 64-bit value.

A 64-byte cache line is protected word-by-word: each of the eight 8-byte
words carries an 8-bit SEC-DED ECC (:mod:`repro.ecc.hamming`), and the eight
ECC bytes concatenate into the line's 64-bit ECC — exactly the layout the
paper describes ("the 8-Byte word is matched with an 8-bit ECC ... a 64-Byte
cache line generates a 64-bit ECC").

ESD reuses this 64-bit value as a *free* fingerprint.  Because the code is a
deterministic function of the data, differing ECC values prove the lines
differ; equal ECC values imply similarity but not identity (the code is
linear with a 2^512 / 2^64 ratio of inputs to fingerprints), which is why
ESD confirms matches with a byte-by-byte comparison.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import List, Tuple

from ..common.errors import UncorrectableError
from ..common.types import CACHE_LINE_SIZE, WORDS_PER_LINE, validate_line
from . import hamming

_WORD_STRUCT = struct.Struct("<8Q")


#: The encoder's byte tables (``hamming._ENCODE_TABLES``) as
#: ``bytes.translate`` tables: entry *b* of ``_LANE<j>`` is the ECC byte
#: that value *b* contributes at byte *j* of a word.
(_LANE0, _LANE1, _LANE2, _LANE3,
 _LANE4, _LANE5, _LANE6, _LANE7) = (bytes(table)
                                    for table in hamming._ENCODE_TABLES)
_from_bytes = int.from_bytes


def line_ecc(data: bytes) -> int:
    """Compute the 64-bit ECC fingerprint of a 64-byte cache line.

    Word *i*'s 8-bit ECC occupies bits ``8*i .. 8*i+7`` of the result.
    Words are little-endian, so ``data[j::8]`` is byte *j* of every word
    in word order; translating it through byte *j*'s encoder table gives
    each word's byte-*j* contribution in that word's lane, and the code's
    per-byte linearity makes the line ECC the XOR of the eight lanes read
    as little-endian integers: eight C-level translates rather than 64
    table lookups in Python (timings in DESIGN.md §10).  ESD looks it up
    through its own memo cache (:meth:`repro.core.esd.ESDScheme._line_ecc`).
    """
    if data.__class__ is not bytes or len(data) != CACHE_LINE_SIZE:
        data = validate_line(data)
    return (_from_bytes(data[0::8].translate(_LANE0), "little")
            ^ _from_bytes(data[1::8].translate(_LANE1), "little")
            ^ _from_bytes(data[2::8].translate(_LANE2), "little")
            ^ _from_bytes(data[3::8].translate(_LANE3), "little")
            ^ _from_bytes(data[4::8].translate(_LANE4), "little")
            ^ _from_bytes(data[5::8].translate(_LANE5), "little")
            ^ _from_bytes(data[6::8].translate(_LANE6), "little")
            ^ _from_bytes(data[7::8].translate(_LANE7), "little"))


def line_ecc_bytes(data: bytes) -> bytes:
    """The line ECC as 8 little-endian bytes (one per protected word)."""
    return line_ecc(data).to_bytes(WORDS_PER_LINE, "little")


def word_eccs(data: bytes) -> Tuple[int, ...]:
    """Per-word 8-bit ECC values of a cache line."""
    return tuple(hamming.encode_word(w)
                 for w in _WORD_STRUCT.unpack(validate_line(data)))


@dataclass(frozen=True)
class LineDecodeResult:
    """Outcome of decoding a full cache line against its stored ECC."""

    data: bytes
    corrected_words: Tuple[int, ...]

    @property
    def corrected(self) -> bool:
        return bool(self.corrected_words)


def decode_line(data: bytes, ecc: int) -> LineDecodeResult:
    """Decode a 64-byte line against its stored 64-bit ECC.

    Corrects up to one flipped bit per 8-byte word.

    Raises:
        UncorrectableError: when any word exhibits a double-bit error; the
            exception's ``word_index`` names the failing word.
    """
    validate_line(data)
    if not 0 <= ecc < (1 << 64):
        raise ValueError("line ECC must be a 64-bit value")
    words = list(_WORD_STRUCT.unpack(data))
    corrected: List[int] = []
    for i in range(WORDS_PER_LINE):
        word_ecc = (ecc >> (8 * i)) & 0xFF
        try:
            result = hamming.decode_word(words[i], word_ecc)
        except UncorrectableError as exc:
            raise UncorrectableError(
                f"double-bit error in word {i}", word_index=i) from exc
        if result.corrected:
            corrected.append(i)
        words[i] = result.word
    return LineDecodeResult(data=_WORD_STRUCT.pack(*words),
                            corrected_words=tuple(corrected))


class ECCFingerprintEngine:
    """Fingerprint adapter exposing line ECC under the fingerprint interface.

    Unlike hash fingerprints, the ECC already exists when a line reaches the
    memory controller (it travels with the line on eviction from an
    ECC-protected LLC), so its *marginal* latency and energy on the write
    path are zero — the property ESD exploits.
    """

    name = "ecc"
    #: Fingerprint width in bits.
    bits = 64
    #: Marginal cost: the ECC is computed by existing controller hardware
    #: regardless of deduplication, so ESD pays nothing extra.
    latency_ns = 0.0
    energy_nj = 0.0

    def fingerprint(self, data: bytes) -> int:
        return line_ecc(data)

    def fingerprint_size_bytes(self) -> int:
        return self.bits // 8


def verify_distinct(data_a: bytes, data_b: bytes) -> bool:
    """True when differing ECC proves the lines distinct.

    This is the soundness direction of ECC-based filtering: since the ECC is
    a function of the data, ``ecc(a) != ecc(b)`` implies ``a != b``.  (The
    converse does not hold — collisions exist — hence the byte-by-byte
    confirmation step.)
    """
    if data_a == data_b:
        return False
    return line_ecc(data_a) != line_ecc(data_b)
