"""Bit-parallel numpy kernels over epochs of cache lines.

The scalar kernel (:mod:`repro.ecc.hamming`) encodes one word at a time
through eight 256-entry byte tables.  ``_LINE_LUT`` transposes those same
tables into one numpy lookup matrix so a fancy-indexed gather plus an XOR
reduction encodes an *entire epoch* of lines: shape ``(64, 256)``
uint64, where byte *k* of a 64-byte line belongs to word ``k // 8`` at
byte offset ``k % 8``, and that word's ECC byte lands at bits
``8 * (k // 8)`` of the 64-bit line ECC, so
``_LINE_LUT[k][b] = _ENCODE_TABLES[k % 8][b] << (8 * (k // 8))``.

Because the code is GF(2)-linear, the XOR-reduction over the 64 gathered
contributions is *exactly* the scalar result — integer ops, no float
rounding, bit-identical by construction (asserted in
``tests/test_vec_kernels.py`` against the mask-and-popcount reference).
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from ..common.types import CACHE_LINE_SIZE
from ..ecc import hamming

__all__ = [
    "line_ecc_batch",
    "line_ecc_matrix",
    "lines_to_matrix",
]

_LINE_LUT = np.zeros((CACHE_LINE_SIZE, 256), dtype=np.uint64)
for _k in range(CACHE_LINE_SIZE):
    _LINE_LUT[_k] = (
        np.array(hamming._ENCODE_TABLES[_k % 8], dtype=np.uint64)
        << np.uint64(8 * (_k // 8)))

_LINE_COLS = np.arange(CACHE_LINE_SIZE)


def lines_to_matrix(lines: Sequence[bytes]) -> np.ndarray:
    """Stack 64-byte lines into an ``(N, 64)`` uint8 matrix."""
    joined = b"".join(lines)
    if len(joined) != len(lines) * CACHE_LINE_SIZE:
        raise ValueError("every line must be exactly 64 bytes")
    return np.frombuffer(joined, dtype=np.uint8).reshape(
        len(lines), CACHE_LINE_SIZE)


def line_ecc_matrix(matrix: np.ndarray) -> np.ndarray:
    """Per-line 64-bit ECC fingerprints of an ``(N, 64)`` uint8 matrix.

    One gather (``_LINE_LUT[k, matrix[:, k]]`` for all *k* at once via
    broadcast fancy indexing) and one XOR reduction along the byte axis.
    """
    if matrix.ndim != 2 or matrix.shape[1] != CACHE_LINE_SIZE:
        raise ValueError("expected an (N, 64) matrix of line bytes")
    contributions = _LINE_LUT[_LINE_COLS, matrix]
    return np.bitwise_xor.reduce(contributions, axis=1)


def line_ecc_batch(lines: Sequence[bytes]) -> List[int]:
    """Line ECC fingerprints for a batch of 64-byte lines, as Python ints.

    Bit-identical to mapping :func:`repro.ecc.codec.line_ecc_uncached` over
    ``lines`` — the values are interchangeable with the scalar kernel's and
    safe to prime its memo cache with.
    """
    if not lines:
        return []
    return line_ecc_matrix(lines_to_matrix(lines)).tolist()

