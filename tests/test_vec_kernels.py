"""Bit-exactness tests for the vectorized batch kernel.

The bit-parallel Hamming(72,64) line-ECC kernel in :mod:`repro.vec` is
checked element-by-element against the scalar byte-table kernel.  It is
integer-only GF(2) math, so the values must be *exactly* equal.
"""

import random

import numpy as np
import pytest

from repro.ecc.codec import line_ecc_uncached
from repro.ecc.faults import flip_bit
from repro.vec.kernels import (
    line_ecc_batch,
    line_ecc_matrix,
    lines_to_matrix,
)


def _random_lines(count, seed=0xE5D):
    rng = random.Random(seed)
    return [rng.randbytes(64) for _ in range(count)]


class TestLineEccBatch:
    def test_matches_scalar_on_random_lines(self):
        lines = _random_lines(257)
        assert line_ecc_batch(lines) == [line_ecc_uncached(d) for d in lines]

    def test_structured_lines(self):
        lines = [bytes(64), b"\xff" * 64, bytes(range(64)),
                 (b"\x00\xff" * 32), bytes(64)[:-1] + b"\x01"]
        assert line_ecc_batch(lines) == [line_ecc_uncached(d) for d in lines]

    def test_single_bit_sensitivity(self):
        # Flipping any one bit must change the batch value exactly like
        # the scalar kernel says it does.
        data = _random_lines(1, seed=1)[0]
        rng = random.Random(2)
        flipped = [flip_bit(data, rng.randrange(512)) for _ in range(32)]
        assert line_ecc_batch(flipped) == [line_ecc_uncached(d)
                                           for d in flipped]

    def test_empty_batch(self):
        assert line_ecc_batch([]) == []

    def test_values_are_python_ints(self):
        values = line_ecc_batch(_random_lines(4, seed=3))
        assert all(type(v) is int for v in values)
        assert all(0 <= v < (1 << 64) for v in values)

    def test_lines_to_matrix_rejects_short_line(self):
        with pytest.raises(ValueError):
            lines_to_matrix([bytes(64), bytes(63)])

    def test_line_ecc_matrix_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            line_ecc_matrix(np.zeros((4, 32), dtype=np.uint8))

