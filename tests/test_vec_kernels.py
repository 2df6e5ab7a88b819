"""Bit-exactness tests for the vectorized batch kernels.

Every numpy kernel in :mod:`repro.vec` is checked element-by-element
against its scalar reference: the bit-parallel Hamming(72,64) matrix
kernels against the byte-table/mask-and-popcount implementations, the
batched bank schedule against the sequential earliest-fit recurrence.
The ECC kernels are integer-only GF(2) math and must be
*exactly* equal; only the closed-form bank schedule is allowed float
tolerance (and is therefore kept off the simulated parity path).
"""

import random

import numpy as np
import pytest

from repro.ecc import hamming
from repro.ecc.codec import line_ecc_uncached
from repro.ecc.faults import flip_bit
from repro.nvmm.bank import Bank
from repro.vec.kernels import (
    encode_words_batch,
    line_ecc_batch,
    line_ecc_matrix,
    lines_to_matrix,
    syndrome_batch,
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


class TestWordKernels:
    def test_encode_words_batch_matches_scalar(self):
        rng = random.Random(4)
        words = [0, 1, (1 << 64) - 1] + [rng.getrandbits(64)
                                         for _ in range(500)]
        got = encode_words_batch(np.array(words, dtype=np.uint64))
        want = [hamming.encode_word(w) for w in words]
        assert got.tolist() == want

    def test_syndrome_batch_matches_reference(self):
        rng = random.Random(5)
        words, eccs = [], []
        for _ in range(200):
            word = rng.getrandbits(64)
            ecc = hamming.encode_word(word)
            # Intact, single-bit data error, and corrupted-ECC cases.
            for w, e in ((word, ecc),
                         (word ^ (1 << rng.randrange(64)), ecc),
                         (word, ecc ^ (1 << rng.randrange(8)))):
                words.append(w)
                eccs.append(e)
        position, parity = syndrome_batch(
            np.array(words, dtype=np.uint64), np.array(eccs, dtype=np.uint8))
        want = [hamming.syndrome_reference(w, e)
                for w, e in zip(words, eccs)]
        assert list(zip(position.tolist(), parity.tolist())) == want


class TestBankServiceBatch:
    """The closed-form burst schedule vs the sequential recurrence.

    Float-tolerant by design (the closed form associates additions
    differently); the *structure* — busy spans, counters — must match
    exactly.
    """

    def _sequential(self, arrivals, durations):
        bank = Bank(index=0)
        services = [bank.service(a, d) for a, d in zip(arrivals, durations)]
        return bank, services

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_matches_sequential_service(self, seed):
        rng = random.Random(seed)
        arrivals = np.cumsum([rng.uniform(0.0, 300.0) for _ in range(200)])
        durations = np.array([rng.uniform(10.0, 150.0) for _ in range(200)])
        ref_bank, services = self._sequential(arrivals, durations)
        bank = Bank(index=0)
        starts, completions = bank.service_batch(arrivals, durations)
        np.testing.assert_allclose(
            starts, [s.start_ns for s in services], rtol=1e-12)
        np.testing.assert_allclose(
            completions, [s.completion_ns for s in services], rtol=1e-12)
        assert bank.services == ref_bank.services
        assert bank.busy_time_ns == pytest.approx(ref_bank.busy_time_ns)
        assert len(bank._intervals) == len(ref_bank._intervals)

    def test_saturated_burst_merges_into_one_span(self):
        bank = Bank(index=0)
        arrivals = np.array([0.0, 1.0, 2.0, 3.0])
        starts, completions = bank.service_batch(arrivals, 100.0)
        assert completions[-1] == 400.0
        assert bank._intervals == [(0.0, 400.0)]

    def test_idle_gaps_open_separate_spans(self):
        bank = Bank(index=0)
        arrivals = np.array([0.0, 1000.0, 2000.0])
        bank.service_batch(arrivals, 10.0)
        assert bank._intervals == [(0.0, 10.0), (1000.0, 1010.0),
                                   (2000.0, 2010.0)]

    def test_merges_with_existing_tail(self):
        bank = Bank(index=0)
        bank.service(0.0, 50.0)
        bank.service_batch(np.array([10.0, 20.0]), 25.0)
        # Both queued behind the tail: one contiguous busy span.
        assert bank._intervals == [(0.0, 100.0)]

    def test_scalar_service_composes_after_batch(self):
        bank = Bank(index=0)
        bank.service_batch(np.array([0.0, 5.0]), 40.0)
        svc = bank.service(50.0, 10.0)
        assert svc.start_ns == 80.0  # queued behind the batch tail
        assert svc.completion_ns == 90.0

    def test_validation_errors(self):
        bank = Bank(index=0)
        with pytest.raises(ValueError):
            bank.service_batch(np.array([]), 10.0)
        with pytest.raises(ValueError):
            bank.service_batch(np.array([5.0, 1.0]), 10.0)
        with pytest.raises(ValueError):
            bank.service_batch(np.array([-1.0, 2.0]), 10.0)
        with pytest.raises(ValueError):
            bank.service_batch(np.array([0.0, 1.0]), 0.0)
        bank.service(100.0, 50.0)
        with pytest.raises(ValueError):
            # Arrives before the busy tail's start.
            bank.service_batch(np.array([10.0]), 5.0)
