"""Epoch-priming parity: priming the memo caches never changes a result.

Each session primes the memo caches one epoch at a time with the batch
kernels of :mod:`repro.vec` before the scalar per-line resolution walks
the epoch.  The contract (DESIGN.md §10): for every registered scheme,
the ``SimulationResult`` summary row is **byte-identical** with the
priming pass or without it (the scalar kernels then compute every value
themselves).  Property-style random request streams — duplicate-rich and
duplicate-free contents, read- and write-heavy mixes, short and
epoch-straddling lengths — exercise the epoch front end, and a
fault-injection section checks that batch-primed ECC caches can never
mask a corrupted line.
"""

import random
from unittest import mock

import pytest

from repro.common.errors import UncorrectableError
from repro.common.types import AccessType, MemoryRequest
from repro.ecc.codec import (
    decode_line,
    decode_line_uncached,
    line_ecc,
    line_ecc_uncached,
    prime_line_ecc_batch,
)
from repro.ecc.faults import flip_bit, flip_bits
from repro.perf import memo
from repro.registry import registered_scheme_names
from repro.sim.runner import run_app, scaled_system_config
from repro.vec.epoch import EpochPrecomputer
from repro.workloads.generator import TraceGenerator

REQUESTS = 600


@pytest.fixture(autouse=True)
def _cold_caches():
    memo.reset_all()
    yield
    memo.reset_all()


def _random_trace(seed, count, write_frac=0.6, dup_rate=0.5, pool=24,
                  address_lines=512):
    """A random request stream with controlled duplicate and write rates.

    ``dup_rate`` of the writes draw from a small content pool (dedup
    hits — including re-writes of identical content), the rest carry
    fresh random lines (misses); reads revisit previously-touched
    addresses.  Deterministic in ``seed``.
    """
    rng = random.Random(seed)
    contents = [rng.randbytes(64) for _ in range(pool)]
    requests = []
    for seq in range(count):
        address = rng.randrange(address_lines) * 64
        if rng.random() < write_frac:
            if rng.random() < dup_rate:
                data = rng.choice(contents)
            else:
                data = rng.randbytes(64)
            requests.append(MemoryRequest(address=address,
                                          access=AccessType.WRITE,
                                          data=data,
                                          issue_time_ns=float(seq),
                                          seq=seq))
        else:
            requests.append(MemoryRequest(address=address,
                                          access=AccessType.READ,
                                          issue_time_ns=float(seq),
                                          seq=seq))
    return requests


def _rows(trace, schemes, *, primed, system=None):
    """Summary rows of ``trace``; ``primed=False`` skips the priming pass."""
    system = system or scaled_system_config()
    if primed:
        results = run_app("gcc", schemes, system=system, trace=trace)
    else:
        with mock.patch.object(EpochPrecomputer, "precompute",
                               lambda self, epoch: None):
            results = run_app("gcc", schemes, system=system, trace=trace)
    return {name: r.summary_row() for name, r in results.items()}


class TestAllSchemesParity:
    """Bit-exact summary rows for every registered scheme."""

    def test_generated_trace_all_schemes(self):
        trace = TraceGenerator("gcc", seed=7).generate_list(REQUESTS)
        schemes = registered_scheme_names()
        off = _rows(trace, schemes, primed=False)
        on = _rows(trace, schemes, primed=True)
        assert set(off) == set(schemes) and len(schemes) == 8
        assert off == on

    def test_random_mixed_trace_all_schemes(self):
        trace = _random_trace(seed=11, count=REQUESTS)
        schemes = registered_scheme_names()
        assert _rows(trace, schemes, primed=False) == \
            _rows(trace, schemes, primed=True)


class TestPropertyStyleMixes:
    """Randomized read/write and duplicate-rate mixes, subset of schemes
    (the full roster runs above; these vary the stream shape)."""

    SCHEMES = ["ESD", "Dedup_SHA1", "Baseline", "DaE"]

    @pytest.mark.parametrize("seed,write_frac,dup_rate", [
        (1, 0.95, 0.9),   # write-heavy, duplicate-rich
        (2, 0.95, 0.0),   # write-heavy, all-unique contents
        (3, 0.10, 0.5),   # read-heavy
        (4, 0.50, 0.5),   # balanced
    ])
    def test_random_mix_parity(self, seed, write_frac, dup_rate):
        trace = _random_trace(seed=seed, count=400, write_frac=write_frac,
                              dup_rate=dup_rate)
        assert _rows(trace, self.SCHEMES, primed=False) == \
            _rows(trace, self.SCHEMES, primed=True)

    @pytest.mark.parametrize("count", [1, 3, 1023, 1024, 1025])
    def test_epoch_boundary_lengths(self, count):
        # Streams shorter than, equal to, and one past the default epoch.
        trace = _random_trace(seed=5, count=count)
        assert _rows(trace, ["ESD"], primed=False) == \
            _rows(trace, ["ESD"], primed=True)


class TestBatchPrimingNeverMasksFaults:
    """Epoch priming fills the ``line_ecc`` cache ahead of resolution; a
    fault-injected line must still decode exactly like the uncached
    codec — the caches are keyed on content (and ``(data, ecc)`` for
    decode), so priming can never alias a corrupted line."""

    def test_primed_cache_then_single_bit_faults(self):
        rng = random.Random(21)
        lines = [rng.randbytes(64) for _ in range(16)]
        assert prime_line_ecc_batch(lines) == len(lines)
        for data in lines:
            ecc = line_ecc(data)
            assert ecc == line_ecc_uncached(data)
            corrupt = flip_bit(data, rng.randrange(512))
            got = decode_line(corrupt, ecc)
            want = decode_line_uncached(corrupt, ecc)
            assert got.data == want.data == data
            assert got.corrected_words == want.corrected_words

    def test_primed_cache_then_double_bit_fault_raises(self):
        rng = random.Random(22)
        data = rng.randbytes(64)
        prime_line_ecc_batch([data])
        ecc = line_ecc(data)
        word = 3
        corrupt = flip_bits(data, [word * 64 + 2, word * 64 + 33])
        with pytest.raises(UncorrectableError):
            decode_line(corrupt, ecc)
        with pytest.raises(UncorrectableError):
            decode_line_uncached(corrupt, ecc)

    def test_faulty_epoch_ecc_values_stay_distinct(self):
        # Batch-priming a corrupted line caches *its* (correct) ECC under
        # *its* content — never the clean line's.
        rng = random.Random(23)
        data = rng.randbytes(64)
        corrupt = flip_bit(data, 100)
        prime_line_ecc_batch([data, corrupt])
        assert line_ecc(data) == line_ecc_uncached(data)
        assert line_ecc(corrupt) == line_ecc_uncached(corrupt)
        assert line_ecc(data) != line_ecc(corrupt)

