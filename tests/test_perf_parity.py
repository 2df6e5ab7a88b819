"""Fast-path parity tests: the memoized kernels must be bit-identical to
the reference implementations, and memo caches must never mask injected
faults.

These are the soundness tests for :mod:`repro.perf` — every memoized or
rewritten kernel is checked against its uncached/reference form, and the
end-to-end check runs every registered scheme with the fast path off and
on and demands byte-identical summary rows.
"""

import io
import random
from dataclasses import replace

import pytest

from repro.common.config import SystemConfig
from repro.common.errors import UncorrectableError
from repro.common.types import AccessType, MemoryRequest
from repro.crypto.counter_mode import (
    CounterModeEngine,
    _xor_line,
    _xor_line_reference,
)
from repro.ecc import hamming
from repro.ecc.codec import (
    decode_line,
    decode_line_uncached,
    line_ecc,
    line_ecc_uncached,
)
from repro.ecc.faults import flip_bit, flip_bits
from repro.nvmm.bank import BankService
from repro.nvmm.controller import MemoryController
from repro.perf import fastpath, memo, reset_caches
from repro.registry import make_scheme, registered_scheme_names
from repro.sim.runner import run_app, scaled_system_config
from repro.workloads.generator import TraceGenerator
from repro.workloads.trace import read_trace_list, write_trace


@pytest.fixture(autouse=True)
def _fastpath_on_and_cold():
    """Run each test with the fast path on and cold caches; restore after."""
    previous = memo.ENABLED
    memo.ENABLED = True
    memo.reset_all()
    yield
    memo.ENABLED = previous
    memo.reset_all()


def _random_lines(count, seed=0xE5D):
    rng = random.Random(seed)
    return [rng.randbytes(64) for _ in range(count)]


class TestFaultInjectionNeverMasked:
    """Memo caches keyed on ``(data, ecc)`` can never serve a clean decode
    for a corrupted line — warm the cache with clean entries first, then
    inject faults and compare against the uncached codec bit-for-bit."""

    def test_single_bit_fault_after_warm_cache(self):
        rng = random.Random(1)
        for data in _random_lines(16, seed=2):
            ecc = line_ecc(data)
            # Warm the clean decode (now cached under (data, ecc)).
            assert decode_line(data, ecc).data == data
            corrupt = flip_bit(data, rng.randrange(512))
            got = decode_line(corrupt, ecc)
            want = decode_line_uncached(corrupt, ecc)
            assert got.data == want.data == data  # corrected back
            assert got.corrected_words == want.corrected_words
            assert got.corrected

    def test_double_bit_fault_raises_despite_warm_cache(self):
        data = _random_lines(1, seed=3)[0]
        ecc = line_ecc(data)
        decode_line(data, ecc)  # warm the clean entry
        word = 2
        corrupt = flip_bits(data, [word * 64 + 5, word * 64 + 40])
        with pytest.raises(UncorrectableError) as excinfo:
            decode_line(corrupt, ecc)
        assert excinfo.value.word_index == word
        with pytest.raises(UncorrectableError):
            decode_line_uncached(corrupt, ecc)
        # Raising decodes are never cached: the corrupt key must re-raise.
        with pytest.raises(UncorrectableError):
            decode_line(corrupt, ecc)

    def test_fault_campaign_matches_uncached(self):
        rng = random.Random(4)
        for data in _random_lines(8, seed=5):
            ecc = line_ecc_uncached(data)
            for _ in range(8):
                corrupt = flip_bits(
                    data, rng.sample(range(512), rng.choice([1, 1, 1, 2])))
                try:
                    want = decode_line_uncached(corrupt, ecc)
                except UncorrectableError:
                    with pytest.raises(UncorrectableError):
                        decode_line(corrupt, ecc)
                else:
                    got = decode_line(corrupt, ecc)
                    assert got.data == want.data
                    assert got.corrected_words == want.corrected_words


class TestKernelParity:
    def test_line_ecc_matches_uncached(self):
        for data in _random_lines(32):
            assert line_ecc(data) == line_ecc_uncached(data)
            assert line_ecc(data) == line_ecc_uncached(data)  # cached hit

    def test_encode_word_on_off_parity(self):
        rng = random.Random(6)
        words = [0, 1, (1 << 64) - 1] + [rng.getrandbits(64)
                                         for _ in range(200)]
        for word in words:
            with fastpath(True):
                fast = hamming.encode_word(word)
            with fastpath(False):
                ref = hamming.encode_word(word)
            assert fast == ref

    def test_syndrome_matches_reference(self):
        rng = random.Random(7)
        for _ in range(200):
            word = rng.getrandbits(64)
            ecc = hamming.encode_word(word)
            # Intact, single-bit data error, and corrupted-ECC cases.
            cases = [(word, ecc),
                     (word ^ (1 << rng.randrange(64)), ecc),
                     (word, ecc ^ (1 << rng.randrange(8)))]
            for w, e in cases:
                with fastpath(True):
                    fast = hamming.syndrome(w, e)
                with fastpath(False):
                    ref = hamming.syndrome(w, e)
                assert fast == ref == hamming.syndrome_reference(w, e)

    def test_xor_line_matches_reference(self):
        lines = _random_lines(8, seed=8)
        for a, b in zip(lines[::2], lines[1::2]):
            with fastpath(True):
                fast = _xor_line(a, b)
            assert fast == _xor_line_reference(a, b)

    def test_counter_mode_roundtrip_on_off_parity(self):
        plaintexts = _random_lines(8, seed=9)
        ciphers = {}
        for enabled in (False, True):
            with fastpath(enabled):
                reset_caches()
                engine = CounterModeEngine()
                out = []
                for i, pt in enumerate(plaintexts):
                    enc = engine.encrypt(pt, i)
                    assert engine.decrypt_at(enc.ciphertext, i) == pt
                    out.append((enc.ciphertext, enc.counter))
                ciphers[enabled] = out
        assert ciphers[False] == ciphers[True]

    def test_trace_roundtrip_on_off_parity(self):
        requests = TraceGenerator("gcc", seed=7).generate_list(500)
        streams = {}
        for enabled in (False, True):
            with fastpath(enabled):
                buffer = io.BytesIO()
                write_trace(requests, buffer)
                streams[enabled] = buffer.getvalue()
                buffer.seek(0)
                assert read_trace_list(buffer) == requests
        assert streams[False] == streams[True]


class TestEndToEndParity:
    """Fast-on vs fast-off summary rows, bit-exact, for every registered
    scheme (the same gate `benchmarks/perf_smoke.py` enforces in CI on the
    evaluation grid)."""

    REQUESTS = 600

    def _rows(self, fast):
        system = replace(scaled_system_config(), use_fastpath=fast)
        results = run_app("gcc", registered_scheme_names(),
                          requests=self.REQUESTS, system=system, seed=7)
        return {name: r.summary_row() for name, r in results.items()}

    def test_summary_rows_bit_exact_across_all_schemes(self):
        rows_off = self._rows(fast=False)
        rows_on = self._rows(fast=True)
        assert set(rows_off) == set(registered_scheme_names())
        assert rows_off == rows_on

    def test_extras_export_cache_stats(self):
        system_on = replace(scaled_system_config(), use_fastpath=True)
        result = run_app("gcc", ["ESD"], requests=self.REQUESTS,
                         system=system_on, seed=7)["ESD"]
        assert result.extras["fastpath_enabled"] == 1.0
        memo_keys = [k for k in result.extras if k.startswith("memo_")]
        assert memo_keys, "fast-path run must export memo cache stats"
        # Counters come in complete (hits, misses, evictions, size) groups.
        assert any(k.endswith("_hits") for k in memo_keys)
        assert any(k.endswith("_misses") for k in memo_keys)

    def test_extras_flag_off_without_stats(self):
        system_off = replace(scaled_system_config(), use_fastpath=False)
        result = run_app("gcc", ["ESD"], requests=self.REQUESTS,
                         system=system_off, seed=7)["ESD"]
        assert result.extras["fastpath_enabled"] == 0.0
        assert not [k for k in result.extras if k.startswith("memo_")]


class TestPerRequestParity:
    """Fast-on vs fast-off results of every single access, field by field.

    The fast branches build their result tuples positionally
    (``tuple.__new__``), so a field-order slip — ``deduplicated`` swapped
    with ``wrote_line``, say — would change no summary row; only a
    per-result comparison against the keyword-built reference catches it.
    """

    # Small metadata caches (8 EFIT entries, 4-11 fingerprint-cache entries,
    # 16 AMT entries) force evictions and NVMM fingerprint lookups; referH
    # saturates at 4 remaps.
    CONFIG = SystemConfig().with_metadata_cache(
        efit_bytes=112, amt_bytes=208).with_esd(refer_h_max=4)

    @staticmethod
    def _requests(count=600, seed=0xE5D):
        """Seeded writes (pooled duplicates, fresh lines, rewrites of a few
        addresses) interleaved with reads, some of never-written lines."""
        rng = random.Random(seed)
        pool = [bytes(64)] + _random_lines(11, seed=seed + 1)
        requests = []
        now = 0.0
        for seq in range(count):
            now += rng.choice((0.0, 5.0, 40.0, 200.0))
            address = rng.randrange(24) * 64
            if rng.random() < 0.7:
                data = (rng.choice(pool) if rng.random() < 0.8
                        else rng.randbytes(64))
                requests.append(MemoryRequest(address, AccessType.WRITE,
                                              data, now, seq=seq))
            else:
                requests.append(MemoryRequest(address, AccessType.READ,
                                              None, now, seq=seq))
        return requests

    @pytest.mark.parametrize("name", registered_scheme_names())
    def test_scheme_results_equal_field_by_field(self, name):
        requests = self._requests()
        results = {}
        for enabled in (True, False):
            with fastpath(enabled):
                reset_caches()
                scheme = make_scheme(name, self.CONFIG)
                results[enabled] = [
                    scheme.handle_write(r) if r.is_write
                    else scheme.handle_read(r) for r in requests]
        for i, (fast, ref) in enumerate(zip(results[True], results[False])):
            assert type(fast) is type(ref)
            for field in ref._fields:
                if field != "timeline":
                    assert getattr(fast, field) == getattr(ref, field), (
                        i, field)
        writes = [r for r in results[False] if hasattr(r, "deduplicated")]
        assert any(r.wrote_line for r in writes)
        # DaE fingerprints ciphertext, which counter mode never repeats.
        if name not in ("Baseline", "DaE"):
            assert any(r.deduplicated for r in writes)

    def test_controller_bank_services_equal(self):
        rng = random.Random(0xBA4C)
        line = _random_lines(1, seed=11)[0]
        ops = [(rng.choice(("read", "write", "write_partial",
                            "metadata_read", "metadata_write")),
                rng.randrange(64), rng.uniform(0.0, 2000.0))
               for _ in range(400)]
        results = {}
        for enabled in (True, False):
            with fastpath(enabled):
                controller = MemoryController()
                out = []
                for op, key, at in ops:
                    if op == "read":
                        data, service = controller.read(key, at)
                        out.append(data)
                    elif op == "write":
                        service = controller.write(key, line, at)
                    elif op == "write_partial":
                        service = controller.write_partial(key, 0.5, at)
                    else:
                        service = getattr(controller, op)(key, at)
                    assert type(service) is BankService
                    out.append(service)
                results[enabled] = out
        for fast, ref in zip(results[True], results[False]):
            if isinstance(ref, BankService):
                assert fast._asdict() == ref._asdict()
            else:
                assert fast == ref
