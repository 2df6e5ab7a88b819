"""Parity of the simulator's one execution path with its oracles.

Three kinds of oracle check the path:

* **Kernel references.**  Every rewritten or memoized kernel is compared
  with the reference it replaced: the Hamming tables against the
  mask-and-popcount encoder (``_encode_word_masks``) and syndrome
  (``syndrome_reference``), the 512-bit XOR against the per-byte form
  (``_xor_line_reference``), and the memoized ECC, decode and pad kernels
  against their uncached forms.  Memo caches must never mask an injected
  fault.
* **Pinned whole runs.**  ``fixtures/pinned_states.json`` holds the
  SHA-256 of the lossless result state (``result_state_bytes``), of the
  summary row and, where observability is on, of the obs report, for 44
  cells: the 12 ``grid-paper`` cells, the 8 schemes on
  ``adv-dedup-worst`` at two issue windows, and the 8 schemes on gcc
  with the counter integrity tree on and with observability on.  The
  digests were taken at the commit the fixture records, where the fast
  and reference execution modes that then existed were first shown to
  agree on every cell.
* **Pinned per-request streams.**  A short digest of every access result
  (every field, and the timeline's stage exposures in charge order) for
  each scheme and for the controller's bank services, so a divergence
  names the first request that differs.

There is no regenerate switch.  On a mismatch the tests print the table
or stream they computed; re-pinning is a deliberate edit of the fixture.
"""

import functools
import hashlib
import io
import json
import random
from dataclasses import replace
from pathlib import Path

import pytest

from repro.common.config import SystemConfig
from repro.common.errors import UncorrectableError
from repro.common.types import AccessType, MemoryRequest
from repro.crypto.counter_mode import (
    CounterModeEngine,
    _derive_pad_uncached,
    _xor_line,
    _xor_line_reference,
)
from repro.ecc import hamming
from repro.ecc.codec import decode_line, line_ecc
from repro.ecc.faults import flip_bit, flip_bits
from repro.nvmm.bank import BankService
from repro.nvmm.controller import MemoryController
from repro.registry import make_scheme, registered_scheme_names
from repro.sim.engine import EngineConfig, SimulationEngine
from repro.sim.export import result_state_bytes
from repro.sim.runner import (
    ExperimentConfig,
    run_app,
    run_grid,
    scaled_system_config,
)
from repro.workloads import adversarial_stream, stream_instructions_per_access
from repro.workloads.generator import TraceGenerator
from repro.workloads.trace import read_trace_list, write_trace

FIXTURE_PATH = Path(__file__).parent / "fixtures" / "pinned_states.json"

#: The benchmark's paper grid (``grid-paper``): three content-diverse SPEC
#: apps against the four evaluated schemes.
GRID_APPS = ("gcc", "deepsjeng", "lbm")
GRID_SCHEMES = ("Baseline", "Dedup_SHA1", "DeWrite", "ESD")
SEED = 7


@functools.lru_cache(maxsize=None)
def pinned():
    return json.loads(FIXTURE_PATH.read_text())


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _random_lines(count, seed=0xE5D):
    rng = random.Random(seed)
    return [rng.randbytes(64) for _ in range(count)]


# ----------------------------------------------------------------------
# Pinned whole runs
# ----------------------------------------------------------------------

def pinned_cells():
    """Yield ``(cell, result)`` for every pinned whole-run cell."""
    for app in GRID_APPS:
        grid = run_grid(ExperimentConfig(apps=[app],
                                         schemes=list(GRID_SCHEMES),
                                         requests_per_app=10_000,
                                         seed=SEED))
        for (cell_app, scheme), result in grid.items():
            yield f"grid-paper/{cell_app}/{scheme}", result

    stream = "adv-dedup-worst"
    records = list(adversarial_stream(stream, 4096, seed=SEED))
    ipa = stream_instructions_per_access(stream)
    for window in (64, 2):
        for scheme in registered_scheme_names():
            engine = SimulationEngine(
                make_scheme(scheme, scaled_system_config()),
                EngineConfig(max_outstanding=window))
            yield (f"{stream}/window-{window}/{scheme}",
                   engine.run(iter(records), app=stream,
                              total_hint=len(records),
                              instructions_per_access=ipa))

    variants = (
        ("protect-counters",
         replace(scaled_system_config(), protect_counters=True)),
        ("observability",
         scaled_system_config().with_observability(enabled=True)),
    )
    for label, system in variants:
        results = run_app("gcc", registered_scheme_names(), requests=3_000,
                          system=system, seed=SEED)
        for scheme, result in results.items():
            yield f"{label}/gcc/{scheme}", result


def cell_digests(result):
    """The pinned digests of one whole-run result."""
    digests = {
        "state": sha256(result_state_bytes(result)),
        "summary": sha256(json.dumps(result.summary_row(),
                                     sort_keys=True).encode()),
    }
    if result.obs is not None:
        digests["obs"] = sha256(json.dumps(result.obs,
                                           sort_keys=True).encode())
    return digests


@functools.lru_cache(maxsize=None)
def computed_table():
    return {cell: cell_digests(result) for cell, result in pinned_cells()}


def _assert_cells_match(kind):
    table = computed_table()
    cells = pinned()["cells"]
    assert sorted(table) == sorted(cells)
    wrong = [cell for cell in cells
             if table[cell].get(kind) != cells[cell].get(kind)]
    assert not wrong, (
        f"{kind} digests differ from those pinned at "
        f"{pinned()['commit']} for {wrong}; computed table:\n"
        + json.dumps(table, indent=1, sort_keys=True))


# ----------------------------------------------------------------------
# Pinned per-request streams
# ----------------------------------------------------------------------

#: Characters of each per-request digest in a pinned stream.
STEP = 8


def result_digest(result) -> str:
    """Short digest of one access result: every field, with the timeline
    as its stage exposures in charge order, critical path, start and
    seal."""
    parts = [type(result).__name__]
    for name in result._fields:
        value = getattr(result, name)
        if name == "timeline":
            value = (list(value.exposures.items()), value.critical_path_ns,
                     value.start_ns, value.sealed)
        parts.append(repr(value))
    return sha256("\x1f".join(parts).encode())[:STEP]


def _assert_stream_matches(name, got):
    text = pinned()["per_request"][name]
    want = [text[i:i + STEP] for i in range(0, len(text), STEP)]
    if got == want:
        return
    first = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b),
                 min(len(got), len(want)))
    pytest.fail(f"{name}: access {first} is the first to differ from the "
                f"stream pinned at {pinned()['commit']} ({len(got)} "
                f"accesses computed, {len(want)} pinned); computed "
                f"stream:\n{''.join(got)}")


# Small metadata caches (8 EFIT entries, 4-11 fingerprint-cache entries,
# 16 AMT entries) force evictions and NVMM fingerprint lookups; referH
# saturates at 4 remaps.
PER_REQUEST_CONFIG = SystemConfig().with_metadata_cache(
    efit_bytes=112, amt_bytes=208).with_esd(refer_h_max=4)


def per_request_requests(count=600, seed=0xE5D):
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


def scheme_results(name):
    scheme = make_scheme(name, PER_REQUEST_CONFIG)
    return [scheme.handle_write(r) if r.is_write else scheme.handle_read(r)
            for r in per_request_requests()]


def controller_stream():
    """``(op, result)`` for 400 seeded accesses of every controller kind
    (a read's result is its ``(data, service)`` pair)."""
    rng = random.Random(0xBA4C)
    line = _random_lines(1, seed=11)[0]
    ops = [(rng.choice(("read", "write", "write_partial",
                        "metadata_read", "metadata_write")),
            rng.randrange(64), rng.uniform(0.0, 2000.0))
           for _ in range(400)]
    controller = MemoryController()
    out = []
    for op, key, at in ops:
        if op == "write":
            result = controller.write(key, line, at)
        elif op == "write_partial":
            result = controller.write_partial(key, 0.5, at)
        else:
            result = getattr(controller, op)(key, at)
        out.append((op, result))
    return out


def _esd_line_ecc():
    """ESD's memoized line-ECC lookup, on a fresh scheme (cold cache)."""
    return make_scheme("ESD", scaled_system_config())._line_ecc


class TestFaultInjectionNeverMasked:
    """ESD's line-ECC memo is keyed on the whole line, so a fault-injected
    line can never hit its clean line's entry: warm the cache with clean
    lines, then inject faults, compare the cached ECC against the kernel
    bit-for-bit, and decode each corrupted line against the clean ECC."""

    def test_single_bit_fault_after_warm_cache(self):
        cached_ecc = _esd_line_ecc()
        rng = random.Random(1)
        for data in _random_lines(16, seed=2):
            ecc = cached_ecc(data)
            assert cached_ecc(data) == ecc == line_ecc(data)  # warm hit
            corrupt = flip_bit(data, rng.randrange(512))
            assert cached_ecc(corrupt) == line_ecc(corrupt) != ecc
            got = decode_line(corrupt, ecc)
            assert got.data == data  # corrected back
            assert got.corrected

    def test_double_bit_fault_raises_despite_warm_cache(self):
        cached_ecc = _esd_line_ecc()
        data = _random_lines(1, seed=3)[0]
        ecc = cached_ecc(data)
        cached_ecc(data)  # warm hit
        word = 2
        corrupt = flip_bits(data, [word * 64 + 5, word * 64 + 40])
        assert cached_ecc(corrupt) == line_ecc(corrupt)
        with pytest.raises(UncorrectableError) as excinfo:
            decode_line(corrupt, ecc)
        assert excinfo.value.word_index == word
        # A raising decode caches nothing: the corrupt line re-raises.
        with pytest.raises(UncorrectableError):
            decode_line(corrupt, ecc)

    def test_fault_campaign_matches_uncached(self):
        cached_ecc = _esd_line_ecc()
        rng = random.Random(4)
        for data in _random_lines(8, seed=5):
            ecc = cached_ecc(data)
            for _ in range(8):
                bits = rng.sample(range(512), rng.choice([1, 1, 1, 2]))
                corrupt = flip_bits(data, bits)
                assert cached_ecc(corrupt) == line_ecc(corrupt)
                words = {bit // 64 for bit in bits}
                if len(words) < len(bits):  # two flips in one word
                    with pytest.raises(UncorrectableError):
                        decode_line(corrupt, ecc)
                else:
                    got = decode_line(corrupt, ecc)
                    assert got.data == data
                    assert got.corrected_words == tuple(sorted(words))


class TestKernelParity:
    def test_line_ecc_matches_uncached(self):
        cached_ecc = _esd_line_ecc()
        for data in _random_lines(32):
            assert cached_ecc(data) == line_ecc(data)
            assert cached_ecc(data) == line_ecc(data)  # cached hit

    def test_encode_word_on_off_parity(self):
        """The table-driven encoder against the mask-and-popcount
        reference the tables are built from."""
        rng = random.Random(6)
        words = [0, 1, (1 << 64) - 1] + [rng.getrandbits(64)
                                         for _ in range(200)]
        for word in words:
            assert (hamming.encode_word(word)
                    == hamming._encode_word_masks(word))

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
                assert (hamming.syndrome(w, e)
                        == hamming.syndrome_reference(w, e))

    def test_xor_line_matches_reference(self):
        lines = _random_lines(8, seed=8)
        for a, b in zip(lines[::2], lines[1::2]):
            assert _xor_line(a, b) == _xor_line_reference(a, b)

    def test_counter_mode_roundtrip_on_off_parity(self):
        """Memoized, inlined encrypt/decrypt against the uncached pad and
        the per-byte XOR."""
        engine = CounterModeEngine()
        key = engine._key
        for i, pt in enumerate(_random_lines(8, seed=9)):
            enc = engine.encrypt(pt, i)
            pad = _derive_pad_uncached(key, i, enc.counter)
            assert enc.ciphertext == _xor_line_reference(pt, pad)
            assert engine.decrypt_at(enc.ciphertext, i) == pt
            assert engine.decrypt(enc) == pt

    def test_trace_roundtrip_on_off_parity(self):
        requests = TraceGenerator("gcc", seed=7).generate_list(500)
        streams = []
        for _ in range(2):
            buffer = io.BytesIO()
            write_trace(requests, buffer)
            streams.append(buffer.getvalue())
            buffer.seek(0)
            assert read_trace_list(buffer) == requests
        assert streams[0] == streams[1]


class TestEndToEndParity:
    """Whole runs against the digests pinned in the fixture."""

    def test_summary_rows_bit_exact_across_all_schemes(self):
        _assert_cells_match("summary")

    def test_result_state_identical_across_all_schemes(self):
        """The whole lossless result state — latency recorders, energy
        buckets, both stage breakdowns in insertion order, controller and
        scheme tallies, the IPC and every extra, memo statistics
        included — and the obs reports of the observed cells."""
        _assert_cells_match("state")
        _assert_cells_match("obs")

    def test_extras_export_memo_stats(self):
        result = run_app("gcc", ["ESD"], requests=600,
                         system=scaled_system_config(), seed=7)["ESD"]
        memo_keys = [k for k in result.extras if k.startswith("memo_")]
        assert memo_keys, "a run must export memo cache stats"
        # Counters come in complete (hits, misses, evictions, size) groups.
        assert any(k.endswith("_hits") for k in memo_keys)
        assert any(k.endswith("_misses") for k in memo_keys)


class TestPerRequestParity:
    """Every single access, against its pinned per-request digest.

    The handlers build their result tuples positionally
    (``tuple.__new__``), so a field-order slip — ``deduplicated`` swapped
    with ``wrote_line``, say — would change no summary row; only a
    per-result digest catches it.
    """

    @pytest.mark.parametrize("name", registered_scheme_names())
    def test_scheme_results_equal_field_by_field(self, name):
        results = scheme_results(name)
        _assert_stream_matches(name, [result_digest(r) for r in results])
        for result in results:
            assert result.timeline.sealed
        writes = [r for r in results if hasattr(r, "deduplicated")]
        assert any(r.wrote_line for r in writes)
        # DaE fingerprints ciphertext, which counter mode never repeats.
        if name not in ("Baseline", "DaE"):
            assert any(r.deduplicated for r in writes)

    def test_controller_bank_services_equal(self):
        results = controller_stream()
        for op, result in results:
            service = result[1] if op == "read" else result
            assert type(service) is BankService
        _assert_stream_matches(
            "controller",
            [sha256(repr(r).encode())[:STEP] for _, r in results])
