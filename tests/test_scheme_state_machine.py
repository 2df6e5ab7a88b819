"""A rule-based state machine over every registered scheme.

The machine drives one scheme with writes (fresh lines, pooled
duplicates, crafted fingerprint collisions), rewrites of live addresses
and reads, against a dict oracle of the last data written to each
address.  After every step it checks the paper's invariants on whatever
structures the scheme exposes:

* every mapped address decrypts to the last data written to it, and a
  read returns that data (zeros for a never-written address);
* no merge without byte equality: a write that reports ``deduplicated``
  maps to a frame whose decrypted content equals its data;
* refcounts sum to the number of mapped logical lines, and no mapped
  frame is unreferenced;
* every EFIT entry (ESD, ESD-Delta) and every fingerprint-store entry
  (the full-dedup schemes) points to a live frame whose content has that
  fingerprint;
* a full-dedup scheme keeps one frame per distinct live content until a
  fingerprint collision is counted;
* every result's stage exposures sum to its critical path.

A ``checkpoint`` step swaps the scheme for a pickle round trip of
itself — the scheme graph :meth:`repro.sim.session.Session.checkpoint`
pickles — so every later step and invariant runs on the restored copy,
against the same oracle.

The crafted collisions are exact, not probabilistic.  Hamming(72,64) is
GF(2)-linear and the weight-4 word ``0x413`` encodes to a zero ECC, so
XOR-ing it into one word of a line keeps ``line_ecc``.  CRC-32 is affine
over GF(2), and :data:`CRC_NULL_DELTA` lies in the kernel of its linear
part over 64-byte inputs, so XOR-ing it into any line keeps the CRC.
"""

import math
import pickle
import zlib

import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
    run_state_machine_as_test,
)

from repro.common import small_test_config
from repro.common.timeline import ABS_TOLERANCE_NS, REL_TOLERANCE
from repro.common.types import CACHE_LINE_SIZE, AccessType, MemoryRequest
from repro.crypto.counter_mode import _derive_pad_uncached, _xor_line_reference
from repro.dedup.full_dedup import FullDedupScheme
from repro.ecc.codec import line_ecc
from repro.ecc.hamming import encode_word
from repro.registry import make_scheme, registered_scheme_names

#: Logical lines the machine addresses (small, so rewrites and duplicates
#: are frequent).
ADDRESSES = 10

#: A weight-4 word whose SEC-DED code is zero.
ECC_NULL_WORD = 0x413

#: A weight-6 64-byte delta with ``crc32(x ^ delta) == crc32(x)`` for
#: every 64-byte ``x`` (Gaussian elimination over the 512 unit deltas).
CRC_NULL_DELTA = bytes.fromhex(
    "8804000200000000000000000000000000000000000000000000000000000000"
    "0000000000000000000000000000000000800000000000000001000000000000")

_ZERO = bytes(CACHE_LINE_SIZE)

#: Tiny metadata caches (8 EFIT entries, 4-11 fingerprint-cache entries,
#: 16 AMT entries) force evictions and NVMM lookups; referH saturates at
#: 4 remaps, so the machine reaches ESD's re-point path (Section III-D).
CONFIG = small_test_config().with_metadata_cache(
    efit_bytes=112, amt_bytes=208).with_esd(refer_h_max=4)

#: Contents every machine starts its pool with: the zero line and two
#: structured lines (the pool grows with every fresh line written).
_SEED_POOL = (_ZERO, bytes(range(64)), bytes([0xA5]) * 64)


def ecc_collision(line: bytes, word: int) -> bytes:
    """``line`` with the zero-ECC word XOR-ed into word ``word``."""
    delta = (ECC_NULL_WORD << (64 * word)).to_bytes(CACHE_LINE_SIZE, "little")
    return _xor_line_reference(line, delta)


def crc_collision(line: bytes) -> bytes:
    """``line`` with :data:`CRC_NULL_DELTA` XOR-ed in."""
    return _xor_line_reference(line, CRC_NULL_DELTA)


def test_crafted_collisions_keep_the_fingerprint():
    assert encode_word(ECC_NULL_WORD) == 0
    assert bin(ECC_NULL_WORD).count("1") == 4
    for line in _SEED_POOL:
        for word in range(8):
            twin = ecc_collision(line, word)
            assert twin != line
            assert line_ecc(twin) == line_ecc(line)
        twin = crc_collision(line)
        assert twin != line
        assert zlib.crc32(twin) == zlib.crc32(line)


def _plaintext(scheme, frame: int) -> bytes:
    """Decrypted content of ``frame``, read without touching the scheme's
    tallies, caches or timing state."""
    ciphertext = scheme.controller.device._store.get(frame, _ZERO)
    counter = scheme.crypto.counters.current(frame)
    pad = _derive_pad_uncached(scheme.crypto._key, frame, counter)
    return _xor_line_reference(ciphertext, pad)


def _store_fingerprint(scheme, frame: int) -> int:
    """What a full-dedup scheme indexes ``frame`` under."""
    if scheme.name == "DaE":  # digests the ciphertext
        return scheme.engine._digest(
            scheme.controller.device._store.get(frame, _ZERO))
    engine = getattr(scheme, "weak_engine", None) or scheme.engine
    return engine._digest(_plaintext(scheme, frame))


class SchemeMachine(RuleBasedStateMachine):
    """Drives one scheme (``scheme_name``, set by the subclass)."""

    scheme_name = "ESD"

    def __init__(self):
        super().__init__()
        self.scheme = make_scheme(self.scheme_name, CONFIG)
        self.oracle = {}
        self.pool = list(_SEED_POOL)
        self.now = 0.0
        self.seq = 0

    # ------------------------------------------------------------------
    # Driving the scheme
    # ------------------------------------------------------------------

    def _request(self, line, access, data=None):
        self.now += 40.0
        self.seq += 1
        return MemoryRequest(line * CACHE_LINE_SIZE, access, data, self.now,
                             seq=self.seq)

    def _check_conservation(self, result):
        timeline = result.timeline
        assert timeline.sealed
        assert math.isclose(math.fsum(timeline.exposures.values()),
                            timeline.critical_path_ns,
                            rel_tol=REL_TOLERANCE, abs_tol=ABS_TOLERANCE_NS)
        assert result.latency_ns == timeline.critical_path_ns

    def _write(self, line, data):
        result = self.scheme.handle_write(
            self._request(line, AccessType.WRITE, data))
        self._check_conservation(result)
        self.oracle[line] = data
        if result.deduplicated:
            assert self._content(line) == data
        if data not in self.pool:
            self.pool.append(data)

    def _read(self, line):
        result = self.scheme.handle_read(self._request(line, AccessType.READ))
        self._check_conservation(result)
        assert result.data == self.oracle.get(line, _ZERO)

    # ------------------------------------------------------------------
    # Rules
    # ------------------------------------------------------------------

    @rule(line=st.integers(0, ADDRESSES - 1),
          data=st.binary(min_size=CACHE_LINE_SIZE, max_size=CACHE_LINE_SIZE))
    def write_fresh(self, line, data):
        self._write(line, data)

    @rule(line=st.integers(0, ADDRESSES - 1), pick=st.integers(0, 1 << 16))
    def write_pooled(self, line, pick):
        self._write(line, self.pool[pick % len(self.pool)])

    @rule(line=st.integers(0, ADDRESSES - 1), pick=st.integers(0, 1 << 16),
          kind=st.sampled_from(("ecc", "crc")), word=st.integers(0, 7))
    def write_collision(self, line, pick, kind, word):
        base = self.pool[pick % len(self.pool)]
        twin = (ecc_collision(base, word) if kind == "ecc"
                else crc_collision(base))
        self._write(line, twin)

    @precondition(lambda self: self.oracle)
    @rule(pick=st.integers(0, 1 << 16), content=st.integers(0, 1 << 16))
    def rewrite_live(self, pick, content):
        live = sorted(self.oracle)
        self._write(live[pick % len(live)],
                    self.pool[content % len(self.pool)])

    @precondition(lambda self: self.oracle)
    @rule(pick=st.integers(0, 1 << 16))
    def read_written(self, pick):
        live = sorted(self.oracle)
        self._read(live[pick % len(live)])

    @precondition(lambda self: len(self.oracle) < ADDRESSES)
    @rule(pick=st.integers(0, 1 << 16))
    def read_never_written(self, pick):
        fresh = [line for line in range(ADDRESSES)
                 if line not in self.oracle]
        self._read(fresh[pick % len(fresh)])

    @rule()
    def checkpoint(self):
        self.scheme = pickle.loads(
            pickle.dumps(self.scheme, pickle.HIGHEST_PROTOCOL))

    # ------------------------------------------------------------------
    # Functional views of the scheme's state
    # ------------------------------------------------------------------

    def _frame(self, line):
        """The frame a logical line maps to (a delta line's base)."""
        scheme = self.scheme
        deltas = getattr(scheme, "_deltas", None)
        if deltas is not None and line in deltas:
            return deltas[line].base_frame
        if hasattr(scheme, "amt"):
            return scheme.amt.current_frame(line)
        if hasattr(scheme, "mapping"):
            return scheme.mapping.current_frame(line)
        return scheme._frames.get(line)

    def _content(self, line):
        frame = self._frame(line)
        assert frame is not None, line
        content = _plaintext(self.scheme, frame)
        deltas = getattr(self.scheme, "_deltas", None)
        if deltas is not None and line in deltas:
            content = deltas[line].reconstruct(content)
        return content

    # ------------------------------------------------------------------
    # Invariants, checked after every step
    # ------------------------------------------------------------------

    @invariant()
    def mapped_lines_hold_last_write(self):
        for line, data in self.oracle.items():
            assert self._content(line) == data, line

    @invariant()
    def refcounts_match_mapped_lines(self):
        refcounts = getattr(self.scheme, "refcounts", None)
        if refcounts is None:
            return
        counts = refcounts._counts
        assert sum(counts.values()) == len(self.oracle)
        assert all(count > 0 for count in counts.values())
        for frame in counts:
            assert self.scheme.allocator.is_allocated(frame), frame
        for line in self.oracle:
            assert counts.get(self._frame(line), 0) > 0, line

    @invariant()
    def efit_entries_point_at_live_frames(self):
        efit = getattr(self.scheme, "efit", None)
        if efit is None:
            return
        live = self.scheme.refcounts._counts
        for ecc, frame, _refer_h in efit._cache.items():
            assert live.get(frame, 0) > 0, (ecc, frame)
            assert line_ecc(_plaintext(self.scheme, frame)) == ecc
        for frame, ecc in self.scheme._frame_ecc.items():
            assert live.get(frame, 0) > 0, (ecc, frame)
            assert line_ecc(_plaintext(self.scheme, frame)) == ecc

    @invariant()
    def store_entries_point_at_live_frames(self):
        scheme = self.scheme
        if not isinstance(scheme, FullDedupScheme):
            return
        live = scheme.refcounts._counts
        for fingerprint, frame in scheme.store._home.items():
            assert live.get(frame, 0) > 0, (fingerprint, frame)
            assert _store_fingerprint(scheme, frame) == fingerprint

    @invariant()
    def one_frame_per_distinct_content(self):
        scheme = self.scheme
        if not isinstance(scheme, FullDedupScheme) or scheme.name == "DaE":
            return
        # A fingerprint collision re-indexes (DeWrite) or leaves unindexed
        # (NV-Dedup) one of the two lines, so later copies of it may land
        # in a second frame: a missed merge, never a false one.
        if (scheme.counters.get("crc_collisions")
                or scheme.counters.get("weak_collisions")):
            return
        assert (scheme.refcounts.live_frames()
                == len(set(self.oracle.values())))


@pytest.mark.parametrize("scheme_name", registered_scheme_names())
def test_scheme_state_machine(scheme_name):
    machine = type(f"{scheme_name.replace('-', '_')}Machine",
                   (SchemeMachine,), {"scheme_name": scheme_name})
    run_state_machine_as_test(
        machine,
        settings=settings(max_examples=30, stateful_step_count=40,
                          deadline=None, database=None,
                          suppress_health_check=[HealthCheck.too_slow]))
