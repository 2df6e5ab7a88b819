"""Counter-mode encryption (CME) for cache lines.

ESD encrypts every line written to NVMM with counter-mode encryption
(Section III-A): a per-line counter is incremented on each write, a one-time
pad is derived from ``(key, physical line, counter)``, and the ciphertext is
``plaintext XOR pad``.  Counter mode matters to the design twice over:

* **Deduplication must happen before encryption.**  The pad depends on the
  line address and write counter, so identical plaintexts encrypt to
  different ciphertexts — the "strong diffusion effect" that rules out
  deduplication-after-encryption (Section II-C).  This property is real in
  this implementation and is asserted by tests.
* **Pad generation can overlap other work**, so only a small residual
  latency lands on the critical path (modeled by
  :class:`~repro.crypto.costs.CryptoCosts.encrypt`).

The pad is derived with SHA-256 as a keyed PRF.  This is a *functional
stand-in* for the AES counter mode hardware the paper assumes: it gives the
required properties (deterministic keyed pad, per-(address, counter)
uniqueness, invertibility by XOR) without needing an AES implementation; the
timing/energy model is carried separately in :mod:`repro.crypto.costs`.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass, field
from typing import Dict, NamedTuple, Tuple

from ..common.types import CACHE_LINE_SIZE, validate_line
from ..perf.memo import MemoCache
from .costs import DEFAULT_COSTS, CryptoCosts

_new_tuple = tuple.__new__


#: The PRF message after the key: little-endian line, counter, block index.
_PAD_MSG = struct.Struct("<QQB")
_sha256 = hashlib.sha256


def _derive_pad_uncached(key: bytes, line_number: int, counter: int) -> bytes:
    """64-byte one-time pad for ``(key, line, counter)``.

    Two SHA-256 invocations (domain-separated by a block index) produce the
    64 pad bytes.
    """
    pack = _PAD_MSG.pack
    return (_sha256(key + pack(line_number, counter, 0)).digest()
            + _sha256(key + pack(line_number, counter, 1)).digest())


def _xor_line_reference(a: bytes, b: bytes) -> bytes:
    """Reference per-byte XOR (the obviously-correct form, for tests)."""
    return bytes(p ^ q for p, q in zip(a, b))


def _xor_line(a: bytes, b: bytes) -> bytes:
    """XOR two 64-byte lines.

    One ``int.from_bytes``/XOR/``to_bytes`` round trip over a single
    512-bit integer runs in C and is an order of magnitude cheaper than
    the per-byte generator expression, with bit-identical output
    (asserted against :func:`_xor_line_reference` in
    ``tests/test_perf_parity.py``).
    """
    return (int.from_bytes(a, "little")
            ^ int.from_bytes(b, "little")).to_bytes(CACHE_LINE_SIZE, "little")


@dataclass
class CounterTable:
    """Per-physical-line write counters backing counter-mode encryption.

    Real systems store minor/major counters in NVMM with an on-chip counter
    cache; for the purposes of this reproduction the table is exact and
    in-memory, with its state observable for overflow studies.
    """

    counters: Dict[int, int] = field(default_factory=dict)
    #: Counter width in bits (64-bit monotonic counters never overflow in
    #: simulation-scale runs, but the width is kept explicit).
    width_bits: int = 64

    def current(self, line_number: int) -> int:
        return self.counters.get(line_number, 0)

    def advance(self, line_number: int) -> int:
        """Increment and return the new counter for a line (on write)."""
        value = self.counters.get(line_number, 0) + 1
        if value >= (1 << self.width_bits):
            raise OverflowError(f"counter overflow on line {line_number}")
        self.counters[line_number] = value
        return value

    def __len__(self) -> int:
        return len(self.counters)


class EncryptedLine(NamedTuple):
    """Ciphertext plus the counter needed to decrypt it.

    A ``NamedTuple`` rather than a frozen dataclass: one is built per
    encrypted write.  Its generated ``__new__`` is a Python function, so
    :meth:`CounterModeEngine.encrypt` builds it with ``tuple.__new__``
    (DESIGN.md §8).
    """

    ciphertext: bytes
    line_number: int
    counter: int


class CounterModeEngine:
    """Counter-mode encrypt/decrypt for 64-byte cache lines.

    Args:
        key: symmetric key held inside the (trusted) processor chip.
        costs: latency/energy cost table for the timing model.
    """

    def __init__(self, key: bytes = b"\x13" * 32,
                 costs: CryptoCosts = DEFAULT_COSTS) -> None:
        if len(key) < 16:
            raise ValueError("key must be at least 16 bytes")
        self._key = bytes(key)
        self._counters = CounterTable()
        # The table's dict and its overflow limit, hoisted for encrypt and
        # decrypt_at (the dict is never reassigned, only mutated).
        self._line_counters = self._counters.counters
        self._counter_limit = 1 << self._counters.width_bits
        self.costs = costs
        #: Pad memo, keyed on ``(line, counter)`` (the key is fixed for the
        #: engine's life).  Encryption advances the write counter, so
        #: encrypt-side pads are always fresh; the hits come from the read
        #: path (``decrypt_at`` re-derives the pad minted at encrypt time)
        #: and from ESD's read-for-comparison decrypts of candidate frames.
        self.pad_cache = MemoCache("counter_pad", 1 << 16)
        # Its backing dict, hoisted for the inlined lookups in encrypt and
        # decrypt_at (never reassigned, only mutated).
        self._pad_data = self.pad_cache._data
        #: Number of encrypt operations performed (for energy accounting).
        self.encrypt_count = 0
        #: Number of decrypt operations performed.
        self.decrypt_count = 0

    @property
    def counters(self) -> CounterTable:
        return self._counters

    def encrypt(self, plaintext: bytes, line_number: int) -> EncryptedLine:
        """Encrypt a line for storage at physical line ``line_number``.

        Advances the line's write counter, so re-encrypting identical
        plaintext at the same address still produces fresh ciphertext.
        """
        # Validation narrowed to the hot ``bytes`` case, and counter
        # advance, pad memo, and XOR inlined (this runs once per encrypted
        # write).  Encrypt-side pads are always cache misses — the counter
        # just advanced — but the lookup keeps the cache warm for the read
        # path's re-derivation.
        if (plaintext.__class__ is not bytes
                or len(plaintext) != CACHE_LINE_SIZE):
            validate_line(plaintext)
        if line_number < 0:
            raise ValueError("line number must be non-negative")
        counters = self._line_counters
        counter = counters.get(line_number, 0) + 1
        if counter >= self._counter_limit:
            raise OverflowError(f"counter overflow on line {line_number}")
        counters[line_number] = counter
        memo_key = (line_number, counter)
        pads = self._pad_data
        pad = pads.get(memo_key)
        if pad is None:
            cache = self.pad_cache
            cache.misses += 1
            pad = _derive_pad_uncached(self._key, line_number, counter)
            if len(pads) >= cache.capacity:
                pads.popitem(last=False)
                cache.evictions += 1
            pads[memo_key] = pad
        else:
            self.pad_cache.hits += 1
            pads.move_to_end(memo_key)
        self.encrypt_count += 1
        return _new_tuple(EncryptedLine, (
            (int.from_bytes(plaintext, "little")
             ^ int.from_bytes(pad, "little")).to_bytes(CACHE_LINE_SIZE,
                                                       "little"),
            line_number, counter))

    def decrypt(self, encrypted: EncryptedLine) -> bytes:
        """Recover the plaintext of a previously encrypted line."""
        if len(encrypted.ciphertext) != CACHE_LINE_SIZE:
            raise ValueError("ciphertext must be one cache line")
        memo_key = (encrypted.line_number, encrypted.counter)
        pad = self.pad_cache.get(memo_key)
        if pad is None:
            pad = _derive_pad_uncached(self._key, *memo_key)
            self.pad_cache.put(memo_key, pad)
        self.decrypt_count += 1
        return _xor_line(encrypted.ciphertext, pad)

    def decrypt_at(self, ciphertext: bytes, line_number: int) -> bytes:
        """Decrypt using the line's *current* counter (normal read path).

        Equivalent to :meth:`decrypt` of an :class:`EncryptedLine` built
        from the current counter, minus the wrapper allocation — this is
        the hot decrypt entry point (every read fill and every ESD
        read-for-comparison lands here).
        """
        if len(ciphertext) != CACHE_LINE_SIZE:
            raise ValueError("ciphertext must be one cache line")
        # Counter lookup, pad memo (with its hit/miss accounting), and
        # XOR inlined — this is the hottest crypto entry point (every
        # read fill and every ESD read-for-comparison).
        counter = self._line_counters.get(line_number, 0)
        memo_key = (line_number, counter)
        pads = self._pad_data
        pad = pads.get(memo_key)
        if pad is None:
            cache = self.pad_cache
            cache.misses += 1
            pad = _derive_pad_uncached(self._key, line_number, counter)
            if len(pads) >= cache.capacity:
                pads.popitem(last=False)
                cache.evictions += 1
            pads[memo_key] = pad
        else:
            self.pad_cache.hits += 1
            pads.move_to_end(memo_key)
        self.decrypt_count += 1
        return (int.from_bytes(ciphertext, "little")
                ^ int.from_bytes(pad, "little")).to_bytes(
                    CACHE_LINE_SIZE, "little")

    # ---------------------------------------------------------------
    # Cost model accessors
    # ---------------------------------------------------------------

    @property
    def encrypt_latency_ns(self) -> float:
        return self.costs.encrypt.latency_ns

    @property
    def encrypt_energy_nj(self) -> float:
        return self.costs.encrypt.energy_nj

    @property
    def decrypt_latency_ns(self) -> float:
        return self.costs.decrypt.latency_ns

    @property
    def decrypt_energy_nj(self) -> float:
        return self.costs.decrypt.energy_nj

    def total_crypto_energy_nj(self) -> float:
        """Energy consumed by all encrypt/decrypt operations so far."""
        return (self.encrypt_count * self.encrypt_energy_nj
                + self.decrypt_count * self.decrypt_energy_nj)


def demonstrate_diffusion(engine: CounterModeEngine, plaintext: bytes,
                          line_a: int, line_b: int) -> Tuple[bytes, bytes]:
    """Encrypt the same plaintext at two addresses; ciphertexts differ.

    This is the property that makes deduplication-after-encryption (DaE)
    unworkable and motivates ESD's dedup-before-encryption pipeline.
    """
    ct_a = engine.encrypt(plaintext, line_a).ciphertext
    ct_b = engine.encrypt(plaintext, line_b).ciphertext
    return ct_a, ct_b
