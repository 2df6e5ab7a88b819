"""Fingerprint engines: SHA-1, MD5, CRC-32, and truncated variants.

Each engine computes a *real* digest over the 64-byte line (so collision
behaviour is genuine, not synthetic) and carries the latency/energy cost
model used by the timing simulation.  The ECC fingerprint lives in
:mod:`repro.ecc.codec` because it is derived from the ECC codec rather than
a hash; it satisfies the same :class:`FingerprintEngine` protocol.

Fingerprint widths matter for two of the paper's analyses:

* Figure 8 compares collision probabilities across fingerprint types; the
  truncated engines (:class:`TruncatedEngine`) let experiments study width
  effects directly.
* Figure 19's metadata overhead depends on stored fingerprint size
  (SHA-1: 20 bytes, DeWrite CRC entry: 16 bytes + 3 bits, ESD ECC: 8 bytes).
"""

from __future__ import annotations

import hashlib
import zlib
from typing import Protocol, runtime_checkable

from ..common.types import validate_line
from ..perf.memo import MemoCache
from .costs import DEFAULT_COSTS, CryptoCosts, OperationCostModel

#: Capacity of each per-engine fingerprint memo cache.
_FP_CACHE_CAPACITY = 1 << 16


@runtime_checkable
class FingerprintEngine(Protocol):
    """Protocol implemented by every fingerprint generator."""

    #: Short identifier ("sha1", "crc32", "ecc", ...).
    name: str
    #: Fingerprint width in bits.
    bits: int
    #: Exposed latency of computing one fingerprint on the write path.
    latency_ns: float
    #: Energy of computing one fingerprint.
    energy_nj: float

    def fingerprint(self, data: bytes) -> int:
        """Digest of a 64-byte cache line as an unsigned integer."""
        ...

    def fingerprint_size_bytes(self) -> int:
        """Bytes needed to store one fingerprint in a metadata table."""
        ...


class _HashEngineBase:
    """Shared plumbing for digest-backed engines.

    ``fingerprint`` is memoized on line content (:mod:`repro.perf.memo`):
    each engine owns a content-addressed cache named ``fp_<name>`` (sound
    — the digest is a pure function of the data), so a simulation that
    fingerprints the same hot line thousands of times hashes it once.
    Subclasses implement :meth:`_digest` with the actual computation.
    """

    name = "abstract"
    bits = 0

    def __init__(self, cost: OperationCostModel) -> None:
        self.latency_ns = cost.latency_ns
        self.energy_nj = cost.energy_nj
        self.cache = MemoCache(f"fp_{self.name}", _FP_CACHE_CAPACITY)

    def _digest(self, data: bytes) -> int:  # pragma: no cover - abstract
        raise NotImplementedError

    def fingerprint(self, data: bytes) -> int:
        cache = self.cache
        # MemoCache.get/put inlined, as the counter-pad memo is in
        # counter_mode (same hit, miss and eviction counts; a digest is
        # never None, so None marks a miss).  An unhashable line (a
        # bytearray) is validated and looked up as ``bytes``.
        entries = cache._data
        try:
            value = entries.get(data)
        except TypeError:
            return self.fingerprint(validate_line(data))
        if value is None:
            cache.misses += 1
            value = self._digest(data)
            if len(entries) >= cache.capacity:
                entries.popitem(last=False)
                cache.evictions += 1
            entries[data] = value
        else:
            cache.hits += 1
            entries.move_to_end(data)
        return value

    def fingerprint_size_bytes(self) -> int:
        return (self.bits + 7) // 8

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"{type(self).__name__}(bits={self.bits}, "
                f"latency_ns={self.latency_ns})")


class SHA1Engine(_HashEngineBase):
    """Full 160-bit SHA-1, the fingerprint of the Dedup_SHA1 scheme."""

    name = "sha1"
    bits = 160

    def __init__(self, costs: CryptoCosts = DEFAULT_COSTS) -> None:
        super().__init__(costs.sha1)

    def _digest(self, data: bytes) -> int:
        validate_line(data)
        return int.from_bytes(hashlib.sha1(data).digest(), "big")


class MD5Engine(_HashEngineBase):
    """Full 128-bit MD5 (evaluated in the paper's motivation)."""

    name = "md5"
    bits = 128

    def __init__(self, costs: CryptoCosts = DEFAULT_COSTS) -> None:
        super().__init__(costs.md5)

    def _digest(self, data: bytes) -> int:
        validate_line(data)
        return int.from_bytes(hashlib.md5(data).digest(), "big")


class CRC32Engine(_HashEngineBase):
    """32-bit CRC, the lightweight fingerprint DeWrite uses.

    CRC's short width gives it the highest collision probability of the
    compared fingerprints (Figure 8), which is why DeWrite must confirm
    candidate duplicates with a read-and-compare.
    """

    name = "crc32"
    bits = 32

    def __init__(self, costs: CryptoCosts = DEFAULT_COSTS) -> None:
        super().__init__(costs.crc32)

    def _digest(self, data: bytes) -> int:
        validate_line(data)
        return zlib.crc32(data) & 0xFFFFFFFF


class TruncatedEngine(_HashEngineBase):
    """A width-truncated view of another engine (for collision studies).

    Delegates to the inner engine's (memoized) ``fingerprint``; the mask is
    too cheap to be worth a second cache, so this engine owns none.
    """

    def __init__(self, inner: FingerprintEngine, bits: int) -> None:
        if not 1 <= bits <= inner.bits:
            raise ValueError(
                f"cannot truncate {inner.name} ({inner.bits} bits) to {bits}")
        self.latency_ns = inner.latency_ns
        self.energy_nj = inner.energy_nj
        self._inner = inner
        self.bits = bits
        self.name = f"{inner.name}_{bits}"

    def fingerprint(self, data: bytes) -> int:
        return self._inner.fingerprint(data) & ((1 << self.bits) - 1)


def make_engine(name: str, costs: CryptoCosts = DEFAULT_COSTS) -> FingerprintEngine:
    """Factory for the named fingerprint engine.

    Accepts ``sha1``, ``md5``, ``crc32``, and ``ecc``.
    """
    if name == "sha1":
        return SHA1Engine(costs)
    if name == "md5":
        return MD5Engine(costs)
    if name == "crc32":
        return CRC32Engine(costs)
    if name == "ecc":
        # Local import: ecc depends on common only, no cycle, but keep the
        # crypto package importable without the codec tables built.
        from ..ecc.codec import ECCFingerprintEngine
        return ECCFingerprintEngine()
    raise ValueError(f"unknown fingerprint engine {name!r}")
