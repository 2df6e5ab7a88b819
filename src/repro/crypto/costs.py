"""Latency and energy cost constants for cryptographic operations.

The paper quotes per-cache-line fingerprint latencies of **321 ns for SHA-1**
and **312 ns for MD5** (Section III-C) and models energy after Westermann et
al.'s SHA-candidate power study [56].  DeWrite's CRC is "lightweight": the
paper's Figure 17 attributes ~10 % of DeWrite's write latency to fingerprint
computation, which with the PCM write path at a few hundred nanoseconds puts
the CRC around tens of nanoseconds; we default to 40 ns.

Counter-mode encryption (CME) overlaps one-time-pad generation with other
work; the residual XOR-and-forward latency on the write path is small.  We
default to 40 ns exposed latency and charge full AES energy per line.

Every value is a dataclass field, so experiments can sweep them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..common.errors import ConfigError


@dataclass(frozen=True)
class OperationCostModel:
    """Latency/energy of one operation applied to one 64-byte cache line."""

    latency_ns: float
    energy_nj: float

    def __post_init__(self) -> None:
        if self.latency_ns < 0:
            raise ConfigError("latency must be non-negative")
        if self.energy_nj < 0:
            raise ConfigError("energy must be non-negative")


@dataclass(frozen=True)
class CryptoCosts:
    """The full table of per-line crypto operation costs.

    Defaults follow the paper's quoted latencies and an energy model scaled
    from Westermann et al. [56]: hashing a 64-byte block costs on the order
    of single-digit nanojoules, with CRC roughly an order of magnitude
    cheaper than cryptographic hashes, and AES counter-mode encryption
    between the two.
    """

    sha1: OperationCostModel = field(
        default_factory=lambda: OperationCostModel(latency_ns=321.0, energy_nj=4.6))
    md5: OperationCostModel = field(
        default_factory=lambda: OperationCostModel(latency_ns=312.0, energy_nj=4.4))
    crc32: OperationCostModel = field(
        default_factory=lambda: OperationCostModel(latency_ns=40.0, energy_nj=0.5))
    #: ECC has zero *marginal* cost: the controller computes it regardless of
    #: deduplication, so reusing it as a fingerprint is free.
    ecc: OperationCostModel = field(
        default_factory=lambda: OperationCostModel(latency_ns=0.0, energy_nj=0.0))
    #: Counter-mode encryption of one line: exposed latency after pad overlap.
    encrypt: OperationCostModel = field(
        default_factory=lambda: OperationCostModel(latency_ns=40.0, energy_nj=2.1))
    #: Counter-mode decryption (same structure as encryption).
    decrypt: OperationCostModel = field(
        default_factory=lambda: OperationCostModel(latency_ns=40.0, energy_nj=2.1))
    #: Byte-by-byte comparison of two on-chip 64-byte buffers.  Simple wide
    #: XOR/compare logic; effectively one controller cycle.
    compare: OperationCostModel = field(
        default_factory=lambda: OperationCostModel(latency_ns=2.0, energy_nj=0.05))


#: Module-level default cost table used when a scheme is not handed one.
DEFAULT_COSTS = CryptoCosts()
