"""ECC substrate: SEC-DED Hamming(72,64) per-word codes and line fingerprints."""

from .codec import (
    ECCFingerprintEngine,
    LineDecodeResult,
    decode_line,
    line_ecc,
    line_ecc_bytes,
    verify_distinct,
    word_eccs,
)
from .faults import (
    FaultOutcome,
    RandomFaultInjector,
    flip_bit,
    flip_bits,
    inject_and_decode,
)
from .hamming import DecodeResult, decode_word, encode_word, syndrome

__all__ = [
    "DecodeResult",
    "ECCFingerprintEngine",
    "FaultOutcome",
    "LineDecodeResult",
    "RandomFaultInjector",
    "decode_line",
    "decode_word",
    "encode_word",
    "flip_bit",
    "flip_bits",
    "inject_and_decode",
    "line_ecc",
    "line_ecc_bytes",
    "syndrome",
    "verify_distinct",
    "word_eccs",
]
