"""Epoch draining and batched precompute for the simulation session.

An *epoch* is a fixed-size chunk of the request stream
(:data:`EPOCH_SIZE` lines), buffered by the session so a 10^7-request
trace is never materialized whole.  Per epoch the
:class:`EpochPrecomputer` lifts the unique write contents out of the
request objects and batch-computes the pure content-keyed kernels the
scheme will need — bit-parallel line ECC for ESD-family schemes, hash
digests for the full-dedup schemes — priming the :mod:`repro.perf` memo
caches so the scalar per-line resolution that follows hits every one.

Ordering guarantee: precompute only touches *pure* kernels (content in,
value out) and the memo caches that front them.  Request order, bank
state, metadata recency, and every float accumulation are handled by the
per-line resolution, which is what keeps summary rows bit-identical to a
run without priming (only the ``memo_*``/``vec_*`` statistics differ).

Scalar fallback: when a scheme exposes no content-keyed engines
(Baseline has no fingerprints; DaE digests ciphertext), the epoch's
writes are counted in ``scalar_fallback_lines`` and resolved entirely by
the scalar kernels — counted, never guessed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from ..common.types import MemoryRequest

__all__ = ["EPOCH_SIZE", "EpochPrecomputer", "VecStats"]

#: Requests per session epoch, and the serve micro-batch hint.
#: Epoch boundaries change batching, never simulated arithmetic.
EPOCH_SIZE = 1024


@dataclass
class VecStats:
    """Per-run accounting of the epoch-batched front end.

    Exported through ``SimulationResult.extras`` (``vec_*`` keys) and the
    observability registry, so ``repro report`` shows how much of a run
    actually vectorized.
    """

    epochs: int = 0
    requests: int = 0
    writes: int = 0
    #: Unique write contents seen per epoch, summed over epochs.
    unique_write_contents: int = 0
    #: Line ECCs computed by the bit-parallel numpy kernel.
    batched_ecc_lines: int = 0
    #: Hash digests computed by the batched priming pass.
    batched_fp_lines: int = 0
    #: Writes resolved with their content kernels primed by a batch.
    covered_writes: int = 0
    #: Writes resolved entirely by scalar kernels (the scheme exposes no
    #: content-keyed engines to prime).
    scalar_fallback_lines: int = 0
    min_epoch_size: int = 0
    max_epoch_size: int = 0

    @property
    def kernel_occupancy(self) -> float:
        """Fraction of writes whose content kernels ran batched."""
        if self.writes == 0:
            return 0.0
        return self.covered_writes / self.writes

    def observe_epoch(self, size: int) -> None:
        self.epochs += 1
        self.requests += size
        if self.min_epoch_size == 0 or size < self.min_epoch_size:
            self.min_epoch_size = size
        if size > self.max_epoch_size:
            self.max_epoch_size = size

    def snapshot(self, prefix: str = "vec_") -> Dict[str, float]:
        """Flat ``{prefix<counter>: value}`` view for result extras."""
        return {
            f"{prefix}epochs": float(self.epochs),
            f"{prefix}requests": float(self.requests),
            f"{prefix}writes": float(self.writes),
            f"{prefix}unique_write_contents": float(self.unique_write_contents),
            f"{prefix}batched_ecc_lines": float(self.batched_ecc_lines),
            f"{prefix}batched_fp_lines": float(self.batched_fp_lines),
            f"{prefix}covered_writes": float(self.covered_writes),
            f"{prefix}scalar_fallback_lines": float(self.scalar_fallback_lines),
            f"{prefix}min_epoch_size": float(self.min_epoch_size),
            f"{prefix}max_epoch_size": float(self.max_epoch_size),
            f"{prefix}kernel_occupancy": self.kernel_occupancy,
        }


class EpochPrecomputer:
    """Batched kernel front end for one simulation run.

    Binds to the scheme's content-keyed engines once
    (``DedupScheme.vec_prime_engines``), then serves each epoch: dedupe
    the epoch's write contents, hand the unique ones to every engine's
    ``prime_batch``, and account what was batched versus left to scalar
    fallback.
    """

    __slots__ = ("_engines", "_stats")

    def __init__(self, scheme: object, stats: VecStats) -> None:
        self._stats = stats
        hints = getattr(scheme, "vec_prime_engines", None)
        self._engines = tuple(hints()) if hints is not None else ()

    def precompute(self, epoch: List[MemoryRequest]) -> None:
        """Run the batched kernels for one epoch (before its resolution)."""
        stats = self._stats
        stats.observe_epoch(len(epoch))
        contents = [r.data for r in epoch if r.data is not None]
        writes = len(contents)
        if not writes:
            return
        stats.writes += writes
        if not self._engines:
            stats.scalar_fallback_lines += writes
            return
        unique = list(dict.fromkeys(contents))
        stats.unique_write_contents += len(unique)
        for engine in self._engines:
            primed = engine.prime_batch(unique)
            if getattr(engine, "name", "") == "ecc":
                stats.batched_ecc_lines += primed
            else:
                stats.batched_fp_lines += primed
        stats.covered_writes += writes
