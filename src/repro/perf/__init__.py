"""Content-addressed fast path for the simulator's hot kernels.

``repro.perf`` makes million-request sweeps tractable on one machine by
memoizing the pure-Python kernels that dominate host CPU time (ECC encode /
decode, counter-mode pads, hash fingerprints) in bounded, content-addressed
LRU caches — see :mod:`repro.perf.memo` for the machinery and the soundness
rules.

Run lifecycle
-------------

Every :class:`~repro.sim.session.Session` (and so every
``SimulationEngine.run``) resets the caches when it opens, so each grid
cell starts cold and its hit/miss statistics depend only on the cell,
never on worker scheduling — the property that keeps parallel sweeps
byte-identical to serial runs — and exports a statistics snapshot through
``SimulationResult.extras`` when it finalizes.
"""

from __future__ import annotations

from typing import Dict

from . import memo
from .memo import MemoCache, get_cache

__all__ = [
    "MemoCache",
    "cache_stats",
    "get_cache",
    "reset_caches",
]


def reset_caches() -> None:
    """Drop every kernel cache's entries and counters."""
    memo.reset_all()


def cache_stats(prefix: str = "memo_", *,
                only_touched: bool = True) -> Dict[str, float]:
    """Flat snapshot of all kernel-cache counters (see ``stats_snapshot``)."""
    return memo.stats_snapshot(prefix, only_touched=only_touched)
