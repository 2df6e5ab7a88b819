"""Bounded content-addressed memo caches for the simulator's hot kernels.

The kernels on the simulated write path — per-word Hamming encoding
(:func:`repro.ecc.codec.line_ecc`), SHA-based one-time pads and hash
fingerprints — cost microseconds of *host* CPU per call.  They are pure,
and the content skew ESD itself exploits makes a small content-keyed
cache effective.  :class:`MemoCache` is that cache: a capped LRU mapping
with hit/miss/eviction counters.

Each cache is held by the object that calls its kernel: the counter-mode
engine (``counter_pad``, one pad slot per line), each hash fingerprint
engine (``fp_<name>``) and ESD (``line_ecc``).  So a cache lives in one
scheme graph: a session owns its caches, a checkpoint pickles them with
the graph, and the counters are scheme state, cumulative over the
scheme's life.
:meth:`~repro.dedup.base.DedupScheme.memo_caches` lists a scheme's
caches and :func:`stats_snapshot` flattens them into ``memo_*`` extras.
The kernels stay callable on their own (``line_ecc``,
``_derive_pad_uncached``, each engine's ``_digest``), as the references
the parity tests compare against.

Soundness rules (kept by the owners, tested in
``tests/test_perf_parity.py``):

* Only pure functions are memoized, and the key covers every argument
  the result depends on that is not fixed for the owner's life.  The
  pad store keeps one slot per line, ``line -> (counter, pad)``, and a
  slot serves only the counter stored beside it (its engine's key never
  changes).
* Cached values are immutable (``int``, ``bytes``, tuples of them), so
  sharing one object between callers is safe.
* Exceptions are never cached; a failing call re-executes every time.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Dict, Hashable, Iterable

__all__ = [
    "MemoCache",
    "stats_snapshot",
]


class MemoCache:
    """A size-capped LRU mapping with observability counters.

    Not thread-safe; each cache belongs to one scheme graph, and a
    session is single-consumer.
    """

    __slots__ = ("name", "capacity", "hits", "misses", "evictions", "_data")

    def __init__(self, name: str, capacity: int) -> None:
        if capacity <= 0:
            raise ValueError("cache capacity must be positive")
        self.name = name
        self.capacity = capacity
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._data: "OrderedDict[Hashable, Any]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._data)

    def get(self, key: Hashable, default: Any = None) -> Any:
        """Look ``key`` up, counting a hit or a miss.

        A hit refreshes the key's recency.  ``default`` (``None`` at every
        kernel call site — no kernel caches ``None`` as a value) is returned
        on a miss.
        """
        data = self._data
        value = data.get(key, _MISSING)
        if value is _MISSING:
            self.misses += 1
            return default
        self.hits += 1
        data.move_to_end(key)
        return value

    def put(self, key: Hashable, value: Any) -> None:
        """Insert ``key``, evicting the least-recently-used entry at cap."""
        data = self._data
        if key in data:
            data.move_to_end(key)
            data[key] = value
            return
        if len(data) >= self.capacity:
            data.popitem(last=False)
            self.evictions += 1
        data[key] = value

    @property
    def touched(self) -> bool:
        """True when the cache has seen any lookup."""
        return bool(self.hits or self.misses)

    def stats(self) -> Dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "size": len(self._data),
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"MemoCache({self.name!r}, capacity={self.capacity}, "
                f"size={len(self._data)}, hits={self.hits}, "
                f"misses={self.misses}, evictions={self.evictions})")


_MISSING = object()


def stats_snapshot(caches: Iterable[MemoCache]) -> Dict[str, float]:
    """Flat ``{memo_<name>_<counter>: value}`` snapshot of ``caches``.

    Caches that have seen no lookup are skipped, keeping exported extras
    compact; the rest are reported in name order.
    """
    out: Dict[str, float] = {}
    for cache in sorted(caches, key=lambda cache: cache.name):
        if not cache.touched:
            continue
        for counter, value in cache.stats().items():
            out[f"memo_{cache.name}_{counter}"] = float(value)
    return out
