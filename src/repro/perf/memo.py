"""Bounded content-addressed memo caches for the simulator's hot kernels.

The pure-Python kernels on the simulated write path — per-word Hamming
encoding (:func:`repro.ecc.codec.line_ecc`), clean-line decode, SHA-based
one-time pads, and hash fingerprints — cost microseconds of *host* CPU per
call.  They are all pure functions of their arguments, and the workload skew
ESD itself exploits (a small set of line contents accounts for most kernel
invocations) makes a small content-keyed cache extremely effective: the
``BENCH_perf_smoke.json`` micro-benchmarks show 3.5-14x per kernel.

This module provides the shared machinery:

* :class:`MemoCache` — a capped LRU mapping with hit/miss/eviction counters.
* A process-global registry of named caches (:func:`get_cache`), so the
  simulation engine can reset and snapshot every kernel cache uniformly.

The caches are always on: the uncached kernels stay callable
(``line_ecc_uncached``, ``decode_line_uncached``, ``_derive_pad_uncached``
and each engine's ``_digest``) as the references the parity tests compare
against.

Soundness rules (enforced by the call sites, tested in
``tests/test_perf_parity.py``):

* Only *pure* functions are memoized, and the cache key covers **every**
  argument the result depends on.  In particular ``decode_line`` is keyed on
  ``(data, ecc)`` — not on ``data`` alone — so a fault-injected line (same
  stored ECC, corrupted data, or vice versa) can never hit a stale
  clean-decode result.
* Cached values are immutable (``int``, ``bytes``, frozen dataclasses), so
  sharing one object between callers is safe.
* Exceptions are never cached; a failing call re-executes every time.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Dict, Hashable, List

__all__ = [
    "MemoCache",
    "get_cache",
    "registered_caches",
    "reset_all",
    "state_export",
    "state_import",
    "stats_snapshot",
]


class MemoCache:
    """A size-capped LRU mapping with observability counters.

    Not thread-safe; the simulator parallelises across *processes* (each
    worker owns its own module state), so no locking is needed on the hot
    path.
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

    def reset(self) -> None:
        """Drop all entries and zero the counters."""
        self._data.clear()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    @property
    def touched(self) -> bool:
        """True when the cache saw any traffic since its last reset."""
        return bool(self.hits or self.misses)

    def stats(self) -> Dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "size": len(self._data),
        }

    def __reduce__(self):
        """Pickle as a *registry reference*, never by value.

        Objects that lazily bind a cache (e.g. the fingerprinters'
        ``self._cache``) get pickled inside session checkpoints; a
        by-value copy would detach them from the process-global registry
        on restore, silently forking counters and contents.  Resolving
        through :func:`get_cache` re-binds to the live registry instance
        — whose entries/counters the checkpoint restores separately via
        :func:`state_import`.
        """
        return (get_cache, (self.name, self.capacity))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"MemoCache({self.name!r}, capacity={self.capacity}, "
                f"size={len(self._data)}, hits={self.hits}, "
                f"misses={self.misses}, evictions={self.evictions})")


_MISSING = object()

_REGISTRY: Dict[str, MemoCache] = {}


def get_cache(name: str, capacity: int) -> MemoCache:
    """Create (or return) the process-global cache registered under ``name``.

    The first caller fixes the capacity; later callers share the instance.
    """
    cache = _REGISTRY.get(name)
    if cache is None:
        cache = MemoCache(name, capacity)
        _REGISTRY[name] = cache
    return cache


def registered_caches() -> List[MemoCache]:
    """All registered caches (stable registration order)."""
    return list(_REGISTRY.values())


def reset_all() -> None:
    """Reset every registered cache (entries and counters)."""
    for cache in _REGISTRY.values():
        cache.reset()


def state_export() -> Dict[str, Dict[str, Any]]:
    """Snapshot every registered cache's entries and counters.

    Used by mid-run checkpoints: the memoized kernels are pure, but cache
    *hit/miss counters* feed exported run metrics, so a bit-exact resume
    must restore the caches exactly as they stood.  Entry order (LRU
    recency) is preserved — an ``OrderedDict`` copy keeps it.
    """
    return {
        name: {
            "capacity": cache.capacity,
            "hits": cache.hits,
            "misses": cache.misses,
            "evictions": cache.evictions,
            "entries": OrderedDict(cache._data),
        }
        for name, cache in _REGISTRY.items()
    }


def state_import(state: Dict[str, Dict[str, Any]]) -> None:
    """Restore a :func:`state_export` snapshot into the live registry.

    Caches not present in the snapshot are reset, so the registry as a
    whole matches the exporting process.  Entries are written **in place**
    (``_data`` is cleared and refilled, never reassigned): call sites may
    hold direct aliases to a cache's mapping — e.g.
    ``repro.crypto.counter_mode`` binds ``_PAD_CACHE._data`` at import
    time — and reassignment would silently detach them.
    """
    for name, cache in _REGISTRY.items():
        if name not in state:
            cache.reset()
    for name, snap in state.items():
        cache = get_cache(name, snap["capacity"])
        cache.hits = snap["hits"]
        cache.misses = snap["misses"]
        cache.evictions = snap["evictions"]
        cache._data.clear()
        cache._data.update(snap["entries"])


def stats_snapshot(prefix: str = "memo_", *,
                   only_touched: bool = True) -> Dict[str, float]:
    """Flat ``{prefix<name>_<counter>: value}`` snapshot of every cache.

    ``only_touched`` skips caches with no traffic, keeping exported extras
    compact and — because the engine resets caches at the start of each run
    — deterministic for a given (trace, scheme, config) cell regardless of
    worker scheduling.
    """
    out: Dict[str, float] = {}
    for name in sorted(_REGISTRY):
        cache = _REGISTRY[name]
        if only_touched and not cache.touched:
            continue
        for counter, value in cache.stats().items():
            out[f"{prefix}{name}_{counter}"] = float(value)
    return out
