"""Least-Reference-Count-Used (LRCU) replacement policy.

ESD's fingerprint cache (the EFIT) keeps the fingerprints *worth keeping*:
those with high reference counts, per the content-locality observation that
a tiny fraction of unique lines absorbs most writes.  LRCU evicts the entry
with the lowest reference count, breaking ties by recency (least recently
used first), so reference-count-1 entries — which full-dedup schemes pay to
index even though they are never matched again — are the first to go.

The structure is the classic O(1) LFU design: one recency-ordered bucket
per reference count plus a running minimum.  A periodic *decay* pass
subtracts a fixed value from every count so stale former-hot entries drift
back toward eviction ("ESD performs a regular refresh of all cache items").

The decay epoch is driven by *operations* (lookups, count bumps, and
insertions) — the paper specifies a regular refresh, and a
read/touch-heavy phase must not pin stale high-count fingerprints forever.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Generic, Hashable, Iterator, Optional, Tuple, TypeVar

from ..obs.runtime import RunObservation

K = TypeVar("K", bound=Hashable)
V = TypeVar("V")


class _Node(Generic[V]):
    """One cache entry: its value and reference count.

    A slotted class built positionally: one is built per insertion, so
    every EFIT insert pays for its construction.
    """

    __slots__ = ("value", "count")

    def __init__(self, value: V, count: int) -> None:
        self.value = value
        self.count = count


class LRCUCache(Generic[K, V]):
    """Bounded mapping with least-reference-count-used eviction.

    Args:
        capacity: maximum number of entries.
        max_count: reference counts saturate here (ESD's 1-byte ``referH``).
        decay_period: one decay pass runs per this many epoch events —
            every lookup, count bump, and insertion, the paper's
            *periodic* refresh (0 disables decay).
        decay_amount: subtracted from every count during a decay pass
            (counts floor at 1).
        use_lrcu: when False the cache degrades to plain LRU — the
            "without LRCU" comparison series of the paper's Figure 18(a).
    """

    def __init__(self, capacity: int, *, max_count: int = 255,
                 decay_period: int = 4096, decay_amount: int = 1,
                 use_lrcu: bool = True) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        if max_count < 1:
            raise ValueError("max_count must be at least 1")
        if decay_period < 0 or decay_amount < 0:
            raise ValueError("decay parameters must be non-negative")
        self.capacity = capacity
        self.max_count = max_count
        self.decay_period = decay_period
        self.decay_amount = decay_amount
        self.use_lrcu = use_lrcu
        self._nodes: Dict[K, _Node[V]] = {}
        # count -> recency-ordered keys (first = least recently used).
        self._buckets: Dict[int, "OrderedDict[K, None]"] = {}
        self._min_count = 1
        self._ops_since_decay = 0
        self.evictions = 0
        self.decay_passes = 0
        self._touch_counter = 0
        self._touch_ordinals: Dict[K, int] = {}
        #: Run scope the hooks record into; set by the owning EFIT.
        self._obs: Optional[RunObservation] = None

    # ------------------------------------------------------------------
    # Bucket plumbing
    # ------------------------------------------------------------------

    def _bucket(self, count: int) -> "OrderedDict[K, None]":
        bucket = self._buckets.get(count)
        if bucket is None:
            bucket = OrderedDict()
            self._buckets[count] = bucket
        return bucket

    def _remove_from_bucket(self, key: K, count: int) -> None:
        bucket = self._buckets.get(count)
        if bucket is not None:
            bucket.pop(key, None)
            if not bucket:
                del self._buckets[count]

    def _victim_key(self) -> K:
        """Choose the eviction victim under the active policy."""
        if not self.use_lrcu:
            # Plain LRU: the globally least-recently-touched key.  Recency
            # within buckets is maintained, so scan buckets for the oldest
            # touch ordinal.
            oldest_key: Optional[K] = None
            oldest_ordinal = None
            for bucket in self._buckets.values():
                key = next(iter(bucket))
                ordinal = self._touch_ordinals[key]
                if oldest_ordinal is None or ordinal < oldest_ordinal:
                    oldest_ordinal = ordinal
                    oldest_key = key
            assert oldest_key is not None
            return oldest_key
        while self._min_count not in self._buckets:
            self._min_count += 1
            if self._min_count > self.max_count:
                # All buckets empty would mean the cache is empty.
                raise AssertionError("victim requested from empty cache")
        return next(iter(self._buckets[self._min_count]))

    # ------------------------------------------------------------------
    # Public interface
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._nodes)

    def __contains__(self, key: K) -> bool:
        return key in self._nodes

    def get(self, key: K) -> Optional[V]:
        """Return the value without altering the reference count.

        Recency is refreshed (ties inside a count bucket break by LRU).
        Every lookup — hit or miss — advances the decay epoch.
        """
        node = self._nodes.get(key)
        if node is None:
            self._tick_epoch()
            return None
        bucket = self._buckets[node.count]
        bucket.move_to_end(key)
        self._touch(key)
        value = node.value
        self._tick_epoch()
        return value

    def count(self, key: K) -> int:
        """The entry's current reference count (0 when absent)."""
        node = self._nodes.get(key)
        return node.count if node else 0

    def touch(self, key: K) -> int:
        """Increment a present key's reference count (saturating).

        Returns the new count.  Raises KeyError when absent.
        """
        node = self._nodes.get(key)
        if node is None:
            raise KeyError(key)
        if node.count < self.max_count:
            self._remove_from_bucket(key, node.count)
            node.count += 1
            self._bucket(node.count)[key] = None
        else:
            self._buckets[node.count].move_to_end(key)
        self._touch(key)
        count = node.count
        self._tick_epoch()
        return count

    def put(self, key: K, value: V, *, count: int = 1) -> Optional[Tuple[K, V]]:
        """Insert (or replace) an entry; returns the evicted (key, value).

        New entries start at ``count`` (default 1 — a just-written line has
        one reference).  Insertion may trigger a decay pass.
        """
        if count < 1 or count > self.max_count:
            raise ValueError(f"count must be 1..{self.max_count}")
        existing = self._nodes.get(key)
        if existing is not None:
            self._remove_from_bucket(key, existing.count)
            existing.value = value
            existing.count = count
            self._bucket(count)[key] = None
            self._min_count = min(self._min_count, count)
            self._touch(key)
            self._tick_epoch()
            return None

        evicted: Optional[Tuple[K, V]] = None
        if len(self._nodes) >= self.capacity:
            victim = self._victim_key()
            victim_node = self._nodes.pop(victim)
            self._remove_from_bucket(victim, victim_node.count)
            self._touch_ordinals.pop(victim, None)
            self.evictions += 1
            evicted = (victim, victim_node.value)
            obs = self._obs
            if obs is not None:
                obs.record(-1.0, "lrcu", "evict",
                           victim_count=victim_node.count,
                           evictions=self.evictions)

        self._nodes[key] = _Node(value, count)
        self._bucket(count)[key] = None
        self._min_count = min(self._min_count, count)
        self._touch(key)

        self._tick_epoch()
        return evicted

    def remove(self, key: K) -> Optional[V]:
        """Drop an entry (e.g. its physical frame was recycled)."""
        node = self._nodes.pop(key, None)
        if node is None:
            return None
        self._remove_from_bucket(key, node.count)
        self._touch_ordinals.pop(key, None)
        return node.value

    def items(self) -> Iterator[Tuple[K, V, int]]:
        """Iterate (key, value, count) snapshots."""
        for key, node in self._nodes.items():
            yield key, node.value, node.count

    # ------------------------------------------------------------------
    # Decay ("regular refresh")
    # ------------------------------------------------------------------

    def _tick_epoch(self) -> None:
        """Advance the decay epoch by one event; run a pass when due."""
        if not self.decay_period:
            return
        self._ops_since_decay += 1
        if self._ops_since_decay >= self.decay_period:
            self._decay()

    def _decay(self) -> None:
        self._ops_since_decay = 0
        if not self.decay_amount:
            return
        self.decay_passes += 1
        new_buckets: Dict[int, "OrderedDict[K, None]"] = {}
        for count in sorted(self._buckets):
            decayed = max(1, count - self.decay_amount)
            target = new_buckets.setdefault(decayed, OrderedDict())
            for key in self._buckets[count]:
                self._nodes[key].count = decayed
                target[key] = None
        self._buckets = new_buckets
        self._min_count = min(new_buckets) if new_buckets else 1
        obs = self._obs
        if obs is not None:
            obs.emit(-1.0, obs.request_id, "lrcu", "decay_pass",
                     {"pass": self.decay_passes,
                      "entries": len(self._nodes),
                      "decay_amount": self.decay_amount})

    # ------------------------------------------------------------------
    # Recency bookkeeping (global ordinals, used by the plain-LRU mode)
    # ------------------------------------------------------------------

    def _touch(self, key: K) -> None:
        self._touch_counter += 1
        self._touch_ordinals[key] = self._touch_counter
