"""Full-deduplication fingerprint index: cache front + NVMM-resident store.

Dedup_SHA1 and DeWrite perform *full* deduplication: every unique line's
fingerprint is indexed, the whole index lives in NVMM, and a small
memory-controller cache fronts it.  The consequence the paper hammers on
(Figure 5) is the **fingerprint NVMM_lookup bottleneck**: when a write's
fingerprint misses the cache, the scheme must consult the NVMM-resident
index *before it can declare the line unique* — one PCM metadata read on
the critical write path, whether or not the fingerprint exists.

The store tracks which duplicates were identified by the cache versus by
the NVMM index, which is exactly the split Figure 5 plots.
"""

from __future__ import annotations

import enum
from collections import OrderedDict
from typing import Dict, NamedTuple, Optional, Tuple

from ..nvmm.controller import MemoryController

_new_tuple = tuple.__new__


class LookupWhere(enum.Enum):
    """Where a fingerprint lookup was resolved."""

    CACHE = "cache"
    NVMM = "nvmm"
    ABSENT = "absent"


class LookupResult(NamedTuple):
    """Outcome of one fingerprint lookup.

    A ``NamedTuple`` like :class:`~repro.nvmm.bank.BankService`: one is
    built per fingerprint lookup, with ``tuple.__new__`` (DESIGN.md §8).
    """

    frame: Optional[int]
    completion_ns: float
    where: LookupWhere

    @property
    def found(self) -> bool:
        return self.frame is not None


class FullFingerprintStore:
    """fingerprint -> physical frame, with an LRU cache over an NVMM home.

    Args:
        cache_bytes: on-chip fingerprint cache capacity.
        entry_size: bytes per index entry (fingerprint + frame + refcount);
            20 B SHA-1 digests make Dedup_SHA1 entries much fatter than
            DeWrite's packed (16 B + 3 bit) entries.
        controller: charged for the NVMM metadata traffic.
        probe_latency_ns: on-chip probe latency.
    """

    def __init__(self, cache_bytes: int, entry_size: int,
                 controller: MemoryController,
                 probe_latency_ns: float = 1.0) -> None:
        if cache_bytes <= 0 or entry_size <= 0:
            raise ValueError("cache_bytes and entry_size must be positive")
        self.entry_size = entry_size
        self.capacity = max(1, cache_bytes // entry_size)
        self.probe_latency_ns = probe_latency_ns
        self._controller = controller
        self._cache: "OrderedDict[int, int]" = OrderedDict()
        self._home: Dict[int, int] = {}
        # Figure 5 counters.
        self.cache_hits = 0
        self.nvmm_hits = 0
        self.absent_lookups = 0
        self.nvmm_lookup_ops = 0
        # Index insertions coalesce into 64-byte metadata-line writes.
        self._entries_per_line = max(1, 64 // entry_size)
        self._pending_inserts = 0
        self.nvmm_insert_writes = 0

    def _install(self, fingerprint: int, frame: int) -> None:
        if fingerprint in self._cache:
            self._cache.move_to_end(fingerprint)
            self._cache[fingerprint] = frame
            return
        while len(self._cache) >= self.capacity:
            self._cache.popitem(last=False)
        self._cache[fingerprint] = frame

    def lookup(self, fingerprint: int, at_time_ns: float) -> LookupResult:
        """Resolve a fingerprint, charging an NVMM read on cache miss.

        The NVMM read happens on *every* cache miss — proving absence
        requires consulting the full index, which is the cost full
        deduplication cannot avoid.
        """
        t = at_time_ns + self.probe_latency_ns
        frame = self._cache.get(fingerprint)
        if frame is not None:
            self._cache.move_to_end(fingerprint)
            self.cache_hits += 1
            return _new_tuple(LookupResult, (frame, t, LookupWhere.CACHE))
        self.nvmm_lookup_ops += 1
        t = self._controller.metadata_read(fingerprint, t).completion_ns
        frame = self._home.get(fingerprint)
        if frame is not None:
            self.nvmm_hits += 1
            self._install(fingerprint, frame)
            return _new_tuple(LookupResult, (frame, t, LookupWhere.NVMM))
        self.absent_lookups += 1
        return _new_tuple(LookupResult, (None, t, LookupWhere.ABSENT))

    def insert(self, fingerprint: int, frame: int,
               at_time_ns: float) -> float:
        """Index a new unique line.

        Home-copy writes coalesce: one PCM metadata write lands per full
        64-byte metadata line's worth of new entries (append-style index
        growth combines well in the controller's write buffer).
        """
        self._home[fingerprint] = frame
        self._install(fingerprint, frame)
        self._pending_inserts += 1
        if self._pending_inserts >= self._entries_per_line:
            self._pending_inserts = 0
            self.nvmm_insert_writes += 1
            return self._controller.metadata_write(fingerprint,
                                                   at_time_ns).completion_ns
        return at_time_ns

    def remove(self, fingerprint: int, frame: int) -> None:
        """Drop the entry of a freed ``frame``.  Functional only —
        invalidation piggybacks on the frame-free path.

        Only an entry that points at ``frame`` goes: after a fingerprint
        collision the entry may point at the colliding line's frame, which
        is still live.
        """
        if self._home.get(fingerprint) == frame:
            del self._home[fingerprint]
        if self._cache.get(fingerprint) == frame:
            del self._cache[fingerprint]

    def contains(self, fingerprint: int) -> bool:
        return fingerprint in self._cache or fingerprint in self._home

    @property
    def entry_count(self) -> int:
        return len(self._home)

    def nvmm_bytes(self) -> int:
        """NVMM-resident index footprint."""
        return len(self._home) * self.entry_size

    def onchip_bytes(self) -> int:
        return len(self._cache) * self.entry_size

    def duplicate_filter_split(self) -> Tuple[int, int]:
        """(duplicates filtered by cache, filtered by NVMM index) — Fig. 5."""
        return self.cache_hits, self.nvmm_hits
