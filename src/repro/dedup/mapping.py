"""Logical-to-physical mapping with a hot-entry cache and NVMM home.

Deduplication remaps logical cache-line addresses onto shared physical
frames, so every dedup scheme needs an address-mapping table.  The table's
*home* is in NVMM (it must survive and it is large); a bounded on-chip cache
holds hot entries.  Cache behaviour is write-back: updates dirty the cached
entry, and evicting a dirty entry costs one NVMM metadata write.  Misses on
the read path cost one NVMM metadata read.

This generic table serves Dedup_SHA1 and DeWrite directly; ESD's AMT
(:mod:`repro.core.amt`) builds on it, adding the paper's packed
``Addr_base``/``Addr_offsets`` physical address representation.

Reference counting of physical frames lives in :class:`FrameRefcounts`
(shared by all dedup schemes): remapping a logical address away from a frame
drops a reference, and frames are recycled when the last reference goes.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Optional, Tuple

from ..nvmm.allocator import FrameAllocator
from ..nvmm.controller import MemoryController
from ..obs.runtime import RunObservation


class _CachedMapping:
    """One cached mapping entry.

    A slotted class built positionally: one is built per mapping
    install, so every unique write pays for its construction.
    """

    __slots__ = ("frame", "dirty")

    def __init__(self, frame: int, dirty: bool) -> None:
        self.frame = frame
        self.dirty = dirty


class MappingTable:
    """logical line number -> physical frame, cached + NVMM-resident.

    Args:
        cache_bytes: capacity of the on-chip hot-entry cache.
        entry_size: bytes one mapping entry occupies (determines how many
            entries the cache holds, and the NVMM footprint per entry).
        controller: charged for NVMM metadata accesses.
        probe_latency_ns: latency of an on-chip cache probe.
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
        self._cache: "OrderedDict[int, _CachedMapping]" = OrderedDict()
        self._home: Dict[int, int] = {}
        self.cache_hits = 0
        self.cache_misses = 0
        self.nvmm_reads = 0
        self.nvmm_writes = 0
        # NVMM metadata is written at 64-byte line granularity: several
        # entries coalesce into one PCM write through the controller's
        # write-combining buffer.
        self._entries_per_line = max(1, 64 // entry_size)
        self._pending_dirty = 0
        #: Run scope the hooks record into; set by the owning scheme.
        self._obs: Optional[RunObservation] = None

    # ------------------------------------------------------------------
    # Internal cache plumbing
    # ------------------------------------------------------------------

    def _evict_if_needed(self, at_time_ns: float) -> float:
        """Make room in the cache; returns the time after any write-back.

        Dirty write-backs coalesce: one PCM metadata write covers a full
        64-byte metadata line's worth of entries.
        """
        t = at_time_ns
        while len(self._cache) >= self.capacity:
            victim_key, victim = self._cache.popitem(last=False)
            if victim.dirty:
                self._home[victim_key] = victim.frame
                self._pending_dirty += 1
                if self._pending_dirty >= self._entries_per_line:
                    self._pending_dirty = 0
                    self.nvmm_writes += 1
                    t = self._controller.metadata_write(victim_key,
                                                        t).completion_ns
        return t

    def _install(self, logical_line: int, frame: int, dirty: bool,
                 at_time_ns: float) -> float:
        # Both callers install only a line the cache misses, so the new
        # entry lands at the most-recent end.
        t = self._evict_if_needed(at_time_ns)
        self._cache[logical_line] = _CachedMapping(frame, dirty)
        return t

    # ------------------------------------------------------------------
    # Public interface
    # ------------------------------------------------------------------

    def lookup(self, logical_line: int,
               at_time_ns: float) -> Tuple[Optional[int], float, bool]:
        """Translate a logical line.

        Returns ``(frame_or_None, completion_time, cache_hit)``.  A cache
        miss costs one NVMM metadata read (the entry may or may not exist
        there; absence is only known after the read) and installs the entry
        on success.
        """
        t = at_time_ns + self.probe_latency_ns
        cached = self._cache.get(logical_line)
        obs = self._obs
        if cached is not None:
            self._cache.move_to_end(logical_line)
            self.cache_hits += 1
            if obs is not None:
                obs.record(t, "amt", "hit", line=logical_line)
            return cached.frame, t, True
        self.cache_misses += 1
        self.nvmm_reads += 1
        if obs is not None:
            obs.record(t, "amt", "miss", line=logical_line)
        t = self._controller.metadata_read(logical_line, t).completion_ns
        frame = self._home.get(logical_line)
        if frame is not None:
            t = self._install(logical_line, frame, dirty=False, at_time_ns=t)
        return frame, t, False

    def update(self, logical_line: int, frame: int,
               at_time_ns: float) -> float:
        """Set/replace a mapping (write path); returns completion time.

        The update lands in the cache (dirtying the entry); NVMM cost is
        deferred to dirty eviction.
        """
        t = at_time_ns + self.probe_latency_ns
        cached = self._cache.get(logical_line)
        if cached is not None:
            cached.frame = frame
            cached.dirty = True
            self._cache.move_to_end(logical_line)
            return t
        return self._install(logical_line, frame, dirty=True, at_time_ns=t)

    def current_frame(self, logical_line: int) -> Optional[int]:
        """Functional view (no timing): the mapping as of now."""
        cached = self._cache.get(logical_line)
        if cached is not None:
            return cached.frame
        return self._home.get(logical_line)

    @property
    def entry_count(self) -> int:
        """Distinct mappings across cache and home."""
        keys = set(self._home)
        keys.update(self._cache)
        return len(keys)

    @property
    def hit_rate(self) -> float:
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 0.0

    def nvmm_bytes(self) -> int:
        """NVMM-resident metadata footprint (every mapping has a home slot)."""
        return self.entry_count * self.entry_size

    def onchip_bytes(self) -> int:
        return min(len(self._cache), self.capacity) * self.entry_size


class FrameRefcounts:
    """Reference counts over physical frames, recycling freed frames."""

    def __init__(self, allocator: FrameAllocator) -> None:
        self._allocator = allocator
        self._counts: Dict[int, int] = {}

    def acquire(self, frame: int) -> int:
        """Add a reference; returns the new count."""
        count = self._counts.get(frame, 0) + 1
        self._counts[frame] = count
        return count

    def release(self, frame: int) -> int:
        """Drop a reference; frees the frame at zero.  Returns new count."""
        count = self._counts.get(frame)
        if count is None or count <= 0:
            raise ValueError(f"frame {frame} has no outstanding references")
        count -= 1
        if count == 0:
            del self._counts[frame]
            self._allocator.free(frame)
        else:
            self._counts[frame] = count
        return count

    def count(self, frame: int) -> int:
        return self._counts.get(frame, 0)

    def live_frames(self) -> int:
        return len(self._counts)
