"""EFIT: the ECC-based Fingerprint Index Table.

The EFIT is ESD's only fingerprint structure, and it lives *entirely* in
the memory-controller cache — nothing is ever looked up in NVMM, which is
the selective-deduplication bet: spend a bounded on-chip budget on the
fingerprints with high reference counts and simply miss the long tail.

Each entry is ``<ECC, Addr_base, Addr_offsets, referH>`` (Figure 7):

* ``ECC`` — the 64-bit per-word ECC of the line (8 bytes),
* ``Addr_base``/``Addr_offsets`` — the packed 40-bit physical line number
  (4 + 1 bytes),
* ``referH`` — a 1-byte saturating remap count; when it would exceed 255
  the incoming line is treated as new (Section III-D).

Entries are managed by the LRCU policy with periodic decay
(:mod:`repro.core.lrcu`).
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Tuple

from ..common.config import ESDConfig, MetadataCacheConfig
from ..common.types import PhysicalAddress, check_physical_line
from ..obs.runtime import RunObservation

#: Bytes per EFIT entry: 8 (ECC) + 4 (Addr_base) + 1 (Addr_offsets) + 1 (referH).
EFIT_ENTRY_SIZE = 14

_new_tuple = tuple.__new__


class EFITEntry(NamedTuple):
    """One EFIT row; :attr:`physical` gives the paper's packed layout."""

    ecc: int
    frame: int
    refer_h: int

    @property
    def physical(self) -> PhysicalAddress:
        return PhysicalAddress.from_line_number(self.frame)


class EFIT:
    """Bounded on-chip index from line ECC to physical frame.

    Args:
        cache_config: supplies the byte budget and probe latency.
        esd_config: LRCU/decay/referH parameters.
    """

    def __init__(self, cache_config: Optional[MetadataCacheConfig] = None,
                 esd_config: Optional[ESDConfig] = None) -> None:
        from ..common.config import MetadataCacheConfig as _MCC, ESDConfig as _EC
        cache_config = cache_config or _MCC()
        esd_config = esd_config or _EC()
        self.capacity = max(1, cache_config.efit_bytes // EFIT_ENTRY_SIZE)
        self.probe_latency_ns = cache_config.probe_latency_ns
        self.refer_h_max = esd_config.refer_h_max
        from .lrcu import LRCUCache
        self._cache: LRCUCache = LRCUCache(
            capacity=self.capacity,
            max_count=esd_config.refer_h_max,
            decay_period=esd_config.decay_period,
            decay_amount=esd_config.decay_amount,
            use_lrcu=esd_config.use_lrcu)
        self.hits = 0
        self.misses = 0
        #: Run scope the hooks record into; see bind_observation.
        self._obs: Optional[RunObservation] = None

    def bind_observation(self, obs: Optional[RunObservation]) -> None:
        """Record this table's and its LRCU cache's events into ``obs``."""
        self._obs = self._cache._obs = obs

    def __len__(self) -> int:
        return len(self._cache)

    def lookup(self, ecc: int) -> Tuple[Optional[EFITEntry], float]:
        """Probe the table; returns (entry or None, probe latency).

        This is the *whole* fingerprint lookup in ESD — a miss means the
        line is treated as non-duplicate immediately, with no NVMM access.
        """
        frame = self._cache.get(ecc)
        obs = self._obs
        if frame is None:
            self.misses += 1
            if obs is not None:
                obs.record(-1.0, "efit", "miss", misses=self.misses)
            return None, self.probe_latency_ns
        self.hits += 1
        refer_h = self._cache.count(ecc)
        if obs is not None:
            obs.record(-1.0, "efit", "hit", frame=frame, refer_h=refer_h)
        return (_new_tuple(EFITEntry, (ecc, frame, refer_h)),
                self.probe_latency_ns)

    def record_duplicate(self, ecc: int) -> int:
        """Bump ``referH`` after a confirmed duplicate; returns new count."""
        return self._cache.touch(ecc)

    def refer_h_saturated(self, ecc: int) -> bool:
        """True when the entry's remap budget (1-byte referH) is exhausted."""
        return self._cache.count(ecc) >= self.refer_h_max

    def insert(self, ecc: int, frame: int) -> Optional[int]:
        """Index a freshly written line; returns any evicted frame."""
        check_physical_line(frame)
        evicted = self._cache.put(ecc, frame, count=1)
        return evicted[1] if evicted is not None else None

    def replace_frame(self, ecc: int, frame: int) -> None:
        """Point an existing entry at a new frame, resetting referH."""
        check_physical_line(frame)
        self._cache.put(ecc, frame, count=1)

    def remove(self, ecc: int) -> None:
        """Invalidate an entry (its frame was recycled)."""
        self._cache.remove(ecc)

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    @property
    def evictions(self) -> int:
        return self._cache.evictions

    @property
    def decay_passes(self) -> int:
        """LRCU decay ("regular refresh") passes run so far."""
        return self._cache.decay_passes

    def onchip_bytes(self) -> int:
        """Current on-chip footprint (entries x 14 bytes)."""
        return len(self._cache) * EFIT_ENTRY_SIZE
