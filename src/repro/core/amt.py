"""AMT: the Address Mapping Table with packed 40-bit physical addresses.

The AMT records the many-to-one mapping from logical (CPU-visible) line
addresses to deduplicated physical frames as
``<initAddr, Addr_base, Addr_offsets>`` rows (Figure 7).  Its *home* is in
NVMM; hot entries are buffered in the memory-controller cache
(Section III-B).  Those placement economics come from the generic
:class:`~repro.dedup.mapping.MappingTable`; this subclass adds ESD's packed
representation:

* The home copy is an array indexed by ``initAddr``, so an NVMM-resident
  entry stores only the 5 packed bytes (``Addr_base`` 4 B + ``Addr_offsets``
  1 B) — the 40-bit physical line number, addressing up to 64 TiB.
* Cached entries additionally carry their 8-byte ``initAddr`` tag.
"""

from __future__ import annotations

from typing import Optional

from ..common.config import MetadataCacheConfig
from ..common.types import PhysicalAddress, check_physical_line
from ..dedup.mapping import MappingTable
from ..nvmm.controller import MemoryController

#: Bytes per cached AMT entry: 8 (initAddr tag) + 4 + 1 (packed physical).
AMT_CACHE_ENTRY_SIZE = 13

#: Bytes per NVMM-resident AMT entry: the packed physical address only
#: (the home table is indexed by ``initAddr``).
AMT_HOME_ENTRY_SIZE = PhysicalAddress.PACKED_SIZE


class AddressMappingTable(MappingTable):
    """ESD's AMT: cached hot entries over an NVMM-resident home array."""

    def __init__(self, cache_config: Optional[MetadataCacheConfig],
                 controller: MemoryController) -> None:
        cache_config = cache_config or MetadataCacheConfig()
        super().__init__(cache_bytes=cache_config.amt_bytes,
                         entry_size=AMT_CACHE_ENTRY_SIZE,
                         controller=controller,
                         probe_latency_ns=cache_config.probe_latency_ns)

    def update(self, logical_line: int, frame: int, at_time_ns: float) -> float:
        """Map ``initAddr`` onto a frame, validating the 40-bit packing."""
        check_physical_line(frame)
        return super().update(logical_line, frame, at_time_ns)

    def physical_address(self, logical_line: int) -> Optional[PhysicalAddress]:
        """The packed physical address a logical line maps to (functional)."""
        frame = self.current_frame(logical_line)
        if frame is None:
            return None
        return PhysicalAddress.from_line_number(frame)

    def nvmm_bytes(self) -> int:
        """NVMM footprint: 5 packed bytes per mapped logical line."""
        return self.entry_count * AMT_HOME_ENTRY_SIZE
