"""Multiprogrammed workload mixes.

The paper evaluates an 8-core system; real deployments co-run several
applications, which changes what the dedup structures see: content pools
stay private per application (no cross-app duplicates unless both write
zeros), while the memory controller sees the *merged* request stream and
its tighter arrival spacing.  This module interleaves per-application
traces by issue time into one mix, with per-app address-space slicing so
co-runners never alias.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence

from ..common.types import CACHE_LINE_SIZE, MemoryRequest
from .generator import TraceGenerator
from .profiles import WorkloadProfile, get_profile


@dataclass(frozen=True)
class MixSpec:
    """One co-runner in a mix: an application and its core binding."""

    app: str
    core: int

    def __post_init__(self) -> None:
        get_profile(self.app)  # validates the name
        if self.core < 0:
            raise ValueError("core must be non-negative")


#: Canonical mixes in the spirit of multiprogrammed NVMM studies: pairs of
#: high-dup + low-dup, read-heavy + write-heavy, predictable + erratic.
CANONICAL_MIXES: Dict[str, Sequence[str]] = {
    "mix_highdup": ("deepsjeng", "roms", "lbm", "mcf"),
    "mix_lowdup": ("namd", "imagick", "nab", "x264"),
    "mix_balanced": ("gcc", "lbm", "namd", "dedup"),
    "mix_parsec": ("blackscholes", "facesim", "fluidanimate", "x264"),
}


class MixedTraceGenerator:
    """Interleaves several applications' streams into one controller feed.

    Each application keeps its own content pool and profile; addresses are
    offset into disjoint slices of the physical address space so co-runners
    never write the same logical line.

    Args:
        specs: the co-runners (an app name list is promoted to specs on
            sequential cores).
        seed: base RNG seed; each co-runner derives an independent stream.
    """

    def __init__(self, specs: Sequence, seed: int = 2023) -> None:
        if not specs:
            raise ValueError("a mix needs at least one application")
        normalized: List[MixSpec] = []
        for i, spec in enumerate(specs):
            if isinstance(spec, MixSpec):
                normalized.append(spec)
            else:
                normalized.append(MixSpec(app=str(spec), core=i))
        self.specs = tuple(normalized)
        self.seed = seed
        self._profiles: List[WorkloadProfile] = [
            get_profile(s.app) for s in self.specs]
        # Disjoint address slices: each app gets a region sized to its
        # working set, rounded up to a power-of-two stride.
        self._offsets: List[int] = []
        offset_lines = 0
        for profile in self._profiles:
            self._offsets.append(offset_lines)
            stride = 1
            while stride < profile.working_set_lines:
                stride <<= 1
            offset_lines += stride

    def _rebase(self, request: MemoryRequest, slot: int,
                seq: int) -> MemoryRequest:
        spec = self.specs[slot]
        offset_bytes = self._offsets[slot] * CACHE_LINE_SIZE
        return MemoryRequest(address=request.address + offset_bytes,
                             access=request.access, data=request.data,
                             issue_time_ns=request.issue_time_ns,
                             core=spec.core, seq=seq)

    def generate(self, num_requests: int) -> Iterator[MemoryRequest]:
        """Yield ``num_requests`` merged requests in issue-time order."""
        if num_requests <= 0:
            raise ValueError("num_requests must be positive")
        # Over-provision each stream; the merge stops at num_requests.
        per_app = num_requests  # upper bound each co-runner may contribute
        streams = []
        for slot, spec in enumerate(self.specs):
            gen = TraceGenerator(self._profiles[slot],
                                 seed=self.seed * 31 + slot)
            streams.append(gen.generate(per_app))
        heap: List = []
        for slot, stream in enumerate(streams):
            first = next(stream, None)
            if first is not None:
                heap.append((first.issue_time_ns, slot, first))
        heapq.heapify(heap)
        emitted = 0
        while heap and emitted < num_requests:
            _, slot, request = heapq.heappop(heap)
            emitted += 1
            yield self._rebase(request, slot, emitted)
            nxt = next(streams[slot], None)
            if nxt is not None:
                heapq.heappush(heap, (nxt.issue_time_ns, slot, nxt))

    def generate_list(self, num_requests: int) -> List[MemoryRequest]:
        return list(self.generate(num_requests))


def make_mix(name_or_apps, seed: int = 2023) -> MixedTraceGenerator:
    """Build a mix from a canonical name or an explicit app sequence."""
    if isinstance(name_or_apps, str):
        try:
            apps = CANONICAL_MIXES[name_or_apps]
        except KeyError:
            raise KeyError(
                f"unknown mix {name_or_apps!r}; known: "
                f"{sorted(CANONICAL_MIXES)}") from None
    else:
        apps = name_or_apps
    return MixedTraceGenerator(apps, seed=seed)
