"""Core value types shared across the ESD simulator.

The simulator is trace-driven: the unit of work is a :class:`MemoryRequest`
describing one cache-line-granularity access arriving at the memory
controller (an LLC miss fill on the read side, or a dirty write-back /
eviction on the write side).  Cache-line payloads are plain ``bytes`` of
length :data:`CACHE_LINE_SIZE` so that fingerprints, encryption, and
byte-by-byte comparison all operate on real content.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional

#: Cache-line granularity used throughout the paper and this reproduction.
CACHE_LINE_SIZE = 64

#: Number of 8-byte words per cache line (per-word ECC granularity).
WORDS_PER_LINE = CACHE_LINE_SIZE // 8

#: The all-zero cache line, which dominates duplicate content for several
#: applications in the paper (e.g. deepsjeng, roms).
ZERO_LINE = bytes(CACHE_LINE_SIZE)

_INF = float("inf")


class AccessType(enum.Enum):
    """Direction of a memory-controller access."""

    READ = "read"
    WRITE = "write"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


_WRITE = AccessType.WRITE


def validate_line(data: bytes) -> bytes:
    """Return ``data`` unchanged after checking it is a full cache line.

    Raises:
        ValueError: if ``data`` is not exactly :data:`CACHE_LINE_SIZE` bytes.
    """
    if not isinstance(data, (bytes, bytearray)):
        raise ValueError(f"cache line must be bytes, got {type(data).__name__}")
    if len(data) != CACHE_LINE_SIZE:
        raise ValueError(
            f"cache line must be {CACHE_LINE_SIZE} bytes, got {len(data)}"
        )
    return bytes(data)


def check_write_payload(data: Optional[bytes]) -> None:
    """Raise the ``ValueError`` :class:`MemoryRequest` raises for a write
    payload it would reject; return for one it accepts.

    Every scheme's ``handle_write`` calls this when its inline check
    (``data.__class__ is not bytes or len(data) != CACHE_LINE_SIZE``)
    fails, so a request built unchecked or mutated after construction is
    rejected before any state changes.
    """
    if data is None:
        raise ValueError("write request requires data")
    validate_line(data)


def is_zero_line(data: bytes) -> bool:
    """True when every byte of the cache line is zero."""
    return data == ZERO_LINE


def line_words(data: bytes) -> list:
    """Split a 64-byte cache line into its eight 8-byte words.

    The per-word view matches the ECC granularity used by the paper: each
    8-byte word is protected by an 8-bit ECC, and the concatenation of the
    eight per-word codes forms the line's 64-bit ECC fingerprint.
    """
    validate_line(data)
    return [data[i * 8 : (i + 1) * 8] for i in range(WORDS_PER_LINE)]


@dataclass(init=False)
class MemoryRequest:
    """One cache-line access presented to the memory controller.

    Attributes:
        address: Logical (CPU-visible) byte address of the cache line.  Always
            aligned to :data:`CACHE_LINE_SIZE`.
        access: Read or write.
        data: Payload for writes (exactly 64 bytes); ``None`` for reads.
        issue_time_ns: Simulated time at which the request reaches the memory
            controller; finite and non-negative.
        core: Index of the issuing core (used by the IPC model).
        seq: Monotonically increasing sequence number within a trace.
    """

    address: int
    access: AccessType
    data: Optional[bytes] = None
    issue_time_ns: float = 0.0
    core: int = 0
    seq: int = 0

    # Hand-written rather than generated plus ``__post_init__``: the trace
    # generator builds one per request.  ``dataclasses.replace`` calls it
    # too, so copies are re-validated.
    def __init__(self, address: int, access: AccessType,
                 data: Optional[bytes] = None, issue_time_ns: float = 0.0,
                 core: int = 0, seq: int = 0) -> None:
        if address < 0:
            raise ValueError(f"address must be non-negative, got {address}")
        if address % CACHE_LINE_SIZE != 0:
            raise ValueError(
                f"address {address:#x} is not {CACHE_LINE_SIZE}-byte aligned"
            )
        # The chained compare rejects NaN too: a bank cannot schedule a
        # request at a time that is negative, infinite or not a number.
        if not 0.0 <= issue_time_ns < _INF:
            raise ValueError(
                f"issue_time_ns must be finite and non-negative, "
                f"got {issue_time_ns!r}"
            )
        if access is _WRITE:
            if data is None:
                raise ValueError("write request requires data")
            if data.__class__ is not bytes or len(data) != CACHE_LINE_SIZE:
                data = validate_line(data)
        elif data is not None:
            raise ValueError("read request must not carry data")
        # Attribute stores in field order keep the instance dict (and so
        # the pickled form) as the generated __init__ left it.
        self.address = address
        self.access = access
        self.data = data
        self.issue_time_ns = issue_time_ns
        self.core = core
        self.seq = seq

    @property
    def line_index(self) -> int:
        """Cache-line index (address divided by the line size)."""
        return self.address // CACHE_LINE_SIZE

    @property
    def is_write(self) -> bool:
        return self.access is AccessType.WRITE

    @property
    def is_read(self) -> bool:
        return self.access is AccessType.READ


def request_unchecked(address: int, access: AccessType,
                      data: "Optional[bytes]", issue_time_ns: float,
                      core: int, seq: int) -> MemoryRequest:
    """Build a :class:`MemoryRequest` bypassing the constructor's checks.

    For trusted producers only — the phase generator rebases requests
    that were validated when first built, and the trace decoder inlines
    the same construction for records whose fields it has checked;
    re-running the per-object checks would dominate their cost.  The
    caller guarantees the dataclass invariants: non-negative
    aligned address, a finite non-negative issue time, writes carry exactly
    64 ``bytes`` of data, reads carry ``None``.
    """
    request = MemoryRequest.__new__(MemoryRequest)
    # One dict display beats six attribute stores; plain (non-slots)
    # dataclass instances allow wholesale __dict__ assignment.
    request.__dict__ = {"address": address, "access": access, "data": data,
                        "issue_time_ns": issue_time_ns, "core": core,
                        "seq": seq}
    return request


@dataclass(frozen=True)
class PhysicalAddress:
    """ESD's packed 40-bit physical cache-line address.

    The paper stores physical locations as a 4-byte ``Addr_base`` plus a
    1-byte ``Addr_offsets``: the physical line number is
    ``(base << 8) | offset``, addressing up to 2**40 cache lines (64 TiB of
    data at 64 B lines).  This class keeps the packed representation honest:
    components are range-checked and conversion to/from flat line numbers is
    explicit.
    """

    base: int
    offset: int

    #: Width of the offset field in bits (1 byte).
    OFFSET_BITS = 8
    #: Width of the base field in bits (4 bytes).
    BASE_BITS = 32

    def __post_init__(self) -> None:
        if not 0 <= self.base < (1 << self.BASE_BITS):
            raise ValueError(f"Addr_base out of range: {self.base}")
        if not 0 <= self.offset < (1 << self.OFFSET_BITS):
            raise ValueError(f"Addr_offsets out of range: {self.offset}")

    @classmethod
    def from_line_number(cls, line_number: int) -> "PhysicalAddress":
        """Pack a flat physical cache-line number into base/offset fields."""
        check_physical_line(line_number)
        return cls(base=line_number >> cls.OFFSET_BITS,
                   offset=line_number & ((1 << cls.OFFSET_BITS) - 1))

    @property
    def line_number(self) -> int:
        """Flat physical cache-line number (base << 8 | offset)."""
        return (self.base << self.OFFSET_BITS) | self.offset

    @property
    def byte_address(self) -> int:
        """Physical byte address of the line."""
        return self.line_number * CACHE_LINE_SIZE

    #: Size of one packed entry in bytes (4-byte base + 1-byte offset).
    PACKED_SIZE = 5


def check_physical_line(line_number: int) -> None:
    """Raise ``ValueError`` unless a line number fits :class:`PhysicalAddress`
    (40 bits); an int compare for callers that never read the packed form."""
    if line_number < 0 or line_number >= 1 << 40:
        raise ValueError(f"line number out of 40-bit range: {line_number}")


@dataclass
class OperationCost:
    """Latency/energy contribution of one step of a scheme's pipeline.

    Schemes accumulate these to produce the per-request latency profile that
    Figure 17 of the paper breaks down (fingerprint computation, fingerprint
    NVMM lookup, read-for-comparison, unique-line write).
    """

    latency_ns: float = 0.0
    energy_nj: float = 0.0

    def __add__(self, other: "OperationCost") -> "OperationCost":
        return OperationCost(self.latency_ns + other.latency_ns,
                             self.energy_nj + other.energy_nj)

    def __iadd__(self, other: "OperationCost") -> "OperationCost":
        self.latency_ns += other.latency_ns
        self.energy_nj += other.energy_nj
        return self


class WritePathStage(enum.Enum):
    """Named stages of the request critical paths.

    The first six are the write-path stages profiled in Figure 17; the
    last two appear only on the read path (LLC miss fills), which folds
    into a scheme's separate ``read_breakdown``.
    """

    FINGERPRINT_COMPUTE = "fingerprint_compute"
    FINGERPRINT_NVMM_LOOKUP = "fingerprint_nvmm_lookup"
    READ_FOR_COMPARISON = "read_for_comparison"
    WRITE_UNIQUE = "write_unique"
    ENCRYPTION = "encryption"
    METADATA = "metadata"
    #: Read path only: the PCM array access serving a miss fill.
    READ_FILL = "read_fill"
    #: Read path only: counter-mode decryption of the fetched line.
    DECRYPTION = "decryption"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value

    # Stage members key the per-request exposure dicts touched hundreds of
    # thousands of times per run; ``Enum.__hash__`` is a Python-level call
    # (hash of the member name), while identity hash is C-level and equally
    # stable — members are process singletons (pickle resolves by name).
    __hash__ = object.__hash__


@dataclass
class LatencyBreakdown:
    """Accumulated per-stage write latency for one scheme run."""

    by_stage: dict = field(default_factory=dict)

    def add(self, stage: WritePathStage, latency_ns: float) -> None:
        if latency_ns < 0:
            raise ValueError("latency must be non-negative")
        self.by_stage[stage] = self.by_stage.get(stage, 0.0) + latency_ns

    def total(self) -> float:
        return sum(self.by_stage.values())

    def fraction(self, stage: WritePathStage) -> float:
        """Share of total write latency attributable to ``stage``."""
        total = self.total()
        if total == 0.0:
            return 0.0
        return self.by_stage.get(stage, 0.0) / total

    def as_fractions(self) -> dict:
        """Map of stage -> share of total latency (sums to 1 when nonempty)."""
        total = self.total()
        if total == 0.0:
            return {stage: 0.0 for stage in self.by_stage}
        return {stage: v / total for stage, v in self.by_stage.items()}
