"""Configuration dataclasses mirroring Table I of the paper.

Every tunable in the reproduction lives here: the core clock, PCM timing
and energy, metadata cache sizes, and per-scheme options.  Defaults
reproduce the paper's experimental setup:

========================  =====================================================
Core clock                2 GHz
PCM capacity              16 GB, 64 B lines
PCM latency               read 75 ns / write 150 ns
PCM energy                read 1.49 nJ / write 6.75 nJ
Metadata cache            EFIT 512 KB, AMT 512 KB
========================  =====================================================

Table I's core count and L1-L3 caches lie above the post-LLC stream the
schemes see, so no setting holds them; the Table I renderer in
:mod:`repro.analysis.experiments` prints them from constants.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
import math
from dataclasses import dataclass, field, replace
from typing import Mapping, Optional

from .errors import ConfigError
from .types import CACHE_LINE_SIZE
from .units import gib, is_power_of_two, kib, mib

#: Bounds on sizes a served tenant can set.  The controller builds one
#: ``Bank`` per bank and DeWrite preallocates its predictor table, so
#: unbounded they let one ``hello`` ask for gigabytes (the ablations use
#: up to 32 banks and 65,536 entries); the trace ring's capacity must fit
#: a C ``ssize_t``.
MAX_NUM_BANKS = 1024
MAX_PREDICTOR_ENTRIES = 1 << 20
MAX_TRACE_CAPACITY = 1 << 24


@dataclass(frozen=True)
class ProcessorConfig:
    """The core clock, which converts memory stalls into cycles for IPC."""

    clock_ghz: float = 2.0

    def __post_init__(self) -> None:
        if self.clock_ghz <= 0:
            raise ConfigError("clock must be positive")

    @property
    def cycle_ns(self) -> float:
        """Duration of one core clock cycle in nanoseconds."""
        return 1.0 / self.clock_ghz


@dataclass(frozen=True)
class PCMConfig:
    """PCM device timing, energy, and geometry (Table I + Lee et al.)."""

    capacity_bytes: int = field(default_factory=lambda: gib(16))
    read_latency_ns: float = 75.0
    write_latency_ns: float = 150.0
    read_energy_nj: float = 1.49
    write_energy_nj: float = 6.75
    num_banks: int = 8
    #: Row-buffer (NVMain-style) parameters: a read that hits the bank's
    #: open row is served from the row buffer at SRAM-like latency/energy.
    row_size_lines: int = 64
    row_hit_read_latency_ns: float = 15.0
    row_hit_read_energy_nj: float = 0.5

    def __post_init__(self) -> None:
        if self.capacity_bytes <= 0:
            raise ConfigError("PCM capacity must be positive")
        if self.capacity_bytes % CACHE_LINE_SIZE != 0:
            raise ConfigError("PCM capacity must be line-aligned")
        if self.read_latency_ns <= 0 or self.write_latency_ns <= 0:
            raise ConfigError("PCM latencies must be positive")
        if self.read_energy_nj < 0 or self.write_energy_nj < 0:
            raise ConfigError("PCM energies must be non-negative")
        if not (0 < self.num_banks <= MAX_NUM_BANKS
                and is_power_of_two(self.num_banks)):
            raise ConfigError(
                f"num_banks must be a power of two in 1..{MAX_NUM_BANKS}")
        if self.row_size_lines <= 0 or not is_power_of_two(self.row_size_lines):
            raise ConfigError("row_size_lines must be a positive power of two")
        if self.row_hit_read_latency_ns <= 0:
            raise ConfigError("row-hit read latency must be positive")
        if self.row_hit_read_energy_nj < 0:
            raise ConfigError("row-hit read energy must be non-negative")

    @property
    def num_lines(self) -> int:
        return self.capacity_bytes // CACHE_LINE_SIZE


@dataclass(frozen=True)
class MetadataCacheConfig:
    """Sizes of the memory-controller metadata caches (EFIT and AMT)."""

    efit_bytes: int = field(default_factory=lambda: kib(512))
    amt_bytes: int = field(default_factory=lambda: kib(512))
    #: Latency of an on-chip metadata cache probe, folded into the controller
    #: pipeline; the paper treats it as negligible.
    probe_latency_ns: float = 1.0

    def __post_init__(self) -> None:
        if self.efit_bytes <= 0 or self.amt_bytes <= 0:
            raise ConfigError("metadata cache sizes must be positive")
        if self.probe_latency_ns < 0:
            raise ConfigError("probe latency must be non-negative")


@dataclass(frozen=True)
class ESDConfig:
    """ESD-specific knobs (Section III)."""

    #: Maximum reference count recorded per EFIT entry (1-byte referH).  When
    #: a line's count would exceed this, ESD treats the incoming line as new.
    refer_h_max: int = 255
    #: LRCU periodic refresh: every ``decay_period`` epoch events (EFIT
    #: lookups, count bumps and insertions), all reference counters are
    #: decremented by ``decay_amount``.
    decay_period: int = 4096
    decay_amount: int = 1
    #: Use the LRCU policy; False degrades the EFIT to plain LRU (the
    #: "without LRCU" series of Figure 18).
    use_lrcu: bool = True

    def __post_init__(self) -> None:
        if not 1 <= self.refer_h_max <= 255:
            raise ConfigError("referH is a 1-byte field: 1..255")
        if self.decay_period <= 0:
            raise ConfigError("decay_period must be positive")
        if self.decay_amount < 0:
            raise ConfigError("decay_amount must be non-negative")


@dataclass(frozen=True)
class DeWriteConfig:
    """DeWrite-specific knobs (Zuo et al., MICRO'18)."""

    #: Size of the per-line duplication-prediction history table (entries).
    predictor_entries: int = 4096
    #: Saturating-counter bits per predictor entry.
    predictor_bits: int = 2

    def __post_init__(self) -> None:
        if not 0 < self.predictor_entries <= MAX_PREDICTOR_ENTRIES:
            raise ConfigError(
                f"predictor_entries must be 1..{MAX_PREDICTOR_ENTRIES}")
        if not 1 <= self.predictor_bits <= 8:
            raise ConfigError("predictor_bits must be 1..8")


@dataclass(frozen=True)
class ObservabilityConfig:
    """Run-scoped instrumentation knobs (:mod:`repro.obs`).

    Disabled by default: with ``enabled=False`` a session creates no run
    scope, every hook site reduces to an ``is None`` test of the scope
    bound to its object, and simulated results are bit-identical to an
    uninstrumented build (the obs parity property tests gate this).
    """

    #: Give each session a run scope (metrics registry + trace ring),
    #: bound to its scheme graph, and attach the collected report to the
    #: result.
    enabled: bool = False
    #: Maximum trace events retained; older events are evicted (the ring
    #: reports how many were dropped).
    trace_capacity: int = 4096
    #: Trace one request in every N (1 = trace every request).  Metrics
    #: are never sampled — only trace events are.
    sample_every: int = 1

    def __post_init__(self) -> None:
        if not 0 < self.trace_capacity <= MAX_TRACE_CAPACITY:
            raise ConfigError(
                f"trace_capacity must be 1..{MAX_TRACE_CAPACITY}")
        if self.sample_every <= 0:
            raise ConfigError("sample_every must be positive")


@dataclass(frozen=True)
class SystemConfig:
    """Top-level configuration wiring the whole simulated system together."""

    processor: ProcessorConfig = field(default_factory=ProcessorConfig)
    pcm: PCMConfig = field(default_factory=PCMConfig)
    metadata_cache: MetadataCacheConfig = field(default_factory=MetadataCacheConfig)
    esd: ESDConfig = field(default_factory=ESDConfig)
    dewrite: DeWriteConfig = field(default_factory=DeWriteConfig)
    #: Continuously verify that every read returns exactly the bytes most
    #: recently written to that logical address (dedup-safety invariant).
    verify_integrity: bool = True
    #: Protect the encryption counters with a Merkle integrity tree
    #: (Section III-E trust model): writes update the tree, reads verify
    #: against the on-chip root.  Off by default — the paper's evaluation
    #: treats counter protection as an orthogonal substrate.
    protect_counters: bool = False
    #: Per-level hash latency of the integrity tree walk (on-chip SHA
    #: engine), charged when ``protect_counters`` is enabled.
    integrity_hash_latency_ns: float = 5.0
    #: Run-scoped instrumentation (:mod:`repro.obs`): metrics registry,
    #: per-request trace ring, and exporters.  Off by default; enabling it
    #: never changes simulated results (gated by the obs parity tests).
    observability: ObservabilityConfig = field(
        default_factory=ObservabilityConfig)
    #: RNG seed threaded through every stochastic component.
    seed: int = 2023

    def with_metadata_cache(self, *, efit_bytes: Optional[int] = None,
                            amt_bytes: Optional[int] = None) -> "SystemConfig":
        """Return a copy with resized metadata caches (Figure 18 sweeps)."""
        mc = self.metadata_cache
        new_mc = replace(
            mc,
            efit_bytes=efit_bytes if efit_bytes is not None else mc.efit_bytes,
            amt_bytes=amt_bytes if amt_bytes is not None else mc.amt_bytes,
        )
        return replace(self, metadata_cache=new_mc)

    def with_esd(self, **kwargs) -> "SystemConfig":
        """Return a copy with modified ESD options."""
        return replace(self, esd=replace(self.esd, **kwargs))

    def with_seed(self, seed: int) -> "SystemConfig":
        return replace(self, seed=seed)

    def with_observability(self, **kwargs) -> "SystemConfig":
        """Return a copy with modified observability options.

        ``cfg.with_observability(enabled=True, sample_every=8)``
        """
        return replace(
            self, observability=replace(self.observability, **kwargs))

    def with_options(self, options: "Mapping[str, object]") -> "SystemConfig":
        """Return a copy with dotted-path field overrides applied.

        ``cfg.with_options({"seed": 7, "esd.decay_period": 1024,
        "metadata_cache.efit_bytes": 16384})`` — each key names a
        (possibly nested) dataclass field, and values come straight from
        a JSON document, so this is the serving layer's per-tenant
        configuration surface (:mod:`repro.serve`).  Overrides are
        applied in sorted key order, and the nested dataclasses'
        ``__post_init__`` validation re-runs on every rebuilt level.

        Raises:
            ConfigError: when a path names no field, descends into a
                non-dataclass value, names a whole section, or sets a
                value of another kind than the field holds (bools only
                for bools, ints for ints, finite ints or floats for
                floats, strings for strings).
        """
        config: "SystemConfig" = self
        for key in sorted(options):
            config = _replace_path(config, key, key.split("."),
                                   options[key])
        return config


def _same_kind(current, value) -> bool:
    """Whether a JSON ``value`` may replace the field value ``current``."""
    if isinstance(current, bool) or isinstance(value, bool):
        return type(value) is type(current)
    if isinstance(current, float):
        return isinstance(value, (int, float))
    return type(value) is type(current)


def _finite(number) -> bool:
    """Whether ``number`` converts to a finite float."""
    try:
        return math.isfinite(number)
    except OverflowError:  # an int beyond the float range
        return False


def _replace_path(obj, path: str, parts, value):
    """Rebuild ``obj`` with the field at dotted ``path`` set to ``value``."""
    if not dataclasses.is_dataclass(obj) or isinstance(obj, type):
        raise ConfigError(
            f"config option {path!r}: {type(obj).__name__} has no "
            f"sub-fields to descend into")
    name = parts[0]
    if name not in {f.name for f in dataclasses.fields(obj)}:
        raise ConfigError(
            f"config option {path!r}: {type(obj).__name__} has no field "
            f"{name!r}")
    if len(parts) == 1:
        current = getattr(obj, name)
        if dataclasses.is_dataclass(current):
            raise ConfigError(
                f"config option {path!r}: {name!r} is a "
                f"{type(current).__name__} section; set its fields by "
                f"dotted path")
        if not _same_kind(current, value):
            raise ConfigError(
                f"config option {path!r}: expected "
                f"{type(current).__name__}, got {type(value).__name__}")
        if isinstance(current, float) and not _finite(value):
            raise ConfigError(
                f"config option {path!r}: expected a finite float")
        try:
            return replace(obj, **{name: value})
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"config option {path!r}: {exc}") from exc
    nested = _replace_path(getattr(obj, name), path, parts[1:], value)
    return replace(obj, **{name: nested})


def _canonical(obj):
    """Reduce a configuration value to a canonical JSON-compatible form.

    Dataclasses are tagged with their class name so that two structurally
    identical but semantically different configs never collide; floats rely
    on CPython's shortest-round-trip ``repr`` (stable across processes and
    platforms for IEEE-754 doubles).
    """
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {
            "__class__": type(obj).__name__,
            "fields": {
                f.name: _canonical(getattr(obj, f.name))
                for f in dataclasses.fields(obj)
            },
        }
    if isinstance(obj, enum.Enum):
        return {"__enum__": type(obj).__name__, "value": obj.value}
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    if isinstance(obj, (bytes, bytearray)):
        return {"__bytes__": bytes(obj).hex()}
    if isinstance(obj, dict):
        return {str(k): _canonical(v) for k, v in sorted(obj.items())}
    if isinstance(obj, (list, tuple)):
        return [_canonical(v) for v in obj]
    raise ConfigError(
        f"cannot canonicalize {type(obj).__name__} for digesting")


def canonical_json(obj) -> str:
    """The canonical JSON text of one object, as :func:`config_digest`
    encodes it: ``config_digest(a, b)`` equals
    ``digest_canonical(canonical_json(a), canonical_json(b))``."""
    return json.dumps(_canonical(obj), sort_keys=True, separators=(",", ":"))


def digest_canonical(*texts: str) -> str:
    """:func:`config_digest` over objects already reduced by
    :func:`canonical_json`, so a caller can reduce a shared object once."""
    payload = "[" + ",".join(texts) + "]"
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def config_digest(*objects) -> str:
    """A stable SHA-256 hex digest of one or more configuration objects.

    The digest is content-based (field names and values, recursively) and
    identical across processes and machines, which makes it suitable as a
    cache key: ``repro.sweep`` keys its persisted results by the digest of
    (job parameters, SystemConfig, EngineConfig, CryptoCosts), so any
    configuration change invalidates exactly the affected cells.
    """
    return digest_canonical(*map(canonical_json, objects))


def default_config() -> SystemConfig:
    """The paper's Table I configuration."""
    return SystemConfig()


def small_test_config() -> SystemConfig:
    """A scaled-down configuration for fast unit tests.

    Shrinks the PCM device and metadata caches so tests exercising
    replacement and allocation pressure run in milliseconds.
    """
    return SystemConfig(
        pcm=PCMConfig(capacity_bytes=mib(4), num_banks=4),
        metadata_cache=MetadataCacheConfig(efit_bytes=kib(8), amt_bytes=kib(8)),
    )
