"""NVMM memory controller: timing, banking, and energy for PCM accesses.

The controller is the single gateway through which every scheme touches the
PCM array.  It combines:

* the functional :class:`~repro.nvmm.device.PCMDevice` (contents),
* per-bank busy-until timing (:mod:`repro.nvmm.bank`) with line-interleaved
  bank mapping,
* energy accounting per access category,
* a *metadata region* interface used by full-deduplication schemes whose
  fingerprint tables live in NVMM — those fingerprint NVMM_lookup accesses
  occupy banks and consume energy exactly like data accesses, which is how
  the lookup bottleneck of Figure 5 materializes in simulation.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..common.config import PCMConfig
from ..common.stats import Counter
from ..common.errors import InvalidAddressError
from ..obs.runtime import RunObservation
from .bank import Bank, BankService
from .device import _ZERO, PCMDevice
from .energy import EnergyAccount, EnergyCategory

# Hoisted enum members (module-global loads are cheaper than two-level
# attribute lookups on a per-access path).
_PCM_READ = EnergyCategory.PCM_READ
_PCM_WRITE = EnergyCategory.PCM_WRITE


class MemoryController:
    """Schedules PCM line accesses over interleaved banks.

    Bank mapping is line-interleaved (``line_number % num_banks``), the
    common choice for maximizing bank-level parallelism of streaming
    accesses.  Metadata-region accesses hash their key onto a bank so
    fingerprint-table traffic spreads like data traffic does.
    """

    def __init__(self, config: Optional[PCMConfig] = None,
                 device: Optional[PCMDevice] = None) -> None:
        self.config = config or PCMConfig()
        self.device = device or PCMDevice(self.config)
        if self.device.config is not self.config:
            raise ValueError("device and controller must share one PCMConfig")
        self.banks: List[Bank] = [Bank(index=i)
                                  for i in range(self.config.num_banks)]
        self.energy = EnergyAccount()
        self.counters = Counter()
        # Hot-path scalars hoisted out of the (frozen) config: read() and
        # write() run once per PCM access, and each dotted config lookup
        # there is a real per-access cost.
        self._num_banks = self.config.num_banks
        self._row_size_lines = self.config.row_size_lines
        self._read_latency_ns = self.config.read_latency_ns
        self._read_energy_nj = self.config.read_energy_nj
        self._row_hit_read_latency_ns = self.config.row_hit_read_latency_ns
        self._row_hit_read_energy_nj = self.config.row_hit_read_energy_nj
        self._write_latency_ns = self.config.write_latency_ns
        self._write_energy_nj = self.config.write_energy_nj
        self._energy_buckets = self.energy.buckets
        self._counter_values = self.counters.values
        self._num_lines = self.config.num_lines
        # The device's backing store, for the inlined read in read(): the
        # dict is created once in PCMDevice.__init__ and only ever mutated,
        # so holding a reference is safe.
        self._device_store = self.device._store
        #: Run scope the hooks record into; set by the owning scheme.
        self._obs: Optional[RunObservation] = None

    # ------------------------------------------------------------------
    # Bank plumbing
    # ------------------------------------------------------------------

    def bank_for_line(self, line_number: int) -> Bank:
        return self.banks[line_number % self.config.num_banks]

    # ------------------------------------------------------------------
    # Data-path accesses
    # ------------------------------------------------------------------

    # Rows are plain ints — data rows as ``row`` (non-negative), metadata
    # rows as ``~row`` (negative) — so one int compare tells a row hit
    # and the two kinds can never alias.  Each access updates its bank's
    # open row and hit/miss counts inline: this runs once per access.
    # Metadata keys hash onto a bank (``key * 2654435761 >> 8``) to
    # decorrelate them from the data lines they describe, so
    # fingerprint-table traffic spreads like data traffic does.

    def read(self, line_number: int,
             at_time_ns: float) -> Tuple[bytes, BankService]:
        """Read one line: returns (content, its bank service).

        A read hitting the bank's open row is served from the row buffer at
        :attr:`PCMConfig.row_hit_read_latency_ns`.
        """
        bank = self.banks[line_number % self._num_banks]
        row = line_number // self._row_size_lines
        if bank.open_row == row:
            bank.row_hits += 1
            latency = self._row_hit_read_latency_ns
            energy = self._row_hit_read_energy_nj
        else:
            bank.open_row = row
            bank.row_misses += 1
            latency = self._read_latency_ns
            energy = self._read_energy_nj
        service = bank.service(at_time_ns, latency)
        # Device read inlined (bounds check + store lookup + read counter).
        if not 0 <= line_number < self._num_lines:
            raise InvalidAddressError(
                f"line {line_number} outside device of "
                f"{self._num_lines} lines")
        self.device.read_ops += 1
        data = self._device_store.get(line_number, _ZERO)
        buckets = self._energy_buckets
        buckets[_PCM_READ] = buckets.get(_PCM_READ, 0.0) + energy
        values = self._counter_values
        values["data_reads"] = values.get("data_reads", 0) + 1
        obs = self._obs
        if obs is not None:
            obs.record(service.completion_ns, "controller", "data_read",
                       line=line_number, latency_ns=service.latency_ns)
        return data, service

    def write(self, line_number: int, data: bytes,
              at_time_ns: float) -> BankService:
        """Write one line: returns its bank service.

        PCM cell writes pay full latency/energy regardless of the row
        buffer, but the write loads its row into the buffer.
        """
        bank = self.banks[line_number % self._num_banks]
        row = line_number // self._row_size_lines
        if bank.open_row == row:
            bank.row_hits += 1
        else:
            bank.open_row = row
            bank.row_misses += 1
        service = bank.service(at_time_ns, self._write_latency_ns)
        self.device.write_line(line_number, data)
        buckets = self._energy_buckets
        buckets[_PCM_WRITE] = buckets.get(_PCM_WRITE, 0.0) + self._write_energy_nj
        values = self._counter_values
        values["data_writes"] = values.get("data_writes", 0) + 1
        obs = self._obs
        if obs is not None:
            obs.record(service.completion_ns, "controller", "data_write",
                       line=line_number, latency_ns=service.latency_ns)
        return service

    def write_partial(self, key: int, fraction: float,
                      at_time_ns: float) -> BankService:
        """Write part of a line (byte-addressable PCM).

        PCM write energy scales with the bits actually programmed, while a
        partial write still occupies the bank for a full write slot.  Used
        by delta-dedup extensions; content is owned by the caller, so the
        device array is not touched.
        """
        if not 0.0 < fraction <= 1.0:
            raise ValueError("fraction must be in (0, 1]")
        bank = self.banks[(key * 2654435761 >> 8) % self._num_banks]
        row = ~(key >> 3)
        if bank.open_row == row:
            bank.row_hits += 1
        else:
            bank.open_row = row
            bank.row_misses += 1
        service = bank.service(at_time_ns, self._write_latency_ns)
        buckets = self._energy_buckets
        buckets[_PCM_WRITE] = (buckets.get(_PCM_WRITE, 0.0)
                               + self._write_energy_nj * fraction)
        values = self._counter_values
        values["partial_writes"] = values.get("partial_writes", 0) + 1
        obs = self._obs
        if obs is not None:
            obs.record(service.completion_ns, "controller", "partial_write",
                       key=key, fraction=fraction,
                       latency_ns=service.latency_ns)
        return service

    # ------------------------------------------------------------------
    # Metadata-region accesses (fingerprint stores, AMT home in NVMM)
    # ------------------------------------------------------------------

    def metadata_read(self, key: int, at_time_ns: float) -> BankService:
        """Timing/energy of reading one metadata line from NVMM.

        Contents of metadata structures are modeled functionally by their
        owners (fingerprint stores, AMT); the controller charges the PCM
        read cost and occupies a bank for the duration.
        """
        bank = self.banks[(key * 2654435761 >> 8) % self._num_banks]
        row = ~(key >> 3)
        if bank.open_row == row:
            bank.row_hits += 1
            latency = self._row_hit_read_latency_ns
            energy = self._row_hit_read_energy_nj
        else:
            bank.open_row = row
            bank.row_misses += 1
            latency = self._read_latency_ns
            energy = self._read_energy_nj
        service = bank.service(at_time_ns, latency)
        buckets = self._energy_buckets
        buckets[_PCM_READ] = buckets.get(_PCM_READ, 0.0) + energy
        values = self._counter_values
        values["metadata_reads"] = values.get("metadata_reads", 0) + 1
        obs = self._obs
        if obs is not None:
            obs.record(service.completion_ns, "controller", "metadata_read",
                       key=key, latency_ns=service.latency_ns)
        return service

    def metadata_write(self, key: int, at_time_ns: float) -> BankService:
        """Timing/energy of writing one metadata line to NVMM."""
        bank = self.banks[(key * 2654435761 >> 8) % self._num_banks]
        row = ~(key >> 3)
        if bank.open_row == row:
            bank.row_hits += 1
        else:
            bank.open_row = row
            bank.row_misses += 1
        service = bank.service(at_time_ns, self._write_latency_ns)
        buckets = self._energy_buckets
        buckets[_PCM_WRITE] = buckets.get(_PCM_WRITE, 0.0) + self._write_energy_nj
        values = self._counter_values
        values["metadata_writes"] = values.get("metadata_writes", 0) + 1
        obs = self._obs
        if obs is not None:
            obs.record(service.completion_ns, "controller", "metadata_write",
                       key=key, latency_ns=service.latency_ns)
        return service

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------

    def bank_utilization(self, horizon_ns: float) -> List[float]:
        """Per-bank busy fraction over ``[0, horizon_ns]``."""
        if horizon_ns <= 0:
            raise ValueError("horizon must be positive")
        return [min(1.0, b.busy_time_ns / horizon_ns) for b in self.banks]

    @property
    def data_reads(self) -> int:
        return self.counters.get("data_reads")

    @property
    def data_writes(self) -> int:
        return self.counters.get("data_writes")

    @property
    def metadata_reads(self) -> int:
        return self.counters.get("metadata_reads")

    @property
    def metadata_writes(self) -> int:
        return self.counters.get("metadata_writes")

    @property
    def total_pcm_writes(self) -> int:
        """All PCM write operations (data + metadata)."""
        return self.data_writes + self.metadata_writes
