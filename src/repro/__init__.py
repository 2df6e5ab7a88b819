"""ESD: ECC-assisted and Selective Deduplication for Encrypted NVMM.

A from-scratch Python reproduction of the HPCA 2023 paper by Du, Wu, Wu,
Mao, and Wang.  The package contains:

* :mod:`repro.core` — the paper's contribution: the ESD scheme with its
  EFIT (ECC-fingerprint cache, LRCU-managed) and AMT (packed address map).
* :mod:`repro.dedup` — the comparison schemes (Baseline, Dedup_SHA1,
  DeWrite) sharing one interface.
* Substrates built from scratch: :mod:`repro.ecc` (SEC-DED Hamming(72,64)),
  :mod:`repro.crypto` (counter-mode encryption, fingerprint engines),
  :mod:`repro.nvmm` (PCM device/banks/controller/energy),
  :mod:`repro.cache` (3-level hierarchy + IPC model),
  :mod:`repro.workloads` (20 calibrated application profiles + generator).
* :mod:`repro.sim` — the trace-driven engine and experiment runner.
* :mod:`repro.sweep` — parallel sweep orchestration: process-pool
  scheduler, content-addressed result store, resumable checkpoints.
* :mod:`repro.perf` — content-addressed kernel caches: bounded LRU
  memoization of the pure ECC/crypto kernels, bit-identical to their
  uncached forms.
* :mod:`repro.analysis` — one reproduction function per paper figure.

Quickstart::

    from repro import make_scheme, TraceGenerator, SimulationEngine

    scheme = make_scheme("ESD")
    trace = TraceGenerator("gcc").generate_list(20_000)
    result = SimulationEngine(scheme).run(iter(trace), app="gcc",
                                          total_hint=len(trace))
    print(result.mean_write_latency_ns, result.write_reduction)
"""

from .common import (
    CACHE_LINE_SIZE,
    AccessType,
    MemoryRequest,
    SystemConfig,
    default_config,
    small_test_config,
)
from .core import EFIT, AddressMappingTable, ESDScheme, LRCUCache
from .dedup import (
    SCHEME_NAMES,
    BaselineScheme,
    DedupScheme,
    DedupSHA1Scheme,
    DeWriteScheme,
    make_scheme,
)
from .ecc import decode_line, encode_word, line_ecc
from .perf import cache_stats, reset_caches
from .sim import (
    EngineConfig,
    ExperimentConfig,
    FullSystem,
    SimulationEngine,
    SimulationResult,
    run_app,
    run_grid,
    scaled_system_config,
)
from .sweep import run_sweep
from .workloads import TraceGenerator, app_names, get_profile

__version__ = "1.0.0"

__all__ = [
    "AccessType",
    "AddressMappingTable",
    "BaselineScheme",
    "CACHE_LINE_SIZE",
    "DedupScheme",
    "DedupSHA1Scheme",
    "DeWriteScheme",
    "EFIT",
    "ESDScheme",
    "EngineConfig",
    "ExperimentConfig",
    "FullSystem",
    "LRCUCache",
    "MemoryRequest",
    "SCHEME_NAMES",
    "SimulationEngine",
    "SimulationResult",
    "SystemConfig",
    "TraceGenerator",
    "__version__",
    "app_names",
    "cache_stats",
    "decode_line",
    "default_config",
    "encode_word",
    "get_profile",
    "line_ecc",
    "make_scheme",
    "reset_caches",
    "run_app",
    "run_grid",
    "run_sweep",
    "scaled_system_config",
    "small_test_config",
]
