"""ESD: ECC-assisted and Selective Deduplication for Encrypted NVMM.

A from-scratch Python reproduction of the HPCA 2023 paper by Du, Wu, Wu,
Mao, and Wang.  The package contains:

* :mod:`repro.core` — the paper's contribution: the ESD scheme with its
  EFIT (ECC-fingerprint cache, LRCU-managed) and AMT (packed address map),
  and the ESD-Delta extension.
* :mod:`repro.dedup` — the comparison schemes (Baseline, Dedup_SHA1,
  DeWrite, NV-Dedup, and the motivation schemes DaE and PDE) sharing one
  interface; :mod:`repro.registry` names all eight and builds them.
* Substrates built from scratch: :mod:`repro.ecc` (SEC-DED Hamming(72,64)),
  :mod:`repro.crypto` (counter-mode encryption, fingerprint engines),
  :mod:`repro.nvmm` (PCM device/banks/controller/energy),
  :mod:`repro.cache` (core timing model for IPC; the schemes see the
  post-LLC stream, so no caches are modelled),
  :mod:`repro.workloads` (20 calibrated application profiles + generator).
* :mod:`repro.sim` — sessions, the trace-driven engine, checkpoints and
  the experiment runner.
* :mod:`repro.sweep` — parallel sweep orchestration: process-pool
  scheduler, content-addressed result store, resumable checkpoints.
* :mod:`repro.perf` — content-addressed kernel caches: bounded LRU
  memoization of the pure ECC/crypto kernels, each cache owned by the
  engine or scheme that calls its kernel.
* :mod:`repro.analysis` — one reproduction function per paper figure.

Import a name from the module that defines it (:mod:`repro.common`,
:mod:`repro.sim`, :mod:`repro.workloads`, :mod:`repro.sweep` and
:mod:`repro.serve` also re-export their public names).  This package
re-exports nothing, so importing one module loads only what it needs.

Quickstart::

    from repro.registry import make_scheme
    from repro.sim.engine import SimulationEngine
    from repro.workloads.generator import TraceGenerator

    scheme = make_scheme("ESD")
    trace = TraceGenerator("gcc").generate_list(20_000)
    result = SimulationEngine(scheme).run(iter(trace), app="gcc",
                                          total_hint=len(trace))
    print(result.mean_write_latency_ns, result.write_reduction)
"""

__version__ = "1.0.0"
