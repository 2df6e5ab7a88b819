#!/usr/bin/env python3
"""Quickstart: run ESD on one application and inspect the results.

Builds the ESD scheme (ECC-assisted selective deduplication for encrypted
NVMM), generates a gcc-like LLC-eviction trace, and runs it through the
trace-driven simulator.

Run:
    python examples/quickstart.py
"""

from repro.registry import make_scheme
from repro.sim import SimulationEngine, scaled_system_config
from repro.workloads import TraceGenerator


def main() -> None:
    # 1. Configure the system (Table I of the paper, with metadata caches
    #    scaled to simulation-length traces).
    config = scaled_system_config()

    # 2. Build the ESD scheme: EFIT + LRCU + AMT over a PCM controller.
    scheme = make_scheme("ESD", config)

    # 3. Generate a synthetic trace with gcc's measured characteristics
    #    (duplicate rate, zero-line share, content locality, r/w mix).
    trace = TraceGenerator("gcc", seed=42).generate_list(20_000)

    # 4. Run. The engine throttles arrivals like a real core (finite
    #    outstanding requests), warms up, and verifies data integrity on
    #    every read.
    engine = SimulationEngine(scheme)
    result = engine.run(iter(trace), app="gcc", total_hint=len(trace))

    # 5. Inspect.
    print(f"application:           {result.app}")
    print(f"scheme:                {result.scheme}")
    print(f"writes handled:        {result.writes}")
    print(f"write reduction:       {result.write_reduction:.1%}")
    print(f"mean write latency:    {result.mean_write_latency_ns:.1f} ns")
    print(f"p99 write latency:     {result.write_latency.percentile(99):.1f} ns")
    print(f"mean read latency:     {result.mean_read_latency_ns:.1f} ns")
    print(f"total energy:          {result.total_energy_nj / 1e6:.3f} mJ")
    print(f"IPC:                   {result.ipc:.3f}")
    print(f"EFIT hit rate:         {result.extras['efit_hit_rate']:.1%}")
    print(f"AMT hit rate:          {result.extras['amt_hit_rate']:.1%}")
    footprint = result.metadata
    print(f"metadata on-chip:      {footprint.onchip_bytes} B")
    print(f"metadata in NVMM:      {footprint.nvmm_bytes} B")
    print()
    print("Write-path latency profile (Figure 17's view):")
    for stage, share in sorted(result.breakdown_fractions().items(),
                               key=lambda kv: -kv[1]):
        print(f"  {str(stage):26s} {share:6.1%}")


if __name__ == "__main__":
    main()
