#!/usr/bin/env python3
"""Dedup-as-a-service walkthrough: server, tenants, metrics, parity.

Spins up the :mod:`repro.serve` server in-process, drives three tenants
concurrently — each with its own scheme, workload, and (for one of
them) per-tenant config overrides — then prints the per-tenant summary
rows, the serve-side metrics the server accumulated, and a parity check
of every served result against a direct in-process run.

This is the "millions of users" framing from the roadmap scaled down to
a demo: many independent trace sources multiplexed onto one shared
engine, with bounded queues and backpressure keeping any one tenant
from monopolizing it (DESIGN.md §11).

Run:
    python examples/service_demo.py
"""

import sys
import threading
from pathlib import Path

try:
    import repro  # noqa: F401
except ImportError:  # running from a checkout without PYTHONPATH=src
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.analysis.reporting import format_table
from repro.registry import make_scheme
from repro.serve import BackgroundServer, ServeClient, ServeConfig
from repro.sim.engine import EngineConfig, SimulationEngine
from repro.sim.export import result_to_state
from repro.sim.runner import scaled_system_config
from repro.workloads.generator import TraceGenerator

#: tenant -> (scheme, app, requests, seed, per-tenant config overrides)
TENANTS = {
    "alice": ("ESD", "gcc", 8000, 21, None),
    "bob": ("Dedup_SHA1", "lbm", 6000, 22, None),
    "carol": ("ESD", "deepsjeng", 6000, 23, {"esd.decay_period": 512}),
}


def drive_tenant(port, tenant, payloads):
    scheme, app, requests, seed, options = TENANTS[tenant]
    trace = TraceGenerator(app, seed=seed).generate_list(requests)
    with ServeClient("127.0.0.1", port) as client:
        payloads[tenant] = client.run_trace(
            iter(trace), scheme, tenant=tenant, app=app,
            total_hint=len(trace), options=options)


def direct_state(tenant):
    scheme, app, requests, seed, options = TENANTS[tenant]
    trace = TraceGenerator(app, seed=seed).generate_list(requests)
    config = scaled_system_config()
    if options:
        config = config.with_options(options)
    engine = SimulationEngine(make_scheme(scheme, config), EngineConfig())
    return result_to_state(engine.run(iter(trace), app=app,
                                      total_hint=len(trace)))


def main() -> None:
    payloads = {}
    with BackgroundServer(ServeConfig(max_sessions=8)) as server:
        print(f"server up on 127.0.0.1:{server.port}\n")
        threads = [threading.Thread(target=drive_tenant,
                                    args=(server.port, tenant, payloads))
                   for tenant in TENANTS]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        rows = []
        for tenant, (scheme, app, requests, _seed, options) in TENANTS.items():
            summary = payloads[tenant]["summary"]
            rows.append([tenant, scheme, app, requests,
                         f"{summary['write_reduction'] * 100:.1f}",
                         f"{summary['write_latency_ns']:.0f}",
                         "yes" if options else "-"])
        print(format_table(
            ["tenant", "scheme", "app", "requests", "write_red_%",
             "avg_write_ns", "overrides"],
            rows, title="Per-tenant served results"))

        with ServeClient("127.0.0.1", server.port) as client:
            flat = client.metrics()["flat"]
        print("\nServe metrics (selection):")
        for key in sorted(flat):
            if key.startswith(("serve_requests_total", "serve_sessions",
                               "serve_rejected_total")):
                print(f"  {key} = {flat[key]}")

    print(f"\nserver drained clean: {server.drained_clean}")

    # Concurrent sessions share the process-global memo caches, so the
    # cache-statistics extras depend on interleaving; everything else —
    # latencies, counters, energy, IPC — must match a direct run exactly.
    print("\nParity vs direct runs (cache-stat extras excluded):")
    for tenant in TENANTS:
        served = dict(payloads[tenant]["state"])
        expected = direct_state(tenant)
        for state in (served, expected):
            state["extras"] = {k: v for k, v in state["extras"].items()
                               if not k.startswith("memo_")}
        status = "exact" if served == expected else "MISMATCH"
        print(f"  {tenant:6s} {status}")


if __name__ == "__main__":
    main()
