#!/usr/bin/env python3
"""Compare Baseline, Dedup_SHA1, DeWrite, and ESD head-to-head.

Reproduces the core of the paper's evaluation (Figures 11/12/13/16 in
miniature) on a handful of applications: write reduction, write/read
speedups, energy, and IPC — all normalized to the Baseline scheme.

Run:
    python examples/scheme_comparison.py [app ...]
"""

import sys

from repro.analysis.reporting import format_table
from repro.registry import scheme_names
from repro.sim import run_app, scaled_system_config

DEFAULT_APPS = ["gcc", "deepsjeng", "lbm", "leela"]
REQUESTS = 15_000


def compare(app: str) -> list:
    schemes = scheme_names()
    results = run_app(app, schemes, requests=REQUESTS,
                      system=scaled_system_config())
    base = results["Baseline"]
    rows = []
    for name in schemes:
        r = results[name]
        rows.append([
            app,
            name,
            r.write_reduction,
            base.mean_write_latency_ns / r.mean_write_latency_ns,
            base.mean_read_latency_ns / r.mean_read_latency_ns,
            r.total_energy_nj / base.total_energy_nj,
            r.ipc / base.ipc,
        ])
    return rows


def main() -> None:
    apps = sys.argv[1:] or DEFAULT_APPS
    rows = []
    for app in apps:
        print(f"simulating {app} ({REQUESTS} requests x 4 schemes)...")
        rows.extend(compare(app))
    print()
    print(format_table(
        ["app", "scheme", "write_reduction", "write_speedup",
         "read_speedup", "energy_vs_base", "ipc_vs_base"],
        rows,
        title="Scheme comparison (all ratios vs Baseline)",
        float_format="{:.2f}"))
    print()
    print("Expected shapes (paper, Section IV): ESD has the highest "
          "speedups and lowest energy;")
    print("Dedup_SHA1 degrades most applications; DeWrite sits in between.")


if __name__ == "__main__":
    main()
