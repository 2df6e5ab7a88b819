#!/usr/bin/env python3
"""CI smoke gate for the distributed sweep path (queue backend).

Runs the same small experiment grid twice, each into its own SQLite
store:

* **Reference** — the serial pool path (``jobs=1``): the byte-exact
  baseline every other execution mode is judged against.
* **Distributed** — the lease-based work-queue backend with three local
  worker processes — one of which is SIGKILLed mid-sweep by a watcher
  thread the moment the first result lands.  Workers seed the traces of
  the jobs they claim, so the kill can land while a trace is being
  generated.  The killed worker's lease must expire, its job must be
  reclaimed and rerun, and the final grid must come out byte-identical
  anyway.

Hard gates (exit 2 on violation):

* Every cell's summary row from the distributed run is byte-identical
  to the serial reference (JSON text compare, sort_keys).
* The SIGKILL actually happened (a smoke run that never killed anything
  proves nothing) and at least one lease reclaim or worker respawn was
  recorded — the fault path genuinely executed.

Usage::

    PYTHONPATH=src python benchmarks/sweep_distributed_smoke.py
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
import threading
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

try:
    import repro  # noqa: F401
except ImportError:  # running from a checkout without PYTHONPATH=src
    sys.path.insert(0, str(REPO / "src"))

from repro.common.config import small_test_config
from repro.sim.runner import ExperimentConfig
from repro.sweep import WorkQueueBackend, open_store, run_sweep

APPS = ("gcc", "lbm", "mcf", "xalancbmk")
SCHEMES = ("Baseline", "ESD")
REQUESTS = 1200
SEED = 17
WORKERS = 3
LEASE_S = 2.0


def experiment() -> ExperimentConfig:
    return ExperimentConfig(apps=list(APPS), schemes=list(SCHEMES),
                            requests_per_app=REQUESTS,
                            system=small_test_config(), seed=SEED)


def summary_rows(grid) -> str:
    rows = {f"{app}/{scheme}": result.summary_row()
            for (app, scheme), result in grid.items()}
    return json.dumps(rows, sort_keys=True)


class WorkerKiller(threading.Thread):
    """SIGKILL one local worker as soon as the first result is stored."""

    def __init__(self, backend: WorkQueueBackend, store_spec: str) -> None:
        super().__init__(daemon=True)
        self.backend = backend
        self.store_spec = store_spec
        self.killed_pid = None

    def run(self) -> None:
        store = open_store(self.store_spec)
        try:
            deadline = time.monotonic() + 120.0
            while time.monotonic() < deadline:
                if store.completions():
                    for proc in self.backend.processes:
                        if proc.is_alive() and proc.pid is not None:
                            os.kill(proc.pid, signal.SIGKILL)
                            self.killed_pid = proc.pid
                            return
                time.sleep(0.05)
        finally:
            store.close()


def main(argv=None) -> int:
    argparse.ArgumentParser(
        description=__doc__.splitlines()[0]).parse_args(argv)
    tmp = Path(os.environ.get("SWEEP_SMOKE_DIR", "/tmp")) \
        / f"sweep-distributed-smoke-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    config = experiment()

    print("[smoke] serial reference (pool backend)...", file=sys.stderr)
    serial = run_sweep(config, jobs=1, store=str(tmp / "reference.sqlite"))
    reference = summary_rows(serial)

    print(f"[smoke] distributed run (queue backend, {WORKERS} workers, "
          f"one SIGKILLed mid-run)...", file=sys.stderr)
    store_spec = str(tmp / "distributed.sqlite")
    backend = WorkQueueBackend(lease_s=LEASE_S, poll_s=0.1)
    killer = WorkerKiller(backend, store_spec)
    killer.start()
    distributed = run_sweep(config, jobs=WORKERS, store=store_spec,
                            backend=backend)
    killer.join(timeout=5.0)

    store = open_store(store_spec)
    reclaims = store.reclaim_count()
    manifest = store.read_manifest()
    store.close()
    flat = (manifest or {}).get("obs", {}).get("flat", {})
    respawns = int(flat.get("sweep_worker_respawns_total", 0))
    workers_seen = sorted(k.split('"')[1] for k in flat
                          if k.startswith("sweep_jobs_completed_total{"))

    identical = summary_rows(distributed) == reference
    print(f"[smoke] killed pid={killer.killed_pid} reclaims={reclaims} "
          f"respawns={respawns} workers={len(workers_seen)} "
          f"identical={identical}", file=sys.stderr)

    failed = False
    if killer.killed_pid is None:
        print("FAIL: no worker was killed — the fault path never ran",
              file=sys.stderr)
        failed = True
    if reclaims < 1 and respawns < 1:
        print("FAIL: neither a lease reclaim nor a worker respawn was "
              "recorded after the SIGKILL", file=sys.stderr)
        failed = True
    if not identical:
        print("FAIL: distributed summary rows diverge from the serial "
              "reference", file=sys.stderr)
        failed = True
    if not failed:
        print(f"[smoke] OK: {len(distributed)} cells byte-identical to "
              f"serial after killing worker {killer.killed_pid}",
              file=sys.stderr)
    return 2 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
