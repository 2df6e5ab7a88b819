"""Parallel experiment orchestration: scheduler, backends, store, progress.

The paper's evaluation is a (20 applications) x (4 schemes) grid; replaying
it serially is the slowest path in the repo and re-simulates cells every
run.  This subsystem turns the grid into content-addressed jobs:

* :class:`JobSpec` — one (app, scheme) cell with a stable content hash
  over every input that affects its result.
* :class:`Scheduler` — cache pass, manifest; hands cache misses to a
  pluggable execution backend.
* :class:`ProcessPoolBackend` / :class:`WorkQueueBackend` — how misses
  execute, seeding each application's shared trace on first use: a
  local process pool with retries and timeouts, or a lease-based
  distributed work queue any number of ``repro worker`` processes can
  serve through the shared store.
* :class:`ResultStore` — persists full-fidelity results keyed by job
  hash in one concurrent-safe SQLite file, so re-runs and interrupted
  sweeps resume instantly.
* :class:`ProgressReporter` — live completed/failed/ETA lines plus a
  machine-readable sweep manifest.

Entry points: :func:`run_sweep` (library; for a config it returns the
same grid as the serial :func:`repro.sim.runner.run_grid`) and
``python -m repro.cli sweep`` / ``python -m repro.cli worker`` (command
line).
"""

from .backends import (
    ExecutionBackend,
    ExecutionContext,
    ProcessPoolBackend,
    WorkQueueBackend,
    execution_backend_names,
    make_execution_backend,
)
from .job import (
    SWEEP_SCHEMA_VERSION,
    JobSpec,
    jobs_from_experiment,
    spec_from_payload,
    spec_to_payload,
)
from .obs import SweepMetrics
from .progress import (
    STATUS_CACHED,
    STATUS_FAILED,
    STATUS_SIMULATED,
    ProgressReporter,
)
from .scheduler import Scheduler, run_sweep
from .store import LeaseClaim, ResultStore, job_meta, open_store
from .worker import default_worker_id, execute_job, worker_loop

__all__ = [
    "ExecutionBackend",
    "ExecutionContext",
    "JobSpec",
    "LeaseClaim",
    "ProcessPoolBackend",
    "ProgressReporter",
    "ResultStore",
    "STATUS_CACHED",
    "STATUS_FAILED",
    "STATUS_SIMULATED",
    "SWEEP_SCHEMA_VERSION",
    "Scheduler",
    "SweepMetrics",
    "WorkQueueBackend",
    "default_worker_id",
    "execute_job",
    "execution_backend_names",
    "job_meta",
    "jobs_from_experiment",
    "make_execution_backend",
    "open_store",
    "run_sweep",
    "spec_from_payload",
    "spec_to_payload",
    "worker_loop",
]
