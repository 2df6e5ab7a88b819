"""Sweep scheduler: cache pass, backend dispatch, manifest.

Execution model:

* Jobs are first checked against the :class:`~repro.sweep.store.ResultStore`
  — a hit skips simulation entirely, which is what makes interrupted sweeps
  resumable and repeat sweeps (new figures over the same grid) free.
* Misses are handed to a pluggable
  :class:`~repro.sweep.backends.ExecutionBackend`:

  - ``pool`` (default): a ``ProcessPoolExecutor`` fan-out (``jobs``
    workers, default ``os.cpu_count()``).  A crashed or timed-out worker
    fails only the jobs it was running; those jobs are resubmitted on a
    fresh pool up to ``retries`` extra attempts before the sweep raises
    :class:`~repro.common.errors.SweepError`.  ``jobs=1`` bypasses the
    pool and runs in-process (no fork overhead, and exceptions surface
    with full tracebacks) while still using the store.
  - ``queue``: lease-based distributed execution through the shared
    store's work queue — local worker processes plus any external
    ``repro worker`` processes pointed at the same store.

* One trace per application is shared through the store; scheme jobs
  replay it, preserving the paper's paired-trace methodology and the
  serial runner's exact request streams.  It is seeded on first use, so
  simulation starts once the first application's trace exists: the pool
  seeds an application just before submitting its jobs, a queue worker
  seeds the trace of the job it claims.

* ``KeyboardInterrupt`` is a clean shutdown, not a crash: worker processes
  are terminated, the manifest is written with ``interrupted: true``, and
  the signal propagates.  Completed cells were already flushed atomically,
  so a re-invocation resumes from them.

Determinism: every scheme run seeds its own RNGs from its configuration and
consumes a replayed trace, so cell results are independent of worker count,
execution backend, and scheduling order — the parallel (or distributed)
grid is byte-identical to a serial :func:`~repro.sim.runner.run_grid`.
"""

from __future__ import annotations

import os
import tempfile
from pathlib import Path
from typing import Callable, Dict, Optional, Sequence, Tuple, Union

from ..common.errors import SweepError, UnknownBackendError
from ..sim.metrics import SimulationResult
from .backends import (
    ExecutionBackend,
    ExecutionContext,
    make_execution_backend,
)
from .job import JobSpec, jobs_from_experiment
from .progress import STATUS_CACHED, ProgressReporter
from .store import ResultStore, open_store
from .worker import execute_job

__all__ = ["Scheduler", "execute_job", "run_sweep"]


class Scheduler:
    """Orchestrates a set of :class:`JobSpec` over an execution backend.

    Args:
        store: result store to consult/populate; ``None`` uses a temporary
            store discarded after the run (parallelism without persistence).
        jobs: worker processes (default ``os.cpu_count()``; 1 = in-process
            for the pool backend).
        job_timeout_s: wall-clock budget per job; a round of jobs that
            exceeds its aggregate budget is torn down and retried.
        retries: extra attempts per job after a crash/timeout/exception.
        reporter: progress sink; ``None`` builds a silent one.
        backend: execution backend — a registered name (``"pool"``,
            ``"queue"``) or an :class:`ExecutionBackend` instance;
            ``None`` means the original pool semantics.
        worker: job-execution callable, injectable for tests; must be a
            module-level (picklable) function with ``execute_job``'s
            signature.
    """

    def __init__(self, store: Optional[ResultStore] = None, *,
                 jobs: Optional[int] = None,
                 job_timeout_s: float = 600.0,
                 retries: int = 2,
                 reporter: Optional[ProgressReporter] = None,
                 backend: Union[str, ExecutionBackend, None] = None,
                 worker: Callable[[JobSpec, str], SimulationResult] = execute_job) -> None:
        if jobs is not None and jobs <= 0:
            raise ValueError("jobs must be positive")
        if job_timeout_s <= 0:
            raise ValueError("job_timeout_s must be positive")
        if retries < 0:
            raise ValueError("retries must be non-negative")
        self.store = store
        self.jobs = jobs or os.cpu_count() or 1
        self.job_timeout_s = job_timeout_s
        self.retries = retries
        self.reporter = reporter
        if backend is None:
            backend = "pool"
        self.backend = (make_execution_backend(backend)
                        if isinstance(backend, str) else backend)
        self._worker = worker

    # ------------------------------------------------------------------

    def run(self, specs: Sequence[JobSpec]) -> Dict[Tuple[str, str], SimulationResult]:
        """Execute all jobs; returns ``{(app, scheme): result}``.

        Grid key order follows ``specs`` order, matching the serial runner.

        Raises:
            SweepError: when any job still fails after its retry budget.
        """
        reporter = self.reporter or ProgressReporter(len(specs), enabled=False)
        if self.store is not None:
            return self._run_with_store(specs, self.store, reporter)
        with tempfile.TemporaryDirectory(prefix="repro-sweep-") as tmp:
            store = ResultStore(Path(tmp) / "store.sqlite")
            try:
                return self._run_with_store(specs, store, reporter)
            finally:
                store.close()

    def _run_with_store(self, specs: Sequence[JobSpec], store: ResultStore,
                        reporter: ProgressReporter
                        ) -> Dict[Tuple[str, str], SimulationResult]:
        cells: set = set()
        for spec in specs:
            if spec.key in cells:
                raise SweepError(
                    f"duplicate grid cell {spec.app}/{spec.scheme}")
            cells.add(spec.key)
        results: Dict[Tuple[str, str], SimulationResult] = {}
        pending: list = []
        for spec in specs:
            cached = store.get(spec.digest())
            if cached is not None:
                results[spec.key] = cached
                reporter.job_done(spec, STATUS_CACHED)
            else:
                pending.append(spec)

        ctx = ExecutionContext(
            pending=pending, store=store, reporter=reporter,
            results=results, worker=self._worker, jobs=self.jobs,
            job_timeout_s=self.job_timeout_s, retries=self.retries)

        try:
            if pending:
                self.backend.execute(ctx)
        except KeyboardInterrupt:
            # Graceful Ctrl-C: completed rows were already flushed
            # atomically, so the store is consistent; mark the manifest
            # interrupted and let the signal propagate.  A re-invocation
            # resumes from the finished cells.
            reporter.finish()
            manifest = self._manifest(reporter)
            manifest["interrupted"] = True
            if self.store is not None:
                store.write_manifest(manifest)
            raise

        reporter.finish()
        if self.store is not None:
            store.write_manifest(self._manifest(reporter))

        failed = [spec for spec in specs if spec.key not in results]
        if failed:
            detail = ", ".join(spec.describe() for spec in failed[:8])
            raise SweepError(
                f"{len(failed)} job(s) failed after {self.retries + 1} "
                f"attempt(s): {detail}")
        return {spec.key: results[spec.key] for spec in specs}

    def _manifest(self, reporter: ProgressReporter) -> Dict:
        manifest = reporter.manifest()
        manifest["jobs_flag"] = self.jobs
        manifest["backend"] = self.backend.name
        manifest["storage"] = "sqlite"
        if self.backend.metrics is not None:
            # Fleet-health observability (worker liveness, lease
            # reclaims, per-worker throughput) rides in the manifest so
            # a distributed run leaves an auditable execution record.
            manifest["obs"] = self.backend.metrics.snapshot()
        return manifest


def run_sweep(config=None, *,
              jobs: Optional[int] = None,
              store: Optional[Union[str, ResultStore]] = None,
              job_timeout_s: float = 600.0,
              retries: int = 2,
              progress: bool = False,
              reporter: Optional[ProgressReporter] = None,
              backend: Union[str, ExecutionBackend, None] = None,
              storage: Optional[str] = None):
    """Orchestrated equivalent of :func:`repro.sim.runner.run_grid`.

    Args:
        config: an :class:`~repro.sim.runner.ExperimentConfig` (defaults to
            the full paper grid, identical to ``run_grid()``).
        jobs: worker processes (default ``os.cpu_count()``).
        store: the store file's path, bare or as ``sqlite://<path>``
            (created on demand), or a :class:`ResultStore`; ``None`` runs
            without persistence.
        progress: emit live progress lines to stderr.
        backend: execution backend name or instance (default ``"pool"``).
        storage: ``None`` or ``"sqlite"``, the one storage backend.

    Returns:
        A :data:`~repro.sim.runner.ResultGrid` byte-identical to the serial
        runner's output for the same config.

    Raises:
        UnknownBackendError: when ``storage`` names another backend.
        SweepError: when ``store`` names an existing directory, or when
            jobs still fail after their retry budget.
    """
    from ..sim.runner import ExperimentConfig  # deferred: avoids cycle
    if storage not in (None, "sqlite"):
        raise UnknownBackendError(
            f"unknown storage backend {storage!r}: a sweep store is one "
            f"SQLite file, and the 'dir' backend was removed; pass "
            f"storage='sqlite' or leave it out")
    config = config or ExperimentConfig()
    specs = jobs_from_experiment(config)
    if reporter is None:
        reporter = ProgressReporter(len(specs), enabled=progress)
    opened = isinstance(store, (str, os.PathLike))
    if opened:
        store = open_store(store)
    scheduler = Scheduler(store, jobs=jobs, job_timeout_s=job_timeout_s,
                          retries=retries, reporter=reporter,
                          backend=backend)
    try:
        return scheduler.run(specs)
    finally:
        if opened:
            store.close()
