"""Pluggable execution backends for the sweep scheduler.

The :class:`~repro.sweep.scheduler.Scheduler` owns *what* to run (cache
checks, the manifest, failure accounting); an :class:`ExecutionBackend`
owns *how* the cache-miss jobs execute, including when each
application's shared trace is seeded — on first use, so simulation
starts as soon as the first trace exists:

``pool``
    The original semantics — a ``ProcessPoolExecutor`` fan-out with
    round-budget timeouts, per-job retries, and clean Ctrl-C teardown.
    The coordinator seeds an application's trace just before it submits
    that application's jobs, so the pool simulates one application
    while the next is seeded.  ``jobs=1`` bypasses the pool and runs
    in-process.

``queue``
    Lease-based distributed execution.  The coordinator publishes every
    pending job into the shared store's work queue and spawns ``jobs``
    local worker processes (:func:`repro.sweep.worker.worker_loop`); any
    number of additional ``repro worker --store ...`` processes — on
    this host or others sharing the store — can join the same sweep.
    Workers seed the trace of the job they claim.  The coordinator then
    just polls the store, one lookup of results and one of failure
    tombstones per poll, both over this sweep's unfinished jobs only:
    leases of dead workers expire and are reclaimed, and a
    :class:`~repro.sweep.obs.SweepMetrics` registry tracks fleet health
    for the manifest.

Backends are registered by name (``EXECUTION_BACKENDS``) so the CLI can
enumerate them.
"""

from __future__ import annotations

import abc
import math
import multiprocessing
import time
from concurrent.futures import ProcessPoolExecutor, TimeoutError as FutureTimeout
from concurrent.futures import as_completed
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Callable, ClassVar, Dict, List, Optional, Sequence, Tuple

from ..common.errors import SweepError, UnknownBackendError
from ..sim.metrics import SimulationResult
from .job import JobSpec, spec_to_payload
from .obs import SweepMetrics
from .progress import STATUS_FAILED, STATUS_SIMULATED, ProgressReporter
from .store import ResultStore, job_meta
from .worker import (
    _ensure_local_trace,
    _worker_process_entry,
    default_worker_id,
    execute_job,
)

__all__ = [
    "EXECUTION_BACKENDS",
    "ExecutionBackend",
    "ExecutionContext",
    "ProcessPoolBackend",
    "WorkQueueBackend",
    "execution_backend_names",
    "make_execution_backend",
]


@dataclass
class ExecutionContext:
    """Everything a backend needs to execute one sweep's pending jobs.

    The scheduler builds this after the cache pass: ``pending`` holds
    only the cells that actually need simulation, ``results`` already
    contains the cache hits and is filled in-place as jobs finish.
    """

    pending: Sequence[JobSpec]
    store: ResultStore
    reporter: ProgressReporter
    results: Dict[Tuple[str, str], SimulationResult]
    worker: Callable[[JobSpec, str], SimulationResult] = execute_job
    jobs: int = 1
    job_timeout_s: float = 600.0
    retries: int = 2


class ExecutionBackend(abc.ABC):
    """How a sweep's cache-miss jobs get executed."""

    #: Registry key, shown by ``repro sweep --backend``.
    name: ClassVar[str]

    #: Fleet-health metrics of the last run, when the backend keeps any.
    metrics: Optional[SweepMetrics] = None

    @abc.abstractmethod
    def execute(self, ctx: ExecutionContext) -> None:
        """Run ``ctx.pending``; record outcomes via ``ctx.results`` and
        ``ctx.reporter``.  Each application's trace is seeded on first
        use (:func:`repro.sweep.worker._ensure_local_trace`), by the
        coordinator or by the worker that needs it.  Jobs that exhaust
        their retry budget are reported ``STATUS_FAILED`` and simply left
        out of ``ctx.results`` — the scheduler turns the gap into a
        :class:`SweepError`."""


# ----------------------------------------------------------------------
# Process-pool backend (the original scheduler execution path)
# ----------------------------------------------------------------------

class ProcessPoolBackend(ExecutionBackend):
    """``ProcessPoolExecutor`` fan-out with retries and round budgets."""

    name = "pool"

    def execute(self, ctx: ExecutionContext) -> None:
        if ctx.jobs == 1:
            self._run_serial(ctx)
        else:
            self._run_pool(ctx)

    @staticmethod
    def _record(ctx: ExecutionContext, spec: JobSpec,
                result: SimulationResult, attempts: int,
                duration: float) -> None:
        ctx.store.put(spec.digest(), result, job=job_meta(spec))
        if result.obs is not None:
            # Observability reports live beside the result rows (the
            # store's ``obs`` table) — they are diagnostic artifacts, not
            # part of a cell's cache identity, so result digests stay stable
            # whether or not a run carried instrumentation.
            ctx.store.put_obs(spec.digest(), result.obs)
        ctx.results[spec.key] = result
        ctx.reporter.job_done(spec, STATUS_SIMULATED, attempts=attempts,
                              duration_s=duration)

    def _run_serial(self, ctx: ExecutionContext) -> None:
        traces: Dict[str, str] = {}
        for spec in ctx.pending:
            if spec.trace_id not in traces:
                traces[spec.trace_id] = _ensure_local_trace(ctx.store, spec)
            attempts = 0
            while True:
                attempts += 1
                started = time.monotonic()
                try:
                    result = ctx.worker(spec, traces[spec.trace_id])
                except Exception as exc:
                    if attempts <= ctx.retries:
                        ctx.reporter.job_retry(spec, attempts, repr(exc))
                        continue
                    ctx.reporter.job_done(
                        spec, STATUS_FAILED, attempts=attempts,
                        duration_s=time.monotonic() - started,
                        error=repr(exc))
                    break
                self._record(ctx, spec, result, attempts,
                             time.monotonic() - started)
                break

    def _run_pool(self, ctx: ExecutionContext) -> None:
        attempts: Dict[str, int] = {spec.digest(): 0 for spec in ctx.pending}
        traces: Dict[str, str] = {}
        remaining = list(ctx.pending)
        while remaining:
            batch, remaining = remaining, []
            workers = min(ctx.jobs, len(batch))
            # Aggregate wall budget for the round: each worker slot gets the
            # per-job timeout for every job it may serve.
            budget = ctx.job_timeout_s * math.ceil(len(batch) / workers)
            started: Dict[str, float] = {}
            with ProcessPoolExecutor(max_workers=workers) as pool:
                futures: Dict = {}

                def collect(finished) -> None:
                    for future in finished:
                        spec = futures.pop(future)
                        digest = spec.digest()
                        attempts[digest] += 1
                        duration = time.monotonic() - started[digest]
                        try:
                            result = future.result()
                        except Exception as exc:
                            if attempts[digest] <= ctx.retries:
                                ctx.reporter.job_retry(
                                    spec, attempts[digest], repr(exc))
                                remaining.append(spec)
                            else:
                                ctx.reporter.job_done(
                                    spec, STATUS_FAILED,
                                    attempts=attempts[digest],
                                    duration_s=duration, error=repr(exc))
                        else:
                            self._record(ctx, spec, result,
                                         attempts[digest], duration)

                timed_out = False
                try:
                    for i, spec in enumerate(batch):
                        if spec.trace_id not in traces:
                            # Jobs arrive app-major, so the pool simulates
                            # the previous application while this one is
                            # seeded; bank what finished meanwhile.
                            collect([f for f in futures if f.done()])
                            traces[spec.trace_id] = _ensure_local_trace(
                                ctx.store, spec)
                        started[spec.digest()] = time.monotonic()
                        try:
                            future = pool.submit(
                                ctx.worker, spec, traces[spec.trace_id])
                        except BrokenProcessPool:
                            # A worker died while this round was still
                            # being submitted.  The jobs not yet submitted
                            # move to the next round's fresh pool without
                            # spending an attempt; the futures the crash
                            # failed are charged by collect() below.
                            remaining.extend(batch[i:])
                            break
                        futures[future] = spec
                    try:
                        collect(as_completed(futures, timeout=budget))
                    except FutureTimeout:
                        timed_out = True
                except BaseException:
                    # Ctrl-C (or a failed seed or store write) mid-round:
                    # in-flight cells are abandoned (they can re-run on
                    # resume).  Force-stop the round's worker processes
                    # before the executor's final join — without this,
                    # the ``with`` block's shutdown(wait=True) runs every
                    # submitted job first, and a second Ctrl-C is needed.
                    self._stop_pool(pool)
                    raise
                if timed_out:
                    # Tear the round down; unfinished jobs burn one attempt.
                    # A hung worker would otherwise block the executor's
                    # final join forever.
                    self._stop_pool(pool)
                    for future, spec in futures.items():
                        digest = spec.digest()
                        attempts[digest] += 1
                        duration = time.monotonic() - started[digest]
                        err = (f"timeout after "
                               f"{ctx.job_timeout_s:.0f}s/job round budget")
                        if attempts[digest] <= ctx.retries:
                            ctx.reporter.job_retry(spec, attempts[digest],
                                                   err)
                            remaining.append(spec)
                        else:
                            ctx.reporter.job_done(spec, STATUS_FAILED,
                                                  attempts=attempts[digest],
                                                  duration_s=duration,
                                                  error=err)

    @staticmethod
    def _stop_pool(pool: ProcessPoolExecutor) -> None:
        for proc in list((getattr(pool, "_processes", None) or {}).values()):
            proc.terminate()
        pool.shutdown(wait=False, cancel_futures=True)


# ----------------------------------------------------------------------
# Lease-based work-queue backend (distributed execution)
# ----------------------------------------------------------------------

@dataclass
class WorkQueueBackend(ExecutionBackend):
    """Coordinate N worker processes through the shared store's queue.

    The coordinator never executes jobs or seeds traces itself: it
    publishes the pending specs (idempotently — the queue is keyed by
    content digest), spawns ``ctx.jobs`` local workers, which seed the
    trace of each job they claim, and polls the store for results,
    failures, completions, and lease reclaims until every published job
    is terminal.  External ``repro worker`` processes pointed at the
    same store participate transparently.

    Args:
        lease_s: lease TTL handed to local workers; a worker that dies
            mid-job stops heartbeating and its job is reclaimed after at
            most this long.
        poll_s: coordinator poll interval (and local workers' queue-scan
            backoff).
        spawn_workers: set ``False`` to publish the queue and wait for
            external workers only (``repro sweep --backend queue`` with
            a standing worker fleet).
    """

    name: ClassVar[str] = "queue"

    lease_s: float = 15.0
    poll_s: float = 0.25
    spawn_workers: bool = True
    #: Local worker processes of the current run (exposed so fault tests
    #: and the CI smoke job can SIGKILL one mid-sweep).
    processes: List[multiprocessing.Process] = field(default_factory=list)

    def execute(self, ctx: ExecutionContext) -> None:
        metrics = SweepMetrics()
        metrics.start()
        self.metrics = metrics
        store = ctx.store
        unfinished = {spec.digest(): spec for spec in ctx.pending}
        for digest, spec in unfinished.items():
            store.enqueue(digest, {"spec": spec_to_payload(spec)})

        self.processes = []
        respawn_budget = ctx.jobs * (ctx.retries + 1)
        if self.spawn_workers:
            for _ in range(ctx.jobs):
                self.processes.append(self._spawn(store.spec, ctx))

        # Hard ceiling mirroring the pool's round budgets: every job may
        # burn its full timeout on every attempt, spread over the fleet.
        deadline = time.monotonic() + (
            ctx.job_timeout_s * (ctx.retries + 1)
            * math.ceil(len(unfinished) / max(ctx.jobs, 1)) + 30.0)

        completions = _CompletionFold(set(unfinished), metrics)
        try:
            while unfinished:
                # One lookup each of results and failure tombstones per
                # poll, over this sweep's unfinished jobs only: stores
                # persist, and a poll must not pay for their old rows.  A
                # finished job's row is then read exactly once.
                finished = store.results_among(unfinished)
                failed = store.failures_among(unfinished.keys() - finished)
                for digest in [d for d in unfinished
                               if d in finished or d in failed]:
                    spec = unfinished[digest]
                    result = store.get(digest) if digest in finished else None
                    if result is not None:
                        ctx.results[spec.key] = result
                        completions.add(spec)
                    elif digest in failed:
                        failure = store.get_failure(digest) or {}
                        ctx.reporter.job_done(
                            spec, STATUS_FAILED,
                            attempts=int(failure.get("attempts", 1)),
                            error=failure.get("error"))
                    else:
                        continue  # unreadable row: not terminal yet
                    del unfinished[digest]
                completions.sync(store, ctx.reporter)

                metrics.sync_reclaims(store.reclaim_count())
                metrics.queue_depth.set(float(len(unfinished)))
                respawn_budget = self._tend_fleet(ctx, store, metrics,
                                                  bool(unfinished),
                                                  respawn_budget)
                if not unfinished:
                    break
                if time.monotonic() > deadline:
                    raise SweepError(
                        f"distributed sweep stalled: {len(unfinished)}"
                        f" job(s) not terminal within the "
                        f"{ctx.job_timeout_s:.0f}s/job budget")
                time.sleep(self.poll_s)
        except KeyboardInterrupt:
            self._stop_fleet(terminate=True)
            raise
        finally:
            self._stop_fleet(terminate=False)
            metrics.workers_alive.set(0.0)
            metrics.sync_reclaims(store.reclaim_count())
            # The local workers have exited, so every row they wrote is in.
            completions.sync(store, ctx.reporter, final=True)

    # ------------------------------------------------------------------

    def _spawn(self, store_spec: str,
               ctx: ExecutionContext) -> multiprocessing.Process:
        proc = multiprocessing.Process(
            target=_worker_process_entry,
            args=(store_spec, default_worker_id(), self.lease_s,
                  self.poll_s, ctx.retries, ctx.worker),
            daemon=True)
        proc.start()
        return proc

    def _tend_fleet(self, ctx: ExecutionContext, store: ResultStore,
                    metrics: SweepMetrics, work_remains: bool,
                    respawn_budget: int) -> int:
        """Respawn dead local workers (bounded) and refresh liveness."""
        if self.spawn_workers and work_remains:
            for i, proc in enumerate(self.processes):
                if proc.is_alive() or respawn_budget <= 0:
                    continue
                respawn_budget -= 1
                metrics.worker_respawns.inc()
                self.processes[i] = self._spawn(store.spec, ctx)
        alive = sum(1 for p in self.processes if p.is_alive())
        metrics.workers_alive.set(float(alive))
        return respawn_budget

    def _stop_fleet(self, *, terminate: bool) -> None:
        for proc in self.processes:
            if terminate and proc.is_alive():
                proc.terminate()
            proc.join(timeout=10.0)
            if proc.is_alive():
                proc.kill()
                proc.join(timeout=5.0)


class _CompletionFold:
    """Folds a sweep's completion rows into its metrics, each row once.

    The store lists completion rows in no fixed order, so a row is told
    apart by its content, never by its offset in the listing.  A worker writes
    a job's completion row just after its result row, so a simulated job
    is reported once its row has been read — the manifest then names the
    worker — or, failing that, when the sweep ends.
    """

    def __init__(self, digests: set, metrics: SweepMetrics) -> None:
        self._digests = digests
        self._metrics = metrics
        self._folded: set = set()
        self._latest: Dict[str, Dict] = {}
        self._unreported: Dict[str, JobSpec] = {}

    def add(self, spec: JobSpec) -> None:
        """Note a simulated job whose result has been read."""
        self._unreported[spec.digest()] = spec

    def sync(self, store: ResultStore, reporter: ProgressReporter, *,
             final: bool = False) -> None:
        """Fold new rows, then report the jobs whose row arrived (every
        noted job when ``final``)."""
        if not (final or self._unreported):
            return
        for row in store.completions(self._digests if final
                                     else self._unreported):
            digest = row["digest"]
            key = (digest, row["worker"], row["finished_unix"])
            if key not in self._folded:
                self._folded.add(key)
                self._latest[digest] = row
                self._metrics.record_completion(row["worker"],
                                                row["duration_s"])
        for digest in [d for d in self._unreported
                       if final or d in self._latest]:
            spec = self._unreported.pop(digest)
            row = self._latest.get(digest, {})
            reporter.job_done(spec, STATUS_SIMULATED,
                              attempts=int(row.get("attempts", 1)),
                              duration_s=float(row.get("duration_s", 0.0)),
                              worker=row.get("worker"))


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------

EXECUTION_BACKENDS: Dict[str, type] = {
    ProcessPoolBackend.name: ProcessPoolBackend,
    WorkQueueBackend.name: WorkQueueBackend,
}


def execution_backend_names() -> List[str]:
    return sorted(EXECUTION_BACKENDS)


def make_execution_backend(name: str, **knobs) -> ExecutionBackend:
    """Instantiate a registered execution backend by name.

    Raises:
        UnknownBackendError: listing the registered names, so the CLI can
            surface them verbatim.
    """
    cls = EXECUTION_BACKENDS.get(name)
    if cls is None:
        raise UnknownBackendError(
            f"unknown execution backend {name!r}; registered backends: "
            f"{', '.join(execution_backend_names())}")
    if cls is ProcessPoolBackend:
        knobs = {}  # the pool takes its knobs from the ExecutionContext
    return cls(**knobs)
