"""Lease-based sweep worker: the claim → simulate → record loop.

A worker is any process pointed at a shared result store (one SQLite
file).  It scans the store's work queue, claims one job at a time via
the store's atomic lease protocol (keyed on the job's content-hash
digest, so two racing workers can never both own a cell), heartbeats
the lease from a background thread while the job runs, and atomically
writes the full-fidelity result row on completion.  Because every job
is deterministic, a worker that is SIGKILLed mid-job costs nothing but
time: its lease expires, the next claimant reruns the job, and the
rerun's row is byte-identical to what the dead worker would have
written.

The claimant of an application's first job also seeds that
application's trace into the store; later jobs of the application read
it back.

Entry points: :func:`worker_loop` (library; also what
``repro worker --store ...`` runs) and
:class:`~repro.sweep.backends.WorkQueueBackend`, which spawns local
worker processes over this same loop.
"""

from __future__ import annotations

import os
import socket
import threading
import time
import uuid
from typing import Callable, Dict, Optional

from ..sim.metrics import SimulationResult
from ..sim.runner import run_app
from ..workloads.generator import TraceGenerator
from ..workloads.profiles import get_profile
from ..workloads.trace import read_trace_list
from .job import JobSpec, spec_from_payload
from .store import ResultStore, job_meta, open_store

__all__ = ["default_worker_id", "execute_job", "worker_loop"]


#: Per-process memo of recently parsed traces.  Pool workers serve many
#: jobs; scheme jobs of the same application share a trace file, so keeping
#: the last few parsed streams in the worker avoids re-deserializing 64-byte
#: payload records for every cell.  Bounded to stay small under the
#: many-apps case.
_TRACE_MEMO: "Dict[str, list]" = {}
_TRACE_MEMO_CAP = 4


def _load_trace(trace_path: str) -> list:
    trace = _TRACE_MEMO.get(trace_path)
    if trace is None:
        trace = read_trace_list(trace_path)
        while len(_TRACE_MEMO) >= _TRACE_MEMO_CAP:
            _TRACE_MEMO.pop(next(iter(_TRACE_MEMO)))
        _TRACE_MEMO[trace_path] = trace
    return trace


def execute_job(spec: JobSpec, trace_path: str) -> SimulationResult:
    """Run one grid cell; the worker-side entry point (must be picklable).

    Deliberately funnels through :func:`~repro.sim.runner.run_app` so the
    orchestrated path exercises the exact code the serial runner does.
    """
    trace = _load_trace(trace_path)
    results = run_app(spec.app, [spec.scheme], requests=spec.requests,
                      system=spec.system, engine=spec.engine,
                      costs=spec.costs, seed=spec.seed, trace=trace)
    return results[spec.scheme]


def default_worker_id() -> str:
    """A host-and-pid-qualified identifier for lease ownership."""
    return f"{socket.gethostname()}-{os.getpid()}-{uuid.uuid4().hex[:6]}"


class _Heartbeat:
    """Background lease renewal while one job simulates.

    Renews at one third of the TTL so two renewals can be missed before
    the lease expires.  A failed renewal (the lease was reclaimed from a
    stalled owner) is recorded but does not abort the job: the result
    write is idempotent and byte-identical, so finishing is harmless.
    """

    def __init__(self, store: ResultStore, digest: str, worker_id: str,
                 ttl_s: float) -> None:
        self._store = store
        self._digest = digest
        self._worker_id = worker_id
        self._ttl_s = ttl_s
        self._stop = threading.Event()
        self.lost = False
        self._thread = threading.Thread(target=self._run, daemon=True,
                                        name=f"lease-{digest[:8]}")

    def _run(self) -> None:
        interval = max(self._ttl_s / 3.0, 0.05)
        while not self._stop.wait(interval):
            try:
                if not self._store.renew(self._digest, self._worker_id,
                                         self._ttl_s):
                    self.lost = True
                    return
            except Exception:
                # A transient renewal failure (e.g. a contended lock) is
                # survivable as long as a later renewal lands in time.
                continue

    def __enter__(self) -> "_Heartbeat":
        self._thread.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self._stop.set()
        self._thread.join(timeout=5.0)


def _ensure_local_trace(store: ResultStore, spec: JobSpec) -> str:
    """Materialize the job's shared trace locally, generating on miss.

    The one place a sweep seeds a trace, on first use: a queue worker
    for the job it claimed, a pool coordinator just before it submits an
    application's jobs.  Two processes that race to seed one trace store
    identical bytes — generation is deterministic and the write atomic —
    so regenerating is always safe.
    """
    def generate():
        profile = get_profile(spec.app)
        return TraceGenerator(profile, seed=spec.seed).generate_list(
            spec.requests)

    return str(store.ensure_trace(spec.trace_id, generate))


def worker_loop(store_spec: str, *,
                worker_id: Optional[str] = None,
                lease_s: float = 15.0,
                poll_s: float = 0.25,
                retries: int = 2,
                max_jobs: Optional[int] = None,
                wait: bool = False,
                worker: Callable[[JobSpec, str], SimulationResult] = execute_job,
                log: Optional[Callable[[str], None]] = None) -> int:
    """Serve a store's work queue until it drains; returns jobs completed.

    Args:
        store_spec: the store file's path, bare or as ``sqlite://<path>``.
        worker_id: lease-ownership identity (default: host-pid-random).
        lease_s: lease TTL; renewal runs at a third of this.
        poll_s: sleep between scans when nothing was claimable.
        retries: extra attempts a job gets after a failure before its
            failure tombstone is written (matches the pool scheduler).
        max_jobs: stop after completing this many jobs (testing hook).
        wait: keep polling even after the queue is fully terminal, so a
            pre-started worker can serve sweeps that arrive later.
        worker: job-execution callable, injectable for tests.
        log: optional line sink for human-readable progress.
    """
    store = open_store(store_spec)
    worker_id = worker_id or default_worker_id()
    emit = log or (lambda _line: None)
    completed = 0
    emit(f"[worker {worker_id}] serving store {store.spec}")
    try:
        while True:
            digests = store.iter_queue()
            # Rotate the scan origin by worker identity so a fleet does
            # not stampede the same head-of-queue digest every pass.
            if digests:
                offset = hash(worker_id) % len(digests)
                digests = digests[offset:] + digests[:offset]
            all_terminal = True
            progressed = False
            for digest in digests:
                if digest in store or store.get_failure(digest) is not None:
                    continue
                all_terminal = False
                claim = store.claim(digest, worker_id, lease_s)
                if claim is None:
                    continue
                progressed = True
                if claim.attempts > retries + 1:
                    # The previous holders burned the whole budget (e.g.
                    # a poison job that kills its worker every time).
                    store.mark_failed(
                        digest,
                        f"retry budget exhausted after "
                        f"{claim.attempts - 1} attempt(s) "
                        f"(lease reclaimed from dead workers)",
                        claim.attempts - 1)
                    store.release(digest, worker_id)
                    continue
                completed += int(_run_claimed(store, digest, claim.attempts,
                                              worker_id, lease_s, retries,
                                              worker, emit))
                if max_jobs is not None and completed >= max_jobs:
                    return completed
            if all_terminal and not wait:
                emit(f"[worker {worker_id}] queue drained "
                     f"({completed} job(s) completed)")
                return completed
            if not progressed:
                time.sleep(poll_s)
    finally:
        store.close()


def _run_claimed(store: ResultStore, digest: str, attempts: int,
                 worker_id: str, lease_s: float, retries: int,
                 worker: Callable[[JobSpec, str], SimulationResult],
                 emit: Callable[[str], None]) -> bool:
    """Execute one claimed job; returns True when a result was recorded."""
    payload = store.queue_payload(digest)
    try:
        if payload is None:
            raise ValueError(f"queue payload missing for {digest[:12]}")
        spec = spec_from_payload(payload.get("spec"))
    except Exception as exc:
        # Decoding is deterministic, so a retry would fail the same way.
        store.mark_failed(digest, repr(exc), attempts)
        store.release(digest, worker_id)
        emit(f"[worker {worker_id}] bad queue entry {digest[:12]}: {exc!r}")
        return False
    try:
        with _Heartbeat(store, digest, worker_id, lease_s):
            # Seeding is part of the job: it runs under the lease and
            # spends the job's retry budget when it fails.
            trace_path = _ensure_local_trace(store, spec)
            started = time.monotonic()
            result = worker(spec, trace_path)
    except KeyboardInterrupt:
        store.release(digest, worker_id)
        raise
    except Exception as exc:
        if attempts >= retries + 1:
            store.mark_failed(digest, repr(exc), attempts)
            emit(f"[worker {worker_id}] {spec.describe()} failed "
                 f"terminally: {exc!r}")
        else:
            emit(f"[worker {worker_id}] {spec.describe()} failed "
                 f"(attempt {attempts}): {exc!r}")
        store.release(digest, worker_id)
        return False
    duration = time.monotonic() - started
    store.put(digest, result, job=job_meta(spec))
    if result.obs is not None:
        store.put_obs(digest, result.obs)
    store.record_completion(digest, worker_id, duration, attempts)
    store.release(digest, worker_id)
    emit(f"[worker {worker_id}] {spec.describe()} done in {duration:.1f}s")
    return True


def _worker_process_entry(store_spec: str, worker_id: str, lease_s: float,
                          poll_s: float, retries: int,
                          worker: Callable[[JobSpec, str],
                                           SimulationResult]) -> None:
    """Module-level target for locally spawned worker processes."""
    worker_loop(store_spec, worker_id=worker_id, lease_s=lease_s,
                poll_s=poll_s, retries=retries, worker=worker)
