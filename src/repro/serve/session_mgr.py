"""Serve-side session lifecycle: tenancy, queues, micro-batching, routing.

One :class:`ServeSession` pairs a network-facing ingest queue with one
engine session.  The connection handler (:mod:`repro.serve.server`)
hands each ``batch`` frame's trace records to the session, which admits
the batch whole — checked and queued as one item — or rejects it whole
with ``bad_request`` or backpressure.  A per-session drain task joins
queued batches into micro-batches of at most
:data:`~repro.serve.config.MICRO_BATCH_REQUESTS` (1,024) requests,
splitting only the batch that crosses the cap, and feeds the engine.

Where the engine lives depends on ``ServeConfig.workers``:

* ``workers == 1`` — the in-process fast path: admission parses the
  records into requests (:func:`~repro.workloads.trace.parse_records`)
  and the engine :class:`~repro.sim.session.Session`
  runs on an executor thread under the manager's *engine lock*, which
  admits one session's open, feed or finalize at a time.  Sessions share
  no engine state (each scheme graph owns its memo caches and
  observation scope), so the lock is not what keeps results exact: it
  runs each micro-batch to completion without handing the GIL to
  another session's feed, and gives one handle that stalls the engine.
  Concurrency is interleaving, not parallelism — the GIL bounds the
  engine to one core.
* ``workers > 1`` — the engine session lives inside one of N spawned
  worker processes (:mod:`repro.serve.pool`), selected once at open by
  consistent tenant-hash affinity; admission checks the records without
  building requests (:class:`~repro.serve.pool.RecordSpan`), the drain
  task becomes a dispatch loop sending record bytes, and the worker
  parses them.  Sessions on distinct workers simulate
  in true parallel.  A crashed
  worker fails exactly the sessions routed to it with
  :class:`~repro.common.errors.WorkerCrashError`; everyone else keeps
  streaming (DESIGN.md §14).
"""

from __future__ import annotations

import asyncio
import itertools
import threading
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from typing import (
    Any,
    Callable,
    Deque,
    Dict,
    List,
    Optional,
    Tuple,
    Union,
    cast,
)

from ..common.config import SystemConfig
from ..common.errors import (
    ConfigError,
    ReproError,
    ServeError,
    TraceFormatError,
    WorkerCrashError,
)
from ..common.types import MemoryRequest
from ..obs.metrics import ObsCounter, ObsGauge
from ..registry import make_scheme, resolve_scheme_name
from ..sim.engine import EngineConfig, SimulationEngine
from ..sim.export import result_to_state
from ..sim.runner import scaled_system_config
from ..sim.session import Session
from ..workloads.trace import parse_records
from .config import MICRO_BATCH_REQUESTS, ServeConfig
from .obs import ServeMetrics
from .pool import RecordSpan, WorkerPool
from .protocol import PROTOCOL_VERSION

__all__ = ["ServeSession", "SessionManager"]

#: One admitted batch as queued: parsed requests (in-process mode) or
#: checked record bytes (pool mode).
Batch = Union[List[MemoryRequest], RecordSpan]

#: Executor threads of the in-process path.  Engine work is serialized
#: by the engine lock regardless, so two threads only overlap an engine
#: feed with session open/finalize bookkeeping; the knob that used to
#: size this pool (``ServeConfig.workers``) now counts worker processes.
_INPROC_EXECUTOR_THREADS = 2


class ServeSession:
    """One tenant's in-flight simulation on the server.

    States: ``open`` (accepting batches) → ``finalizing`` (queue
    draining, no new batches) → ``done`` | ``failed``.

    Exactly one of ``engine`` (in-process mode) or ``worker >= 0``
    (pool mode: the worker index its engine session lives on) is set.
    Hot-loop collaborators — the queue limit, the tenant's metric
    instruments, the mode's batch decoder — are resolved once here, not
    per admitted batch.

    The ingest queue holds admitted batches whole, never single
    requests; ``_queued`` counts the requests in it and feeds the
    credits and the queue-depth gauge.
    """

    def __init__(self, sid: str, tenant: str, manager: "SessionManager", *,
                 engine: Optional[Session] = None,
                 worker: int = -1) -> None:
        self.sid = sid
        self.tenant = tenant
        self.engine = engine
        self.worker = worker
        self.state = "open"
        self._manager = manager
        self._pending: Deque[Batch] = deque()
        self._queued = 0
        self._decode: Callable[[bytes, int], Batch]
        if worker < 0:
            self._decode = parse_records
        else:
            self._decode = RecordSpan.checked
        self._wakeup = asyncio.Event()
        self._error: Optional[ServeError] = None
        self._finalize_requested = False
        self._queue_limit = manager.config.queue_limit
        metrics = manager.metrics
        self._queue_gauge = metrics.queue_depth(tenant)
        self._requests_counter = metrics.requests_total(tenant)
        self._rejected_counter = metrics.rejected_total(tenant)
        self._admission_hist = metrics.admission_latency
        self._occupancy_hist = metrics.batch_occupancy
        loop = asyncio.get_running_loop()
        self._result: "asyncio.Future[Dict[str, Any]]" = loop.create_future()
        self._drain_task = loop.create_task(self._drain_loop())

    # -- admission (event-loop side) -----------------------------------

    @property
    def credits(self) -> int:
        """Free slots in the ingest queue."""
        return self._queue_limit - self._queued

    def admit(self, records: bytes, count: int) -> int:
        """Enqueue a whole batch of ``count`` trace records or reject
        it; returns remaining credits.

        All-or-nothing: a batch larger than the remaining credits raises
        ``backpressure`` and enqueues nothing, so the client can resend
        the identical batch after the advertised delay.  Capacity is
        checked before the records, so a rejected resend costs no parse.

        Raises:
            ServeError: ``backpressure`` when the batch does not fit;
                the session's own error when it already failed;
                ``bad_request`` when the session is past ``open`` or a
                record is malformed.
        """
        if self._error is not None:
            raise self._error
        if self.state != "open":
            raise ServeError(
                f"session {self.sid} is {self.state}, not accepting "
                f"batches", code="bad_request")
        limit = self._queue_limit
        if count > limit:
            # Would never fit an empty queue either — backpressure would
            # have the client retrying forever.
            raise ServeError(
                f"batch of {count} exceeds the queue limit "
                f"({limit}); split it", code="bad_request")
        if count > limit - self._queued:
            self._rejected_counter.inc()
            raise ServeError(
                f"ingest queue full ({self._queued}/{limit} queued)",
                code="backpressure")
        try:
            batch = self._decode(records, count)
        except (TraceFormatError, ValueError) as exc:
            raise ServeError(f"malformed batch records: {exc}",
                             code="bad_request") from exc
        if count:
            self._pending.append(batch)
            self._queued += count
            self._queue_gauge.set(float(self._queued))
            self._wakeup.set()
        return limit - self._queued

    def note_admitted(self, started_s: float, accepted: int,
                      now_s: float) -> None:
        """Record one accepted batch against this session's hoisted
        instruments: admission latency plus per-tenant volume."""
        self._admission_hist.observe((now_s - started_s) * 1e9)
        self._requests_counter.inc(float(accepted))

    def request_finalize(self) -> "asyncio.Future[Dict[str, Any]]":
        """Begin drain+finalize; returns the future of the reply payload."""
        if self._error is not None:
            raise self._error
        if self.state == "open":
            self.state = "finalizing"
            self._finalize_requested = True
            self._wakeup.set()
        return self._result

    def fail(self, error: ServeError) -> None:
        """Fail the session from outside the drain loop (worker crash).

        Idempotent; the drain task's cancellation runs its ``finally``
        and releases the session from the table.
        """
        if self._error is not None or self.state in ("done", "failed"):
            return
        self.state = "failed"
        self._error = error
        if not self._result.done():
            self._result.set_exception(error)
            # The client may never come back to finalize; mark the
            # exception retrieved so the loop does not log it as lost.
            self._result.exception()
        self._drain_task.cancel()

    async def abort(self) -> None:
        """Drop the session (connection lost before finalize)."""
        if self.state in ("open", "finalizing"):
            self.state = "failed"
        self._drain_task.cancel()
        try:
            await self._drain_task
        except (asyncio.CancelledError, Exception):
            pass
        await self._manager.discard_session(self)
        if not self._result.done():
            self._result.cancel()

    # -- drain (event-loop task) ---------------------------------------

    def _take(self, cap: int) -> Tuple[List[Batch], int]:
        """Pop queued batches holding up to ``cap`` requests; returns
        them and their request count.  Only a batch that crosses the cap
        is split, its tail staying at the queue's head."""
        pending = self._pending
        parts: List[Batch] = []
        room = cap
        while pending and room:
            batch = pending[0]
            if len(batch) <= room:
                pending.popleft()
                room -= len(batch)
                parts.append(batch)
            else:
                parts.append(batch[:room])
                pending[0] = batch[room:]
                room = 0
        taken = cap - room
        self._queued -= taken
        return parts, taken

    async def _drain_loop(self) -> None:
        manager = self._manager
        batch_hint = manager.batch_hint
        pending = self._pending
        try:
            while True:
                while not pending and not self._finalize_requested:
                    self._wakeup.clear()
                    await self._wakeup.wait()
                if pending:
                    # Micro-batch: everything queued, capped so that one
                    # tenant never monopolizes the engine.
                    parts, taken = self._take(batch_hint)
                    self._queue_gauge.set(float(self._queued))
                    self._occupancy_hist.observe(float(taken))
                    await manager.feed_session(self, parts, taken)
                else:
                    payload = await manager.finalize_session(self)
                    self.state = "done"
                    manager.metrics.sessions_finalized.inc()
                    if not self._result.done():
                        self._result.set_result(payload)
                    return
        except asyncio.CancelledError:
            raise
        except ServeError as exc:
            # Typed serve failures keep their wire code — most notably
            # WorkerCrashError ("worker_crash") from a dead worker.
            self._record_failure(exc)
        except ReproError as exc:
            self._record_failure(ServeError(
                f"session {self.sid} failed: {exc}", code="failed"))
        except Exception as exc:  # pragma: no cover - defensive
            self._record_failure(ServeError(
                f"session {self.sid} internal error: {exc}",
                code="internal"))
        finally:
            self._queue_gauge.set(0.0)
            manager.release(self)

    def _record_failure(self, error: ServeError) -> None:
        self.state = "failed"
        if self._error is None:
            self._error = error
        if not self._result.done():
            self._result.set_exception(self._error)
            # The client may learn of the failure from a batch reply and
            # never finalize; mark retrieved so the loop stays quiet.
            self._result.exception()


class SessionManager:
    """Owns the session table plus the engine back end (lock or pool)."""

    def __init__(self, config: ServeConfig,
                 engine_config: Optional[EngineConfig] = None,
                 base_config: Optional[SystemConfig] = None) -> None:
        self.config = config
        self.engine_config = engine_config or EngineConfig()
        #: Base system configuration each tenant's options are applied to
        #: (the CLI grid's scaled config, so loopback rows match ``run``).
        self.base_config = base_config or scaled_system_config()
        self.metrics = ServeMetrics()
        self.executor = ThreadPoolExecutor(
            max_workers=_INPROC_EXECUTOR_THREADS,
            thread_name_prefix="repro-serve")
        #: Serializes in-process engine work, one session's open, feed or
        #: finalize at a time (see the module doc); sessions share no
        #: engine state, so this orders work rather than guarding data.
        self.engine_lock = threading.Lock()
        self.batch_hint = MICRO_BATCH_REQUESTS
        self.sessions: Dict[str, ServeSession] = {}
        self.draining = False
        self._ids = itertools.count(1)
        #: Set whenever the session table empties (drain coordination).
        self.idle = asyncio.Event()
        self.idle.set()
        #: Error tombstones of recently failed sessions, so a client
        #: still streaming learns *why* its session vanished (e.g. the
        #: typed ``worker_crash``) instead of ``unknown_session``.
        #: Bounded FIFO — entries only matter for the brief window
        #: between failure and the client noticing.
        self._failed: Dict[str, ServeError] = {}
        self._failed_order: Deque[str] = deque()
        #: The multi-process back end; ``None`` until :meth:`start` in
        #: ``workers > 1`` mode, always ``None`` in in-process mode.
        self.pool: Optional[WorkerPool] = None
        self._worker_counts: List[int] = []
        self._worker_session_gauges: List[ObsGauge] = []
        self._worker_req_counters: List[ObsCounter] = []

    async def start(self) -> None:
        """Bring up the engine back end (must run on the event loop).

        In-process mode is a no-op; multi-process mode spawns the worker
        pool here because its reader threads resolve futures through the
        running loop.
        """
        if self.config.workers <= 1 or self.pool is not None:
            return
        self.pool = WorkerPool(self.config, self.engine_config,
                               self.metrics, self._on_worker_crash)
        self._worker_counts = [0] * self.config.workers
        self._worker_session_gauges = [
            self.metrics.worker_sessions(index)
            for index in range(self.config.workers)]
        self._worker_req_counters = [
            self.metrics.worker_requests(index)
            for index in range(self.config.workers)]

    # -- in-process engine work (executor threads) ----------------------

    def open_locked(self, scheme_name: str, system_config: SystemConfig,
                    app: str, total_hint: Optional[int]) -> Session:
        with self.engine_lock:
            scheme = make_scheme(scheme_name, system_config)
            engine = SimulationEngine(scheme, self.engine_config)
            return engine.open_session(app=app, total_hint=total_hint)

    def feed_locked(self, session: Session,
                    batch: List[MemoryRequest]) -> None:
        with self.engine_lock:
            session.feed(batch)

    def finalize_locked(self, session: Session) -> Dict[str, Any]:
        with self.engine_lock:
            result = session.finalize()
        return {"summary": result.summary_row(),
                "state": result_to_state(result)}

    # -- engine dispatch (event-loop side; both modes) ------------------

    async def feed_session(self, session: ServeSession, parts: List[Batch],
                           count: int) -> None:
        """Feed one micro-batch — ``parts`` joined, ``count`` requests —
        into the session's engine."""
        if session.worker >= 0:
            assert self.pool is not None
            self._worker_req_counters[session.worker].inc(float(count))
            spans = cast(List[RecordSpan], parts)
            records = b"".join(span.payload() for span in spans)
            await self.pool.request(session.worker,
                                    ("feed", session.sid, records, count))
        else:
            assert session.engine is not None
            lists = cast(List[List[MemoryRequest]], parts)
            batch = lists[0] if len(lists) == 1 else [
                request for part in lists for request in part]
            await asyncio.get_running_loop().run_in_executor(
                self.executor, self.feed_locked, session.engine, batch)

    async def finalize_session(self, session: ServeSession
                               ) -> Dict[str, Any]:
        """Finalize the session's engine; returns the reply payload."""
        if session.worker >= 0:
            assert self.pool is not None
            payload = await self.pool.request(
                session.worker, ("finalize", session.sid))
            assert isinstance(payload, dict)
            return payload
        assert session.engine is not None
        result: Dict[str, Any] = await asyncio.get_running_loop(
        ).run_in_executor(self.executor, self.finalize_locked,
                          session.engine)
        return result

    async def discard_session(self, session: ServeSession) -> None:
        """Drop the engine side of an aborted session (best effort)."""
        if session.worker >= 0:
            if self.pool is None:
                return
            try:
                await self.pool.request(session.worker,
                                        ("close", session.sid))
            except ServeError:
                pass
        elif session.engine is not None:
            session.engine.close()

    def _on_worker_crash(self, index: int, error: WorkerCrashError) -> None:
        """Pool crash callback: fail exactly the sessions routed there."""
        for session in list(self.sessions.values()):
            if session.worker == index:
                session.fail(error)

    # -- session table (event-loop side) -------------------------------

    async def open(self, message: Dict[str, Any]) -> Tuple[ServeSession, int]:
        """Open a session from a ``hello``; returns it plus its credits.

        Raises:
            ServeError: ``protocol`` unless the hello carries this
                server's protocol version, ``shutting_down`` during
                drain, ``session_limit`` at capacity, ``unknown_scheme``
                / ``bad_request`` on a bad scheme token, tenant options
                or ``total_hint``, ``worker_crash`` when the affinity
                worker died and is still respawning.
        """
        version = message.get("protocol")
        if type(version) is not int or version != PROTOCOL_VERSION:
            raise ServeError(
                f"unsupported protocol {version!r}; this server speaks "
                f"protocol {PROTOCOL_VERSION}", code="protocol")
        if self.draining:
            raise ServeError("server is draining; no new sessions",
                             code="shutting_down")
        if len(self.sessions) >= self.config.max_sessions:
            raise ServeError(
                f"session limit ({self.config.max_sessions}) reached",
                code="session_limit")
        try:
            scheme_name = resolve_scheme_name(str(message.get("scheme", "")))
        except ValueError as exc:
            raise ServeError(str(exc), code="unknown_scheme") from exc
        options = message.get("options") or {}
        if not isinstance(options, dict):
            raise ServeError("options must be an object",
                             code="bad_request")
        try:
            system_config = self.base_config.with_options(options)
        except ConfigError as exc:
            raise ServeError(f"bad tenant options: {exc}",
                             code="bad_request") from exc
        tenant = str(message.get("tenant", "default"))
        app = str(message.get("app", "served"))
        total_hint = message.get("total_hint")
        if total_hint is not None and (type(total_hint) is not int
                                       or total_hint < 0):
            raise ServeError(f"total_hint must be null or an integer >= 0, "
                             f"got {total_hint!r}", code="bad_request")

        sid = f"s{next(self._ids)}"
        if self.pool is not None:
            worker = self.pool.worker_for(tenant)
            await self.pool.request(
                worker, ("open", sid, scheme_name, system_config, app,
                         total_hint))
            serve_session = ServeSession(sid, tenant, self, worker=worker)
            self._worker_counts[worker] += 1
            self._worker_session_gauges[worker].set(
                float(self._worker_counts[worker]))
        else:
            engine = await asyncio.get_running_loop().run_in_executor(
                self.executor, self.open_locked, scheme_name, system_config,
                app, total_hint)
            serve_session = ServeSession(sid, tenant, self, engine=engine)
        self.sessions[sid] = serve_session
        self.idle.clear()
        self.metrics.sessions_opened.inc()
        self.metrics.active_sessions.set(float(len(self.sessions)))
        return serve_session, serve_session.credits

    def get(self, sid: Any) -> ServeSession:
        session = self.sessions.get(sid) if isinstance(sid, str) else None
        if session is None:
            failed = self._failed.get(sid) if isinstance(sid, str) else None
            if failed is not None:
                raise failed
            raise ServeError(f"unknown session {sid!r}",
                             code="unknown_session")
        return session

    def release(self, session: ServeSession) -> None:
        """Drop a finished session from the table (drain-task callback)."""
        if session._error is not None:
            self._failed[session.sid] = session._error
            self._failed_order.append(session.sid)
            while len(self._failed_order) > 128:
                self._failed.pop(self._failed_order.popleft(), None)
        if self.sessions.pop(session.sid, None) is not None:
            self.metrics.active_sessions.set(float(len(self.sessions)))
            if session.worker >= 0 and self._worker_counts:
                self._worker_counts[session.worker] -= 1
                self._worker_session_gauges[session.worker].set(
                    float(self._worker_counts[session.worker]))
        if not self.sessions:
            self.idle.set()

    # -- observability and shutdown ------------------------------------

    async def metrics_snapshot(self) -> Dict[str, Any]:
        """The ``metrics`` verb's payload; merges worker registries in
        multi-process mode."""
        if self.pool is None:
            return self.metrics.snapshot()
        return self.metrics.merged_snapshot(
            await self.pool.metrics_snapshots())

    async def drain(self, grace_s: float) -> bool:
        """Stop admitting sessions; wait for the table to empty.

        Returns True when every in-flight session finished within the
        grace period, False when stragglers had to be aborted.
        """
        self.draining = True
        if not self.sessions:
            return True
        try:
            await asyncio.wait_for(self.idle.wait(), timeout=grace_s)
            return True
        except asyncio.TimeoutError:
            for session in list(self.sessions.values()):
                await session.abort()
            return False

    async def shutdown(self) -> None:
        """Tear down the engine back end after drain.

        Pool mode sends every worker a ``stop`` and joins it — the FIFO
        pipes guarantee all previously dispatched feeds completed first.
        """
        if self.pool is not None:
            await self.pool.stop()
        self.executor.shutdown(wait=True)
