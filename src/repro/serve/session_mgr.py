"""Serve-side session lifecycle: tenancy, queues, micro-batching, routing.

One :class:`ServeSession` pairs a network-facing ingest queue with one
engine session.  The connection handler (:mod:`repro.serve.server`)
hands each ``batch`` frame's trace records to the session, which admits
the batch whole — checked without building requests
(:class:`~repro.serve.pool.RecordSpan`) and queued as one item — or
rejects it whole with ``bad_request`` or backpressure.  A per-session
drain task joins queued batches into micro-batches of at most
:data:`~repro.serve.config.MICRO_BATCH_REQUESTS` (1,024) requests,
splitting only the batch that crosses the cap, and sends each to the
session's engine worker as record bytes, which the worker parses.

Engine sessions live in an :class:`~repro.serve.worker.EngineWorker`.
The manager sends every engine command through one back end, chosen
once by :meth:`SessionManager.start` from ``ServeConfig.workers``:

* ``workers == 1`` — :class:`~repro.serve.worker.LocalEngine`: one worker
  on one engine thread of this process, which runs one command at a
  time, in submission order.  Sessions share no engine state (each
  scheme graph owns its memo caches and observation scope); they
  interleave on that thread, bound to one core by the GIL.
* ``workers > 1`` — :class:`~repro.serve.pool.WorkerPool`: N spawned
  worker processes, each session pinned to one at open by consistent
  tenant-hash affinity, so sessions on distinct workers simulate in
  true parallel.  A crashed worker fails exactly the sessions routed to
  it with :class:`~repro.common.errors.WorkerCrashError`; everyone else
  keeps streaming (DESIGN.md §14).
"""

from __future__ import annotations

import asyncio
import itertools
from collections import deque
from typing import Any, Deque, Dict, List, Optional, Tuple, Union

from ..common.config import SystemConfig
from ..common.errors import (
    ConfigError,
    ServeError,
    TraceFormatError,
    WorkerCrashError,
)
from ..registry import resolve_scheme_name
from ..sim.engine import EngineConfig
from ..sim.runner import scaled_system_config
from .config import MICRO_BATCH_REQUESTS, ServeConfig
from .obs import ServeMetrics
from .pool import RecordSpan, WorkerPool
from .protocol import PROTOCOL_VERSION
from .worker import LocalEngine

__all__ = ["ServeSession", "SessionManager"]


class ServeSession:
    """One tenant's in-flight simulation on the server.

    States: ``open`` (accepting batches) → ``finalizing`` (queue
    draining, no new batches) → ``done`` | ``failed``.

    ``worker`` is the index of the engine worker its engine session
    lives on (always 0 at ``workers == 1``).  Hot-loop collaborators —
    the queue limit, the tenant's metric instruments — are resolved once
    here, not per admitted batch.

    The ingest queue holds admitted batches whole, each a checked
    :class:`~repro.serve.pool.RecordSpan`, never single requests;
    ``_queued`` counts the requests in it and feeds the credits and the
    queue-depth gauge.
    """

    def __init__(self, sid: str, tenant: str, manager: "SessionManager", *,
                 worker: int) -> None:
        self.sid = sid
        self.tenant = tenant
        self.worker = worker
        self.state = "open"
        self._manager = manager
        self._pending: Deque[RecordSpan] = deque()
        self._queued = 0
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
        checked before the records, so a rejected resend costs no decode.

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
            span = RecordSpan.checked(records, count)
        except (TraceFormatError, ValueError) as exc:
            raise ServeError(f"malformed batch records: {exc}",
                             code="bad_request") from exc
        if count:
            self._pending.append(span)
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

    def _take(self, cap: int) -> Tuple[List[RecordSpan], int]:
        """Pop queued batches holding up to ``cap`` requests; returns
        them and their request count.  Only a batch that crosses the cap
        is split, its tail staying at the queue's head."""
        pending = self._pending
        parts: List[RecordSpan] = []
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
            # The worker's error keeps its wire code: ``failed`` for an
            # engine failure, ``worker_crash`` from a dead pool worker.
            self._record_failure(exc)
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
    """Owns the session table plus the engine back end."""

    #: The engine back end, chosen by :meth:`start`.  Every engine
    #: command goes through its ``request(worker, command)``.
    backend: Union[LocalEngine, WorkerPool]

    def __init__(self, config: ServeConfig,
                 engine_config: Optional[EngineConfig] = None,
                 base_config: Optional[SystemConfig] = None) -> None:
        self.config = config
        self.engine_config = engine_config or EngineConfig()
        #: Base system configuration each tenant's options are applied to
        #: (the CLI grid's scaled config, so loopback rows match ``run``).
        self.base_config = base_config or scaled_system_config()
        self.metrics = ServeMetrics()
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
        self._worker_counts = [0] * config.workers
        self._worker_session_gauges = [
            self.metrics.worker_sessions(index)
            for index in range(config.workers)]
        self._worker_req_counters = [
            self.metrics.worker_requests(index)
            for index in range(config.workers)]

    async def start(self) -> None:
        """Bring up the engine back end.  Runs on the event loop, through
        which the pool's reader threads resolve futures."""
        if self.config.workers == 1:
            self.backend = LocalEngine(self.engine_config)
        else:
            self.backend = WorkerPool(self.config, self.engine_config,
                                      self.metrics, self._on_worker_crash)

    # -- engine dispatch (event-loop side) ------------------------------

    async def feed_session(self, session: ServeSession,
                           spans: List[RecordSpan], count: int) -> None:
        """Feed one micro-batch — ``spans`` joined, ``count`` requests —
        into the session's engine."""
        self._worker_req_counters[session.worker].inc(float(count))
        records = b"".join(span.payload() for span in spans)
        await self.backend.request(session.worker,
                                   ("feed", session.sid, records, count))

    async def finalize_session(self, session: ServeSession
                               ) -> Dict[str, Any]:
        """Finalize the session's engine; returns the reply payload."""
        payload = await self.backend.request(
            session.worker, ("finalize", session.sid))
        assert isinstance(payload, dict)
        return payload

    async def discard_session(self, session: ServeSession) -> None:
        """Drop the engine side of an aborted session (best effort); the
        ``close`` runs after the session's in-flight feed."""
        try:
            await self.backend.request(session.worker,
                                       ("close", session.sid))
        except ServeError:
            pass

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
        worker = self.backend.worker_for(tenant)
        await self.backend.request(
            worker, ("open", sid, scheme_name, system_config, app,
                     total_hint))
        serve_session = ServeSession(sid, tenant, self, worker=worker)
        self._worker_counts[worker] += 1
        self._worker_session_gauges[worker].set(
            float(self._worker_counts[worker]))
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
            self._worker_counts[session.worker] -= 1
            self._worker_session_gauges[session.worker].set(
                float(self._worker_counts[session.worker]))
        if not self.sessions:
            self.idle.set()

    # -- observability and shutdown ------------------------------------

    async def metrics_snapshot(self) -> Dict[str, Any]:
        """The ``metrics`` verb's payload: the server registry merged
        with every engine worker's."""
        return self.metrics.merged_snapshot(
            await self.backend.metrics_snapshots())

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
        """Tear down the engine back end after drain; every previously
        dispatched command completes first (the engine thread runs its
        queue out, and each pool worker answers ``stop`` in FIFO
        order)."""
        await self.backend.stop()
