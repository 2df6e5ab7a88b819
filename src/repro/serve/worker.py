"""The serve engine worker: one command handler, two transports.

:class:`EngineWorker` owns the engine sessions routed to it, each with
its own scheme graph (memo caches and observation scope included), and
answers one command tuple at a time.  Both serve back ends run it and
offer the session manager the same four calls (``worker_for``,
``request``, ``metrics_snapshots``, ``stop``):

* :class:`LocalEngine` (``workers == 1``) runs one ``EngineWorker(0)``
  on a one-thread executor of the server process;
* :class:`~repro.serve.pool.WorkerPool` (``workers > 1``) runs one in
  each of N spawned processes (:func:`engine_worker_main`), so N workers
  simulate on N cores with no shared interpreter (DESIGN.md §14).

Either way a session's ``open``/``feed``/``finalize`` stream reaches one
worker (tenant-hash affinity in the pool) and runs there in order, one
command at a time, so results stay bit-exact.

A pool worker's IPC is the parent's
:class:`multiprocessing.connection.Connection` (length-prefixed pickle
frames, the stdlib codec).  Batches travel as trace record bytes, the
wire's own encoding: the server checked them at admission with
:func:`~repro.workloads.trace.check_records`, and the worker parses them
with :func:`~repro.workloads.trace.parse_records`, the same decode loop,
so no request object is ever pickled.  Commands are positional tuples
headed by a verb; every command gets exactly one reply, in order:

``("open", sid, scheme_name, system_config, app, total_hint)``
    Construct the scheme + engine and open the session.
``("feed", sid, records, count)``
    Parse ``count`` records and feed them as one micro-batch.
``("finalize", sid)``
    Finalize; replies with the ``{"summary", "state"}`` payload.
``("close", sid)``
    Drop a session without a result (client connection lost).
``("metrics",)``
    Snapshot of the worker-local obs registry (merged by the server's
    ``metrics`` wire verb).
``("stop",)``
    Acknowledge; a pool worker then exits.  Sent only after the server
    drained, so the FIFO pipe guarantees all in-flight feeds complete
    first.

Replies are ``("ok", payload)`` or ``("err", code, detail)`` with
``code`` from the wire protocol's :data:`~repro.serve.protocol.ERROR_CODES`
(engine failures such as :class:`IntegrityError` become ``failed``);
both transports raise an error reply as a :class:`ServeError` with that
code.  A pool worker never initiates traffic; an unreadable pipe means
the parent died and the worker exits.
"""

from __future__ import annotations

import asyncio
import signal
import time
from concurrent.futures import ThreadPoolExecutor
from multiprocessing.connection import Connection
from typing import Any, Dict, List, Optional, Tuple

from ..common.errors import ReproError, ServeError
from ..obs.metrics import MetricsRegistry
from ..registry import make_scheme
from ..sim.engine import EngineConfig, SimulationEngine
from ..sim.export import result_to_state
from ..sim.session import Session
from ..workloads.trace import parse_records

__all__ = ["EngineWorker", "LocalEngine", "engine_worker_main"]

#: Reply tuple: ("ok", payload) | ("err", code, detail).
Reply = Tuple[Any, ...]

#: Bucket bounds (seconds) for the per-feed engine time histogram.
_FEED_BOUNDS_S = (1e-4, 3e-4, 1e-3, 3e-3, 1e-2, 3e-2, 1e-1, 3e-1, 1.0)


class EngineWorker:
    """Command handler of one engine worker, in either transport.

    Kept separate from :func:`engine_worker_main` so that
    :class:`LocalEngine` and tests drive the command protocol in-process.
    """

    def __init__(self, worker_id: int,
                 engine_config: Optional[EngineConfig] = None) -> None:
        self.worker_id = worker_id
        self.engine_config = engine_config or EngineConfig()
        self.sessions: Dict[str, Session] = {}
        self.registry = MetricsRegistry()
        label = str(worker_id)
        self._feeds = self.registry.counter(
            "serve_worker_feeds_total", worker=label)
        self._fed_requests = self.registry.counter(
            "serve_worker_fed_requests_total", worker=label)
        self._opened = self.registry.counter(
            "serve_worker_sessions_opened_total", worker=label)
        self._finalized = self.registry.counter(
            "serve_worker_sessions_finalized_total", worker=label)
        self._open_gauge = self.registry.gauge(
            "serve_worker_open_sessions", worker=label)
        self._feed_seconds = self.registry.histogram(
            "serve_worker_feed_seconds", _FEED_BOUNDS_S, worker=label)

    def _unknown(self, sid: object) -> Reply:
        return ("err", "unknown_session",
                f"worker {self.worker_id} has no session {sid!r}")

    def handle(self, message: Tuple[Any, ...]) -> Reply:
        """Process one command tuple; always returns a reply tuple."""
        verb = message[0]
        try:
            if verb == "feed":
                # The hot verb: one micro-batch into one session.
                _, sid, records, count = message
                session = self.sessions.get(sid)
                if session is None:
                    return self._unknown(sid)
                requests = parse_records(records, count)
                started = time.perf_counter()
                session.feed(requests)
                self._feed_seconds.observe(time.perf_counter() - started)
                self._feeds.inc()
                self._fed_requests.inc(float(count))
                return ("ok", None)
            if verb == "open":
                _, sid, scheme_name, system_config, app, total_hint = message
                scheme = make_scheme(scheme_name, system_config)
                engine = SimulationEngine(scheme, self.engine_config)
                self.sessions[sid] = engine.open_session(
                    app=app, total_hint=total_hint)
                self._opened.inc()
                self._open_gauge.set(float(len(self.sessions)))
                return ("ok", None)
            if verb == "finalize":
                sid = message[1]
                session = self.sessions.pop(sid, None)
                if session is None:
                    return self._unknown(sid)
                result = session.finalize()
                self._finalized.inc()
                self._open_gauge.set(float(len(self.sessions)))
                return ("ok", {"summary": result.summary_row(),
                               "state": result_to_state(result)})
            if verb == "close":
                session = self.sessions.pop(message[1], None)
                if session is not None:
                    session.close()
                self._open_gauge.set(float(len(self.sessions)))
                return ("ok", None)
            if verb == "metrics":
                return ("ok", {"rows": self.registry.snapshot(),
                               "flat": self.registry.as_flat()})
            if verb == "stop":
                return ("ok", None)
            return ("err", "bad_request", f"unknown worker verb {verb!r}")
        except ReproError as exc:
            # Engine-side failures (IntegrityError, SessionError, ...)
            # fail the one session they occurred in, not the worker.
            return ("err", "failed", f"{type(exc).__name__}: {exc}")
        except Exception as exc:  # pragma: no cover - defensive
            return ("err", "internal", f"{type(exc).__name__}: {exc}")


class LocalEngine:
    """The in-process back end: one :class:`EngineWorker` on one thread.

    Offers the calls of :class:`~repro.serve.pool.WorkerPool`, so the
    session manager drives both back ends alike.  Every command runs on
    a one-thread executor: off the event loop, one at a time, in
    submission order.  Sessions interleave on that thread, bound to one
    core by the GIL.
    """

    def __init__(self, engine_config: EngineConfig) -> None:
        self.worker = EngineWorker(0, engine_config)
        #: The engine thread.
        self.executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-serve-engine")

    def worker_for(self, tenant: str) -> int:
        return 0

    async def request(self, index: int, message: Tuple[Any, ...]) -> Any:
        """One command on the engine thread; raises the reply's error.

        Raises:
            ServeError: the worker replied with an error code.
        """
        reply = await asyncio.get_running_loop().run_in_executor(
            self.executor, self.worker.handle, message)
        if reply[0] == "ok":
            return reply[1]
        raise ServeError(str(reply[2]), code=str(reply[1]))

    async def metrics_snapshots(self) -> List[Dict[str, Any]]:
        """The one worker's registry snapshot, taken on the engine
        thread like any other command."""
        return [await self.request(0, ("metrics",))]

    async def stop(self) -> None:
        """Shut the engine thread down once its queued commands ran,
        waiting off the event loop."""
        await asyncio.get_running_loop().run_in_executor(
            None, self.executor.shutdown)


def engine_worker_main(conn: Connection, worker_id: int,
                       engine_config: Optional[EngineConfig]) -> None:
    """Blocking command loop of a worker process (spawn target).

    SIGINT is ignored: a Ctrl-C to the server's process group must drain
    through the parent's signal handler, not kill workers mid-feed.  The
    parent's death (pipe EOF) ends the loop.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    worker = EngineWorker(worker_id, engine_config)
    try:
        while True:
            try:
                message = conn.recv()
            except (EOFError, OSError):
                break
            reply = worker.handle(message)
            try:
                conn.send(reply)
            except (BrokenPipeError, OSError):
                break
            if message[0] == "stop":
                break
    finally:
        conn.close()
