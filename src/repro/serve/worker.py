"""Engine worker process: the spawn entry of the serve worker pool.

One worker process owns one engine's worth of state: the process-global
memo caches (:mod:`repro.perf.memo`) are *per process* (each session
owns its observation scope anyway), so N workers simulate on N
cores with no shared interpreter — the whole point of the pool
(DESIGN.md §14).  The parent routes every session's
``open``/``feed``/``finalize`` stream to one worker (tenant-hash
affinity), so within a worker the engine session API is driven exactly
as the in-process path drives it and results stay bit-exact.

IPC is the parent's :class:`multiprocessing.connection.Connection`
(length-prefixed pickle frames, the stdlib codec).  Batches cross it as
trace record bytes, the wire's own encoding: the parent checked them at
admission with :func:`~repro.workloads.trace.check_records`, and the
worker parses them with :func:`~repro.workloads.trace.parse_records`,
the same decode loop, so no request object is ever pickled.  Commands are positional tuples headed by a verb; every
command gets exactly one reply, in order:

``("open", sid, scheme_name, system_config, app, total_hint)``
    Construct the scheme + engine and open the session.
``("feed", sid, records, count)``
    Parse ``count`` records and feed them as one micro-batch.
``("finalize", sid)``
    Finalize; replies with the ``{"summary", "state"}`` payload.
``("close", sid)``
    Drop a session without a result (client connection lost).
``("metrics",)``
    Snapshot of the worker-local obs registry (merged by the parent's
    ``metrics`` wire verb).
``("stop",)``
    Acknowledge and exit — sent only after the parent drained, so the
    FIFO pipe guarantees all in-flight feeds complete first.

Replies are ``("ok", payload)`` or ``("err", code, detail)`` with
``code`` from the wire protocol's :data:`~repro.serve.protocol.ERROR_CODES`
(engine failures such as :class:`IntegrityError` become ``failed``).
The worker never initiates traffic; an unreadable pipe means the parent
died and the worker exits.
"""

from __future__ import annotations

import signal
import time
from multiprocessing.connection import Connection
from typing import Any, Dict, Optional, Tuple

from ..common.errors import ReproError
from ..obs.metrics import MetricsRegistry
from ..registry import make_scheme
from ..sim.engine import EngineConfig, SimulationEngine
from ..sim.export import result_to_state
from ..sim.session import Session
from ..workloads.trace import parse_records

__all__ = ["EngineWorker", "engine_worker_main"]

#: Reply tuple: ("ok", payload) | ("err", code, detail).
Reply = Tuple[Any, ...]

#: Bucket bounds (seconds) for the per-feed engine time histogram.
_FEED_BOUNDS_S = (1e-4, 3e-4, 1e-3, 3e-3, 1e-2, 3e-2, 1e-1, 3e-1, 1.0)


class EngineWorker:
    """Command handler of one engine worker process.

    Kept separate from :func:`engine_worker_main` so tests can drive the
    command protocol in-process without spawning.
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
