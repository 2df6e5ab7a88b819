"""Client SDK for the dedup-as-a-service front end.

:class:`ServeClient` (blocking sockets — scripts, tests, benchmarks)
streams a :mod:`repro.workloads` trace into a server session in
batches, obeys the server's backpressure protocol (sleep
``retry_after_ms`` and resend the identical rejected batch), and returns
the summary row; the lossless result state travels alongside so callers
can rebuild the full
:class:`~repro.sim.metrics.SimulationResult` with
:func:`~repro.sim.export.result_from_state`.

The dependency points one way only: ``repro.serve`` imports the
simulation core, never the reverse — the engine stays import-clean of
any server code.
"""

from __future__ import annotations

import socket
import time
from typing import Any, Dict, Iterable, List, Optional, Sequence

from ..common.errors import ServeError, WorkerCrashError
from ..common.types import MemoryRequest
from ..sim.export import result_from_state
from ..sim.metrics import SimulationResult
from .protocol import (
    PROTOCOL_VERSION,
    WireReader,
    encode_batch,
    encode_message,
)

__all__ = ["ServeClient"]

#: Give up resending one backpressured batch after this many rejections.
_MAX_BACKPRESSURE_RETRIES = 10_000


def _chunked(requests: Iterable[MemoryRequest],
             size: int) -> Iterable[List[MemoryRequest]]:
    batch: List[MemoryRequest] = []
    for request in requests:
        batch.append(request)
        if len(batch) >= size:
            yield batch
            batch = []
    if batch:
        yield batch


def _hello(scheme: str, tenant: str, app: str, total_hint: Optional[int],
           options: Optional[Dict[str, Any]]) -> Dict[str, Any]:
    return {"verb": "hello", "protocol": PROTOCOL_VERSION, "scheme": scheme,
            "tenant": tenant, "app": app, "total_hint": total_hint,
            "options": options or {}}


def _check(reply: Optional[Dict[str, Any]]) -> Dict[str, Any]:
    """Raise the reply's error as a :class:`ServeError`; pass ``ok``.

    The ``worker_crash`` wire code comes back as the typed
    :class:`WorkerCrashError` so callers can distinguish "your worker
    died, reopen and resend" from ordinary engine failures.
    """
    if reply is None:
        raise ServeError("server closed the connection", code="internal")
    if not reply.get("ok"):
        detail = str(reply.get("detail", "request failed"))
        code = str(reply.get("error", "internal"))
        if code == "worker_crash":
            raise WorkerCrashError(detail)
        raise ServeError(detail, code=code)
    return reply


class _SessionState:
    """Client-side bookkeeping of the open session."""

    def __init__(self, reply: Dict[str, Any]) -> None:
        self.sid: str = reply["session"]
        self.credits: int = int(reply.get("credits", 0))
        # Default batch size: the server's micro-batch hint, capped at
        # the session's initial credits (= the queue limit) so a default
        # batch always *can* be admitted once the queue drains.
        self.batch_hint: int = max(1, min(int(reply.get("batch_hint", 1024)),
                                          self.credits or 1024))
        #: Backpressure rejections observed while streaming (tests
        #: assert the protocol actually engaged).
        self.backpressure_rejections = 0


class ServeClient:
    """Blocking NDJSON client over a plain socket."""

    def __init__(self, host: str, port: int, *,
                 timeout: Optional[float] = 120.0) -> None:
        self._sock = socket.create_connection((host, port), timeout=timeout)
        self._fh = self._sock.makefile("rwb")
        self._reader = WireReader(self._fh)
        self._session: Optional[_SessionState] = None

    # -- plumbing ------------------------------------------------------

    def _call(self, message: Dict[str, Any]) -> Dict[str, Any]:
        self._fh.write(encode_message(message))
        self._fh.flush()
        reply = self._reader.read_message()
        if reply is None:
            raise ServeError("server closed the connection",
                             code="internal")
        return reply

    def close(self) -> None:
        try:
            self._fh.close()
        finally:
            self._sock.close()

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # -- verbs ---------------------------------------------------------

    def open_session(self, scheme: str, *, tenant: str = "default",
                     app: str = "served",
                     total_hint: Optional[int] = None,
                     options: Optional[Dict[str, Any]] = None) -> str:
        reply = _check(self._call(_hello(scheme, tenant, app, total_hint,
                                         options)))
        self._session = _SessionState(reply)
        return self._session.sid

    @property
    def session(self) -> _SessionState:
        if self._session is None:
            raise ServeError("no open session; call open_session first",
                             code="bad_request")
        return self._session

    def send(self, requests: Sequence[MemoryRequest]) -> int:
        """Send one batch, resending through backpressure; returns the
        credits left after admission."""
        state = self.session
        message = encode_batch(state.sid, requests)
        for _ in range(_MAX_BACKPRESSURE_RETRIES):
            reply = self._call(message)
            if reply.get("ok"):
                state.credits = int(reply.get("credits", 0))
                return state.credits
            if reply.get("error") != "backpressure":
                _check(reply)
            state.backpressure_rejections += 1
            time.sleep(float(reply.get("retry_after_ms", 25)) / 1000.0)
        raise ServeError("backpressure retry budget exhausted",
                         code="backpressure")

    def stream(self, requests: Iterable[MemoryRequest], *,
               batch_size: Optional[int] = None) -> int:
        """Stream a whole trace in batches; returns requests sent."""
        state = self.session
        sent = 0
        for batch in _chunked(requests, batch_size or state.batch_hint):
            self.send(batch)
            sent += len(batch)
        return sent

    def finalize(self) -> Dict[str, Any]:
        """Drain and finalize; returns ``{"summary", "state"}``."""
        state = self.session
        reply = _check(self._call({"verb": "finalize",
                                   "session": state.sid}))
        self._session = None
        return {"summary": reply["summary"], "state": reply["state"]}

    def run_trace(self, requests: Iterable[MemoryRequest], scheme: str, *,
                  tenant: str = "default", app: str = "served",
                  total_hint: Optional[int] = None,
                  options: Optional[Dict[str, Any]] = None,
                  batch_size: Optional[int] = None) -> Dict[str, Any]:
        """Open → stream → finalize; returns the finalize payload.

        The payload's ``"summary"`` is the scheme's summary row;
        :meth:`result_of` rebuilds the full result from ``"state"``.
        """
        self.open_session(scheme, tenant=tenant, app=app,
                          total_hint=total_hint, options=options)
        self.stream(requests, batch_size=batch_size)
        return self.finalize()

    @staticmethod
    def result_of(payload: Dict[str, Any]) -> SimulationResult:
        """Rebuild the full result from a finalize payload."""
        return result_from_state(payload["state"])

    def metrics(self) -> Dict[str, Any]:
        return _check(self._call({"verb": "metrics"}))

    def schemes(self) -> List[str]:
        return list(_check(self._call({"verb": "schemes"}))["schemes"])

    def ping(self) -> Dict[str, Any]:
        return _check(self._call({"verb": "ping"}))

