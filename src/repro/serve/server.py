"""The asyncio NDJSON server of the dedup-as-a-service front end.

:class:`DedupServer` accepts connections, speaks the
:mod:`repro.serve.protocol` verbs, and multiplexes every client's
request stream onto the shared engine workers through
:class:`~repro.serve.session_mgr.SessionManager`.  Stdlib only.

Graceful drain: SIGTERM/SIGINT (or :meth:`DedupServer.begin_drain`)
stops admitting *new sessions* immediately while existing sessions keep
streaming and finalizing; once the session table empties (or the grace
period lapses), the listener and remaining connections close and
:func:`run_server` returns 0 (clean drain) or 1 (stragglers aborted).

:class:`BackgroundServer` runs the whole thing on a daemon thread with
its own event loop — the in-process harness the tests and the serve
benchmark drive their clients against.
"""

from __future__ import annotations

import asyncio
import signal
import threading
import time
from typing import Any, Dict, Optional, Set, Union

from ..common.config import SystemConfig
from ..common.errors import ServeError
from ..registry import registered_scheme_names
from ..sim.engine import EngineConfig
from .config import ServeConfig
from .protocol import (
    MAX_LINE_BYTES,
    PROTOCOL_VERSION,
    decode_batch,
    decode_message,
    encode_message,
    error_reply,
    ok_reply,
)
from .session_mgr import ServeSession, SessionManager

__all__ = ["BackgroundServer", "DedupServer", "run_server"]

#: Pre-rendered scaffold of the hot-verb success reply: every admitted
#: ``batch`` answers with exactly these fields, so the reply bytes are
#: formatted directly instead of building and JSON-encoding a dict per
#: request (part of the serve_overhead_ratio diet; see BENCH.md).
_BATCH_OK_TEMPLATE = b'{"ok":true,"accepted":%d,"credits":%d}\n'

#: A dispatch result: either a reply dict to encode or pre-encoded
#: NDJSON bytes from a fast path.
Reply = Union[Dict[str, Any], bytes]


async def _skip_frame(reader: asyncio.StreamReader, consumed: int) -> bool:
    """Discard an overlong frame through its LF; False at EOF.

    ``consumed`` is the :class:`asyncio.LimitOverrunError`'s count of
    buffered bytes that hold no LF.  The frame is dropped as it arrives,
    so memory stays bounded by the stream limit.
    """
    while True:
        try:
            await reader.readexactly(consumed)
            await reader.readuntil(b"\n")
            return True
        except asyncio.LimitOverrunError as exc:
            consumed = exc.consumed
        except asyncio.IncompleteReadError:
            return False


class DedupServer:
    """One serving instance: listener + session manager + drain logic."""

    def __init__(self, config: Optional[ServeConfig] = None,
                 engine_config: Optional[EngineConfig] = None,
                 base_config: Optional[SystemConfig] = None) -> None:
        self.config = config or ServeConfig()
        self.manager = SessionManager(self.config, engine_config,
                                      base_config)
        self.metrics = self.manager.metrics
        self._server: Optional[asyncio.base_events.Server] = None
        self._conn_tasks: Set["asyncio.Task[None]"] = set()
        self._stopped: Optional[asyncio.Event] = None
        self._drain_started = False
        self._drained_clean = True

    # -- lifecycle -----------------------------------------------------

    async def start(self) -> None:
        """Bring up the engine back end, bind, and accept connections."""
        self._stopped = asyncio.Event()
        await self.manager.start()
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port,
            limit=MAX_LINE_BYTES)

    @property
    def port(self) -> int:
        """The bound port (resolves ``port=0`` ephemeral binds)."""
        assert self._server is not None, "server not started"
        return self._server.sockets[0].getsockname()[1]

    async def begin_drain(self) -> None:
        """Stop admitting sessions, wait for in-flight ones, shut down."""
        if self._drain_started:
            return
        self._drain_started = True
        self._drained_clean = await self.manager.drain(
            self.config.drain_grace_s)
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        # Sessions are done; connections that linger (client not yet
        # closed) get a short window to read their final replies.
        if self._conn_tasks:
            await asyncio.wait(self._conn_tasks, timeout=1.0)
        # Cancel the rest and wait for them to close their streams here:
        # left to asyncio.run's teardown, a task cancelled again inside
        # ``writer.wait_closed()`` gets its CancelledError logged as an
        # unhandled callback error.
        lingering = list(self._conn_tasks)
        for task in lingering:
            task.cancel()
        if lingering:
            await asyncio.gather(*lingering, return_exceptions=True)
        await self.manager.shutdown()
        assert self._stopped is not None
        self._stopped.set()

    async def wait_stopped(self) -> bool:
        """Block until drain completes; True when it was clean."""
        assert self._stopped is not None, "server not started"
        await self._stopped.wait()
        return self._drained_clean

    async def serve_until_signal(self) -> bool:
        """Run until SIGTERM/SIGINT, then drain; True on a clean drain."""
        loop = asyncio.get_running_loop()

        def _on_signal() -> None:
            loop.create_task(self.begin_drain())

        for sig in (signal.SIGTERM, signal.SIGINT):
            loop.add_signal_handler(sig, _on_signal)
        try:
            return await self.wait_stopped()
        finally:
            for sig in (signal.SIGTERM, signal.SIGINT):
                loop.remove_signal_handler(sig)

    # -- connection handling -------------------------------------------

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        task = asyncio.current_task()
        assert task is not None
        self._conn_tasks.add(task)
        # Sessions opened over this connection, aborted if it drops
        # before they finalize.
        owned: Dict[str, ServeSession] = {}
        try:
            while True:
                try:
                    line = await reader.readuntil(b"\n")
                except asyncio.IncompleteReadError as exc:
                    line = exc.partial  # EOF; serve a final unterminated line
                except asyncio.LimitOverrunError as exc:
                    # Reply, then resynchronize at the next LF, so one
                    # oversized frame does not cost the connection (and
                    # the sessions it owns).
                    writer.write(encode_message(error_reply(
                        "protocol", f"frame exceeds {MAX_LINE_BYTES} bytes")))
                    await writer.drain()
                    if not await _skip_frame(reader, exc.consumed):
                        break
                    continue
                if not line:
                    break
                try:
                    message = decode_message(line)
                    reply = await self._dispatch(message, owned)
                except ServeError as exc:
                    reply = self._error_to_reply(exc)
                except asyncio.CancelledError:
                    raise
                except Exception as exc:  # pragma: no cover - defensive
                    reply = error_reply("internal", str(exc))
                writer.write(reply if isinstance(reply, bytes)
                             else encode_message(reply))
                await writer.drain()
        except (asyncio.CancelledError, ConnectionResetError):
            pass
        finally:
            self._conn_tasks.discard(task)
            for session in owned.values():
                if session.state in ("open", "finalizing"):
                    await session.abort()
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    def _error_to_reply(self, exc: ServeError) -> Dict[str, Any]:
        if exc.code == "backpressure":
            return error_reply("backpressure", str(exc),
                               retry_after_ms=self.config.retry_after_ms)
        return error_reply(exc.code, str(exc))

    async def _dispatch(self, message: Dict[str, Any],
                        owned: Dict[str, ServeSession]) -> Reply:
        verb = message.get("verb")
        if verb == "batch":
            # The hottest verb first: admission is timed receive→enqueued.
            # Per-tenant instruments are hoisted onto the session at open
            # (rejections are counted inside ``admit``) and the success
            # reply is formatted straight into bytes.
            started = time.monotonic()
            session = self.manager.get(message.get("session"))
            records, count = decode_batch(message)
            credits = session.admit(records, count)
            session.note_admitted(started, count, time.monotonic())
            return _BATCH_OK_TEMPLATE % (count, credits)
        if verb == "hello":
            session, credits = await self.manager.open(message)
            owned[session.sid] = session
            return ok_reply(session=session.sid,
                            protocol=PROTOCOL_VERSION,
                            credits=credits,
                            batch_hint=self.manager.batch_hint)
        if verb == "finalize":
            session = self.manager.get(message.get("session"))
            payload = await session.request_finalize()
            owned.pop(session.sid, None)
            return ok_reply(**payload)
        if verb == "metrics":
            return ok_reply(**await self.manager.metrics_snapshot())
        if verb == "schemes":
            return ok_reply(schemes=list(registered_scheme_names()))
        if verb == "ping":
            return ok_reply(draining=self._drain_started)
        raise ServeError(f"unknown verb {verb!r}", code="bad_request")


def run_server(config: Optional[ServeConfig] = None,
               engine_config: Optional[EngineConfig] = None,
               base_config: Optional[SystemConfig] = None, *,
               announce=None) -> int:
    """Blocking entry point (the ``repro serve`` CLI): serve until a
    signal, drain, and return the process exit code (0 = clean drain).

    ``announce`` is called once with the started server (the CLI prints
    the bound address from it — tests parse that line for the port).
    """

    async def _main() -> bool:
        server = DedupServer(config, engine_config, base_config)
        await server.start()
        if announce is not None:
            announce(server)
        return await server.serve_until_signal()

    return 0 if asyncio.run(_main()) else 1


class BackgroundServer:
    """An in-process server on a daemon thread (tests and benchmarks).

    ::

        with BackgroundServer() as server:
            client = ServeClient("127.0.0.1", server.port)
            ...

    ``stop()`` (or leaving the ``with`` block) triggers the same drain
    path a SIGTERM would and joins the thread.
    """

    def __init__(self, config: Optional[ServeConfig] = None,
                 engine_config: Optional[EngineConfig] = None,
                 base_config: Optional[SystemConfig] = None) -> None:
        self._config = config or ServeConfig()
        self._engine_config = engine_config
        self._base_config = base_config
        self._ready = threading.Event()
        self._startup_error: Optional[BaseException] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self.server: Optional[DedupServer] = None
        self.port: int = 0
        self.drained_clean: Optional[bool] = None
        self._thread = threading.Thread(target=self._run, daemon=True,
                                        name="repro-serve-bg")

    def _run(self) -> None:
        async def _main() -> None:
            server = DedupServer(self._config, self._engine_config,
                                 self._base_config)
            try:
                await server.start()
            except BaseException as exc:
                self._startup_error = exc
                self._ready.set()
                raise
            self.server = server
            self.port = server.port
            self._loop = asyncio.get_running_loop()
            self._ready.set()
            self.drained_clean = await server.wait_stopped()

        try:
            asyncio.run(_main())
        except BaseException:
            if not self._ready.is_set():  # pragma: no cover - defensive
                self._ready.set()

    def start(self) -> "BackgroundServer":
        self._thread.start()
        self._ready.wait(timeout=30.0)
        if self._startup_error is not None:
            raise self._startup_error
        if self.server is None:
            raise ServeError("background server failed to start")
        return self

    def stop(self, timeout: float = 60.0) -> None:
        if self._loop is not None and self._thread.is_alive():
            assert self.server is not None
            asyncio.run_coroutine_threadsafe(
                self.server.begin_drain(), self._loop)
        self._thread.join(timeout=timeout)

    def __enter__(self) -> "BackgroundServer":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()
