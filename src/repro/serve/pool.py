"""Multi-process engine worker pool: the parent-side dispatch layer.

The serve front end stays a single asyncio process; CPU-heavy engine
work goes to N spawned worker processes (:mod:`repro.serve.worker`), one
engine world each.  This module owns the parent half (DESIGN.md §14):

* **Affinity.**  :func:`worker_for_tenant` maps a tenant label to a
  worker with a *stable* hash (SHA-256, not Python's salted ``hash``),
  so every session of a tenant — across connections and server restarts
  with the same worker count — lands on the same worker and its
  ``open``/``feed``/``finalize`` stream never migrates mid-session.
* **IPC.**  One duplex :func:`multiprocessing.Pipe` per worker carrying
  length-prefixed pickle frames.  A ``feed`` carries trace record bytes
  (:class:`RecordSpan`): the parent checks each batch at admission
  without building requests, and the worker parses it.  Each worker
  gets a writer thread (the pipe blocks when full — never on the event
  loop) and a reader thread (blocking ``recv``); the worker answers
  strictly in receive order, so replies match pending futures FIFO.
* **Credit.**  An :class:`asyncio.Semaphore` of ``worker_inflight``
  commands per worker bounds how many record batches can sit in a
  worker's pipe, so one fast admitter cannot buffer unbounded memory
  into a slow worker.
* **Crash containment.**  A dead pipe fails the crashed worker's pending
  futures — and, through the manager callback, every session routed to
  that worker — with :class:`WorkerCrashError`; other workers never
  notice.  The pool respawns a fresh worker into the slot (unless
  draining) so new sessions keep flowing.
"""

from __future__ import annotations

import asyncio
import hashlib
import multiprocessing
import queue
import threading
from collections import deque
from multiprocessing.context import SpawnContext
from multiprocessing.reduction import ForkingPickler
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple

from ..common.errors import ServeError, WorkerCrashError
from ..sim.engine import EngineConfig
from ..workloads.trace import check_records
from .config import ServeConfig
from .obs import ServeMetrics
from .worker import engine_worker_main

__all__ = ["RecordSpan", "WorkerPool", "worker_for_tenant"]

#: One IPC exchange: the command tuple and the future its reply resolves.
_Exchange = Tuple[Tuple[Any, ...], "asyncio.Future[Any]"]

#: Seconds a draining pool waits for a worker to answer ``stop`` before
#: escalating to terminate/kill.
_STOP_REPLY_TIMEOUT_S = 15.0


def worker_for_tenant(tenant: str, workers: int) -> int:
    """Stable tenant→worker affinity: SHA-256 of the label mod pool size.

    Deterministic across processes and Python invocations (unlike the
    builtin salted ``hash``), so tests, clients, and operators can
    predict placement.
    """
    digest = hashlib.sha256(tenant.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") % workers


class RecordSpan:
    """A run of checked trace records bound for an engine worker.

    The one item of a session queue, at either back end.  The server
    validates a batch once, at admission, with
    :func:`~repro.workloads.trace.check_records` (the record decoder's
    loop run without building requests), and keeps the record offsets
    it returns, so cutting a queued batch at the
    micro-batch cap is a byte slice.  Sliced like the request list it
    stands for — ``len(span)``, ``span[:n]``, ``span[n:]``; contiguous
    slices only.
    """

    __slots__ = ("_records", "_offsets", "_start", "_stop")

    def __init__(self, records: bytes, offsets: List[int], start: int,
                 stop: int) -> None:
        self._records = records
        self._offsets = offsets
        self._start = start
        self._stop = stop

    @classmethod
    def checked(cls, records: bytes, count: int) -> "RecordSpan":
        """Check ``count`` records; raises what ``parse_records`` would."""
        return cls(records, check_records(records, count), 0, count)

    def __len__(self) -> int:
        return self._stop - self._start

    def __getitem__(self, index: slice) -> "RecordSpan":
        start, stop, _ = index.indices(len(self))
        return RecordSpan(self._records, self._offsets, self._start + start,
                          self._start + max(start, stop))

    def _offset(self, record: int) -> int:
        offsets = self._offsets
        return offsets[record] if record < len(offsets) \
            else len(self._records)

    def payload(self) -> bytes:
        """The span's record bytes."""
        return self._records[self._offset(self._start):
                             self._offset(self._stop)]


class _WorkerHandle:
    """Parent-side endpoint of one worker process."""

    def __init__(self, index: int, generation: int, ctx: SpawnContext,
                 engine_config: EngineConfig,
                 loop: asyncio.AbstractEventLoop,
                 on_crash: Callable[["_WorkerHandle"], None],
                 inflight_limit: int, metrics: ServeMetrics) -> None:
        self.index = index
        self.generation = generation
        self._loop = loop
        self._on_crash = on_crash
        self._depth_gauge = metrics.dispatch_depth(index)
        parent_conn, child_conn = ctx.Pipe(duplex=True)
        self.process = ctx.Process(
            target=engine_worker_main, args=(child_conn, index, engine_config),
            name=f"repro-serve-worker-{index}", daemon=True)
        self.process.start()
        child_conn.close()
        self._conn = parent_conn
        self.alive = True
        self._stopping = False
        self._credits = asyncio.Semaphore(inflight_limit)
        self._inflight = 0
        self._lock = threading.Lock()
        self._outbox: "queue.Queue[Optional[_Exchange]]" = queue.Queue()
        self._pending: Deque["asyncio.Future[Any]"] = deque()
        self._writer = threading.Thread(
            target=self._write_loop, daemon=True,
            name=f"repro-serve-w{index}-tx")
        self._reader = threading.Thread(
            target=self._read_loop, daemon=True,
            name=f"repro-serve-w{index}-rx")
        self._writer.start()
        self._reader.start()

    # -- event-loop side ------------------------------------------------

    async def request(self, message: Tuple[Any, ...]) -> Any:
        """One command round trip; raises the reply's error if any.

        Raises:
            WorkerCrashError: the worker is (or dies while) processing.
            ServeError: the worker replied with an error code.
        """
        if not self.alive:
            raise WorkerCrashError(
                f"engine worker {self.index} is down")
        async with self._credits:
            self._inflight += 1
            self._depth_gauge.set(float(self._inflight))
            future: "asyncio.Future[Any]" = self._loop.create_future()
            self._outbox.put((message, future))
            try:
                return await future
            finally:
                self._inflight -= 1
                self._depth_gauge.set(float(self._inflight))

    async def stop(self) -> None:
        """Graceful worker shutdown: ``stop`` round trip, then join.

        The pipe is FIFO and the worker single-threaded, so the ``stop``
        reply arriving means every previously dispatched feed completed —
        the "drain waits for all workers' in-flight feeds" guarantee.
        Escalates to terminate/kill when the worker does not answer.
        """
        if self.alive:
            self._stopping = True
            try:
                await asyncio.wait_for(self.request(("stop",)),
                                       _STOP_REPLY_TIMEOUT_S)
            except (ServeError, asyncio.TimeoutError):
                pass
        with self._lock:
            self.alive = False
        self._outbox.put(None)
        await self._loop.run_in_executor(None, self._join)

    # -- I/O threads ----------------------------------------------------

    def _write_loop(self) -> None:
        while True:
            item = self._outbox.get()
            if item is None:
                self._drain_outbox()
                return
            message, future = item
            try:
                # Pickled here, not inside ``send``: a message that cannot
                # be pickled fails alone instead of ending this thread,
                # which would leave every later request unanswered.
                payload = ForkingPickler.dumps(message)
            except Exception as exc:
                self._resolve_error(future, ServeError(
                    f"request cannot be sent to engine worker "
                    f"{self.index}: {exc!r}", code="bad_request"))
                continue
            with self._lock:
                if not self.alive:
                    self._reject(future)
                    continue
                self._pending.append(future)
            try:
                self._conn.send_bytes(payload)
            except (BrokenPipeError, OSError, ValueError):
                self._mark_crashed()
                self._drain_outbox()
                return

    def _read_loop(self) -> None:
        while True:
            try:
                reply = self._conn.recv()
            except (EOFError, OSError):
                self._mark_crashed()
                return
            with self._lock:
                future = self._pending.popleft() if self._pending else None
            if future is None:  # pragma: no cover - defensive
                continue
            if reply[0] == "ok":
                self._resolve(future, reply[1])
            else:
                self._resolve_error(
                    future, ServeError(str(reply[2]), code=str(reply[1])))

    def _drain_outbox(self) -> None:
        """Fail whatever the writer never sent (crash/stop path)."""
        while True:
            try:
                item = self._outbox.get_nowait()
            except queue.Empty:
                return
            if item is not None:
                self._reject(item[1])

    def _mark_crashed(self) -> None:
        with self._lock:
            if not self.alive:
                return
            self.alive = False
            pending = list(self._pending)
            self._pending.clear()
            stopping = self._stopping
        self._outbox.put(None)  # stop the writer thread
        for future in pending:
            self._reject(future)
        if not stopping:
            try:
                self._loop.call_soon_threadsafe(self._on_crash, self)
            except RuntimeError:  # pragma: no cover - loop already closed
                pass

    def _reject(self, future: "asyncio.Future[Any]") -> None:
        self._resolve_error(future, WorkerCrashError(
            f"engine worker {self.index} crashed"))

    def _resolve(self, future: "asyncio.Future[Any]", value: Any) -> None:
        def _set() -> None:
            if not future.done():
                future.set_result(value)
        try:
            self._loop.call_soon_threadsafe(_set)
        except RuntimeError:  # pragma: no cover - loop already closed
            pass

    def _resolve_error(self, future: "asyncio.Future[Any]",
                       error: ServeError) -> None:
        def _set() -> None:
            if not future.done():
                future.set_exception(error)
                future.exception()  # some callers learn via the session
        try:
            self._loop.call_soon_threadsafe(_set)
        except RuntimeError:  # pragma: no cover - loop already closed
            pass

    # -- process plumbing ----------------------------------------------

    def _join(self) -> None:
        self.process.join(timeout=5.0)
        if self.process.is_alive():  # pragma: no cover - stuck worker
            self.process.terminate()
            self.process.join(timeout=5.0)
            if self.process.is_alive():
                self.process.kill()
                self.process.join()
        try:
            self._conn.close()
        except OSError:  # pragma: no cover - defensive
            pass


class WorkerPool:
    """N engine worker processes plus routing, credit, and respawn.

    Created on the running event loop (reader threads resolve futures
    through it).  ``crash_callback(index, error)`` runs on the loop when
    a worker dies, *before* the slot is respawned, so the session
    manager can fail exactly the sessions routed there.
    """

    def __init__(self, config: ServeConfig, engine_config: EngineConfig,
                 metrics: ServeMetrics,
                 crash_callback: Callable[[int, WorkerCrashError], None]
                 ) -> None:
        self.config = config
        self.engine_config = engine_config
        self.metrics = metrics
        self._crash_callback = crash_callback
        self._ctx = multiprocessing.get_context("spawn")
        self._loop = asyncio.get_running_loop()
        self.draining = False
        self.handles: List[_WorkerHandle] = [
            self._spawn(index, 0) for index in range(config.workers)]
        metrics.workers_alive.set(float(self.alive_count()))

    def _spawn(self, index: int, generation: int) -> _WorkerHandle:
        return _WorkerHandle(index, generation, self._ctx,
                             self.engine_config, self._loop,
                             self._handle_crash, self.config.worker_inflight,
                             self.metrics)

    # -- routing and dispatch ------------------------------------------

    def worker_for(self, tenant: str) -> int:
        return worker_for_tenant(tenant, self.config.workers)

    async def request(self, index: int, message: Tuple[Any, ...]) -> Any:
        return await self.handles[index].request(message)

    def alive_count(self) -> int:
        return sum(1 for handle in self.handles if handle.alive)

    def pids(self) -> Dict[int, Optional[int]]:
        """Worker index → live process pid (tests kill through this)."""
        return {handle.index: handle.process.pid
                for handle in self.handles if handle.alive}

    # -- crash handling (event-loop side) ------------------------------

    def _handle_crash(self, handle: _WorkerHandle) -> None:
        index = handle.index
        if self.handles[index] is not handle:  # pragma: no cover - stale
            return
        self.metrics.workers_alive.set(float(self.alive_count()))
        error = WorkerCrashError(
            f"engine worker {index} crashed; its in-worker session state "
            f"is lost")
        self._crash_callback(index, error)
        if self.draining:
            return
        self.handles[index] = self._spawn(index, handle.generation + 1)
        self.metrics.worker_respawns.inc()
        self.metrics.workers_alive.set(float(self.alive_count()))

    # -- metrics and shutdown ------------------------------------------

    async def metrics_snapshots(self) -> List[Dict[str, Any]]:
        """Per-worker registry snapshots (skipping unresponsive workers)."""
        snapshots: List[Dict[str, Any]] = []
        for handle in list(self.handles):
            if not handle.alive:
                continue
            try:
                snapshots.append(await asyncio.wait_for(
                    handle.request(("metrics",)), timeout=5.0))
            except (ServeError, asyncio.TimeoutError):
                continue
        return snapshots

    async def stop(self) -> None:
        """Drain-stop every worker; crashes stop respawning first."""
        self.draining = True
        await asyncio.gather(*(handle.stop() for handle in self.handles),
                             return_exceptions=True)
        self.metrics.workers_alive.set(0.0)
