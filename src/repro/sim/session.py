"""Incremental simulation sessions: the engine's streaming API.

:meth:`~repro.sim.engine.SimulationEngine.run` consumes a whole request
stream in one call.  The serving layer (:mod:`repro.serve`) instead needs
to *feed* a long-running simulation in chunks as they arrive from a
client, interleaved with other tenants' sessions on the same process.
:class:`Session` is that API::

    session = engine.open_session(app="gcc", total_hint=20_000)
    for chunk in chunks:          # any chunk sizes, any number of calls
        session.feed(chunk)
    result = session.finalize()   # same SimulationResult run() returns

Parity contract
---------------

``run()`` is reimplemented on top of ``open_session``/``feed``/
``finalize``, and a session fed in arbitrary chunk sizes produces a
``SimulationResult`` **bit-identical** to a one-shot ``run()`` of the
concatenated stream (``tests/test_serve_session_parity.py``).  Each
``feed`` runs the one request-loop body (:meth:`Session._process`) over
exactly the requests it is given; that body is the engine's former loop
carved into a resumable chunk processor, and the load-bearing details
are:

* **Float accumulation order.**  The loop accumulates core stall cycles
  in a local and flushes once at the end; a session keeps that running
  float across ``feed`` calls and flushes it to the core in
  ``finalize``, so the sequence of float additions is exactly the
  one-shot loop's (chunked partial sums would reassociate and drift).
* **Recorder batching.**  ``LatencyRecorder.add_many`` performs the same
  per-sample arithmetic as repeated ``add`` with state round-tripping
  through the instance, so flushing once per ``feed`` is bit-identical
  to one end-of-run flush.

Scope handling
--------------

A session owns its observation scope: it creates its
:class:`~repro.obs.runtime.RunObservation` at open (or none, with
observability off) and binds it to its scheme graph
(:meth:`~repro.dedup.base.DedupScheme.bind_observation`).  The kernel
memo caches (:mod:`repro.perf.memo`) are owned by that graph too — the
counter-mode engine, the fingerprint engines and ESD each hold theirs —
and finalize exports the statistics of the ones the scheme lists
(:meth:`~repro.dedup.base.DedupScheme.memo_caches`).  So interleaved
sessions share no state, on one thread or several, their whole results
equal sequential runs, and a checkpoint pickles everything with the graph.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, Iterable, List, Optional, TYPE_CHECKING

from ..cache.cpu import CoreTimingModel
from ..common.errors import IntegrityError, SessionError
from ..common.stats import LatencyRecorder
from ..common.types import AccessType, MemoryRequest
from ..obs.export import build_report
from ..obs.harvest import harvest_run
from ..obs.runtime import RunObservation
from ..perf.memo import stats_snapshot
from .metrics import SimulationResult, collect_extras

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .engine import SimulationEngine

__all__ = ["Session"]


class Session:
    """One incremental simulation: open, feed chunks, finalize.

    Create through :meth:`SimulationEngine.open_session`.  A session is
    single-consumer and not thread-safe; the serving layer serializes
    engine work explicitly.
    """

    def __init__(self, engine: "SimulationEngine", *,
                 app: str = "unknown", total_hint: Optional[int] = None,
                 instructions_per_access: int = 200) -> None:
        self.engine = engine
        self.scheme = engine.scheme
        self.config = engine.config
        self.app = app
        self.instructions_per_access = instructions_per_access
        ec = engine.engine_config

        cfg = self.config
        obs_cfg = cfg.observability
        self._obs_run: Optional[RunObservation] = (
            RunObservation(obs_cfg)
            if obs_cfg is not None and obs_cfg.enabled else None)
        self.scheme.bind_observation(self._obs_run)

        self._verify = cfg.verify_integrity
        self._write_rec = LatencyRecorder(ec.max_latency_samples)
        self._read_rec = LatencyRecorder(ec.max_latency_samples)
        self._core = CoreTimingModel(config=cfg.processor)
        self._window: Deque[float] = deque()
        self._shadow: Dict[int, bytes] = engine._shadow
        self._max_outstanding = ec.max_outstanding
        self._cycle_ns = self._core.config.cycle_ns
        self._write_stall_fraction = self._core.write_stall_fraction

        self._warmup_after = (int(total_hint * ec.warmup_fraction)
                              if total_hint else 0)
        self._dedup_at_warmup = self.scheme.counters.get("dedup_hits")

        self._processed = 0
        self._writes = 0
        self._reads = 0
        #: Running core-timing accumulators; flushed to the core once, in
        #: finalize — see the module docstring's float-order note.
        self._stall_cycles = 0.0
        self._instructions = 0

        self._state = "open"

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    @property
    def state(self) -> str:
        """``open``, ``finalized``, ``closed``, or ``failed``."""
        return self._state

    @property
    def processed(self) -> int:
        """Requests processed so far: every request fed, and the number
        of source-stream records a resumed session skips."""
        return self._processed

    def _require_open(self, verb: str) -> None:
        if self._state != "open":
            raise SessionError(
                f"cannot {verb} a {self._state} session (app={self.app!r}, "
                f"scheme={self.scheme.name})")

    def feed(self, requests: Iterable[MemoryRequest]) -> int:
        """Process a chunk of the request stream; returns its length.

        Raises:
            SessionError: when the session is not open.
            IntegrityError: on read-back verification failure (the
                session transitions to ``failed``).
        """
        self._require_open("feed")
        try:
            return self._process(requests)
        except BaseException:
            self._state = "failed"
            raise

    def finalize(self) -> SimulationResult:
        """Build the result; ends the session."""
        self._require_open("finalize")
        memo_stats = stats_snapshot(self.scheme.memo_caches())

        core = self._core
        # One flush of the session-running accumulators — the same single
        # float addition the one-shot loop's finally performed.
        core.stall_cycles += self._stall_cycles
        core.instructions += self._instructions

        scheme = self.scheme
        extras = collect_extras(scheme)
        extras.update(memo_stats)

        obs_report = None
        if self._obs_run is not None:
            harvest_run(self._obs_run, scheme, memo_stats)
            obs_report = build_report(self._obs_run)

        controller = scheme.controller
        self._state = "finalized"
        return SimulationResult(
            app=self.app,
            scheme=scheme.name,
            write_latency=self._write_rec,
            read_latency=self._read_rec,
            writes=self._writes,
            reads=self._reads,
            dedup_eliminated=(scheme.counters.get("dedup_hits")
                              - self._dedup_at_warmup),
            pcm_data_writes=controller.data_writes,
            pcm_metadata_writes=controller.metadata_writes,
            pcm_data_reads=controller.data_reads,
            pcm_metadata_reads=controller.metadata_reads,
            energy_nj=scheme.total_energy().breakdown(),
            breakdown=scheme.breakdown,
            read_breakdown=scheme.read_breakdown,
            ipc=core.ipc,
            metadata=scheme.metadata_footprint(),
            extras=extras,
            obs=obs_report,
        )

    def close(self) -> None:
        """Mark an open session closed without building a result.

        Idempotent; finalized/failed sessions are left in their terminal
        state.  No global scope is held between calls, so there is
        nothing else to release.
        """
        if self._state == "open":
            self._state = "closed"

    # ------------------------------------------------------------------
    # Checkpoint / restore (see repro.sim.checkpoint for the format and
    # the bit-exactness argument)
    # ------------------------------------------------------------------

    def checkpoint(self, destination: Optional[object] = None) -> object:
        """Snapshot this open session for a later bit-exact resume.

        With ``destination`` (a path) the checkpoint is written atomically
        and the byte count returned; with no argument the serialized
        checkpoint is returned as ``bytes``.  The session stays open and
        can keep feeding — checkpointing is a pure snapshot.  Resume with
        :meth:`restore`, then skip :attr:`processed` records of the source
        stream before feeding the remainder.

        Raises:
            SessionError: when the session is not open.
        """
        from .checkpoint import checkpoint_bytes, write_checkpoint
        if destination is None:
            return checkpoint_bytes(self)
        return write_checkpoint(self, destination)  # type: ignore[arg-type]

    @classmethod
    def restore(cls, source: object) -> "Session":
        """Restore a session from a checkpoint (path, bytes, or file).

        Returns the live, open session; its :attr:`processed` property is
        the number of source-stream records to skip before feeding.

        Raises:
            CheckpointError: on a corrupt or incompatible checkpoint.
        """
        from .checkpoint import load_checkpoint
        return load_checkpoint(source).session  # type: ignore[arg-type]

    # ------------------------------------------------------------------
    # The request loop (the engine's former loop body, resumable)
    # ------------------------------------------------------------------

    def _process(self, requests: Iterable[MemoryRequest]) -> int:
        """Run the request loop over one ``feed`` chunk.

        Bound methods and constants are hoisted because every attribute
        lookup in the body is paid once per request; running accumulators
        are loaded from and stored back to the session so the arithmetic
        sequence across chunks matches the one-shot loop exactly.  The recorder flush in ``finally`` has the same
        per-sample arithmetic as one end-of-run ``add_many`` (the recorder
        state round-trips through the instance between batches), and also
        runs on an exception mid-chunk so the partial batch is never lost.
        The retired-instruction count and the return value are derived
        from ``processed`` once per chunk: both are integer counts of the
        requests completed, so the sums stay exact.
        """
        scheme = self.scheme
        handle_write = scheme.handle_write
        handle_read = scheme.handle_read
        verify = self._verify
        warmup_after = self._warmup_after
        write_lats: List[float] = []
        read_lats: List[float] = []
        write_lat_append = write_lats.append
        read_lat_append = read_lats.append
        window = self._window
        window_append = window.append
        window_popleft = window.popleft
        shadow = self._shadow
        max_outstanding = self._max_outstanding
        new_request = MemoryRequest.__new__
        WRITE = AccessType.WRITE
        cycle_ns = self._cycle_ns
        write_stall_fraction = self._write_stall_fraction
        stall_cycles = self._stall_cycles
        processed = start = self._processed
        obs = self._obs_run
        try:
            for request in requests:
                if obs is not None:
                    obs.begin_request(processed)
                # Closed-loop throttling: delay the issue until a window
                # slot frees up.  The delayed request is a trusted copy
                # (request_unchecked's construction) differing only in
                # issue_time_ns: the source request passed the
                # constructor's checks when it was built, and every scheme
                # rejects a malformed payload itself before changing any
                # state, so re-validating through dataclasses.replace only
                # costs time.
                if len(window) >= max_outstanding:
                    oldest = window_popleft()
                    if oldest > request.issue_time_ns:
                        fields = request.__dict__.copy()
                        fields["issue_time_ns"] = oldest
                        request = new_request(MemoryRequest)
                        request.__dict__ = fields

                if request.access is WRITE:
                    result = handle_write(request)
                    latency = result.latency_ns
                    completion = result.completion_ns
                    if verify:
                        shadow[request.address] = request.data
                    if processed >= warmup_after:
                        write_lat_append(latency)
                    stall_cycles += ((latency / cycle_ns)
                                     * write_stall_fraction)
                    if obs is not None:
                        if processed >= warmup_after:
                            obs.write_latency_hist.observe(latency)
                        obs.record(completion, "engine", "write_done",
                                   address=request.address,
                                   latency_ns=latency)
                else:
                    rresult = handle_read(request)
                    latency = rresult.latency_ns
                    completion = rresult.completion_ns
                    if verify:
                        expected = shadow.get(request.address)
                        if expected is not None and rresult.data != expected:
                            raise IntegrityError(
                                f"read at {request.address:#x} returned "
                                f"stale or corrupt data under scheme "
                                f"{scheme.name}")
                    if processed >= warmup_after:
                        read_lat_append(latency)
                    stall_cycles += latency / cycle_ns
                    if obs is not None:
                        if processed >= warmup_after:
                            obs.read_latency_hist.observe(latency)
                        obs.record(completion, "engine", "read_done",
                                   address=request.address,
                                   latency_ns=latency)

                window_append(completion)
                processed += 1
                if processed == warmup_after:
                    self._dedup_at_warmup = scheme.counters.get("dedup_hits")
        finally:
            self._stall_cycles = stall_cycles
            self._instructions += ((processed - start)
                                   * self.instructions_per_access)
            self._processed = processed
            self._writes += len(write_lats)
            self._reads += len(read_lats)
            self._write_rec.add_many(write_lats)
            self._read_rec.add_many(read_lats)
        return processed - start
