"""Configuration of the serving front end (:mod:`repro.serve`)."""

from __future__ import annotations

from dataclasses import dataclass

from ..common.errors import ConfigError

__all__ = ["MAX_WORKERS", "MICRO_BATCH_REQUESTS", "ServeConfig"]

#: Most requests one engine feed takes, and the ``batch_hint`` a hello
#: reply advertises: a session's drain task joins queued batches up to
#: this cap, so one tenant holds the engine for at most this many
#: requests at a time.
MICRO_BATCH_REQUESTS = 1024

#: Upper bound on ``workers``.  Engine workers are full Python processes
#: each importing the simulator; past this count a deployment wants a
#: fleet of servers, not one pool (mirrors the sweep layer's multi-host
#: work queue).
MAX_WORKERS = 64


@dataclass(frozen=True)
class ServeConfig:
    """Knobs of one :class:`~repro.serve.server.DedupServer` instance."""

    #: Bind address.  Loopback by default — the service speaks plaintext
    #: NDJSON and trusts its network.
    host: str = "127.0.0.1"
    #: Bind port; 0 asks the OS for an ephemeral port (the bound port is
    #: reported by ``DedupServer.port`` and printed by ``repro serve``).
    port: int = 0
    #: Engine workers, each one :class:`~repro.serve.worker.EngineWorker`.
    #: 1 (the default) runs it on one engine thread of the server
    #: process (``LocalEngine``): all sessions interleave there, bound to
    #: one core by the GIL.  N>1 spawns N worker processes, with sessions
    #: routed by consistent tenant-hash affinity (DESIGN.md §14).
    workers: int = 1
    #: Per-worker bound on dispatched-but-unanswered IPC commands; keeps
    #: a fast admitter from buffering unbounded pickled batches in the
    #: worker pipes.
    worker_inflight: int = 8
    #: Maximum concurrently open sessions; further ``hello``s are
    #: rejected with ``session_limit``.
    max_sessions: int = 8
    #: Per-session ingest queue bound, in requests.  A ``batch`` that
    #: does not fit entirely is rejected with ``backpressure`` and
    #: nothing from it is enqueued.
    queue_limit: int = 8192
    #: Suggested client delay before resending a rejected batch.
    retry_after_ms: int = 25
    #: Grace period for in-flight sessions after SIGTERM/SIGINT before
    #: connections are closed forcibly.
    drain_grace_s: float = 30.0

    def __post_init__(self) -> None:
        if not 0 <= self.port <= 65535:
            raise ConfigError("port must be in [0, 65535]")
        if not 1 <= self.workers <= MAX_WORKERS:
            raise ConfigError(
                f"invalid serve worker count {self.workers!r}; accepted "
                f"range: 1..{MAX_WORKERS} (1 = one engine thread in the "
                f"server process, N>1 = N spawned engine worker "
                f"processes)")
        if self.worker_inflight <= 0:
            raise ConfigError("worker_inflight must be positive")
        if self.max_sessions <= 0:
            raise ConfigError("max_sessions must be positive")
        if self.queue_limit <= 0:
            raise ConfigError("queue_limit must be positive")
        if self.retry_after_ms < 0:
            raise ConfigError("retry_after_ms must be non-negative")
        if self.drain_grace_s < 0:
            raise ConfigError("drain_grace_s must be non-negative")
