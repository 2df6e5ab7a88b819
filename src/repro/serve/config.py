"""Configuration of the serving front end (:mod:`repro.serve`)."""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Optional

from ..common.errors import ConfigError

__all__ = ["MAX_WORKERS", "MICRO_BATCH_REQUESTS", "ServeConfig",
           "resolve_workers"]

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

#: Environment default for ``--workers`` (the flag wins when given).
WORKERS_ENV = "REPRO_SERVE_WORKERS"


def _workers_range_error(got: object) -> ConfigError:
    """The one message every bad worker count gets: states the accepted
    range, mirroring the unknown-backend errors of :mod:`repro.sweep`."""
    return ConfigError(
        f"invalid serve worker count {got!r}; accepted range: 1.."
        f"{MAX_WORKERS} (1 = in-process engine, N>1 = N spawned engine "
        f"worker processes)")


def resolve_workers(value: Optional[int] = None) -> int:
    """Resolve the engine worker count: flag > ``REPRO_SERVE_WORKERS`` > 1.

    Raises:
        ConfigError: when the flag or the environment value is not an
            integer in ``[1, MAX_WORKERS]``; the message lists the
            accepted range.
    """
    if value is None:
        raw = os.environ.get(WORKERS_ENV)
        if raw is None:
            return 1
        try:
            value = int(raw)
        except ValueError:
            raise _workers_range_error(raw) from None
    if not 1 <= value <= MAX_WORKERS:
        raise _workers_range_error(value)
    return value


@dataclass(frozen=True)
class ServeConfig:
    """Knobs of one :class:`~repro.serve.server.DedupServer` instance."""

    #: Bind address.  Loopback by default — the service speaks plaintext
    #: NDJSON and trusts its network.
    host: str = "127.0.0.1"
    #: Bind port; 0 asks the OS for an ephemeral port (the bound port is
    #: reported by ``DedupServer.port`` and printed by ``repro serve``).
    port: int = 0
    #: Engine worker *processes*.  1 (the default) keeps the in-process
    #: engine path: all sessions interleave on one engine lock, bound to
    #: one core by the GIL.  N>1 spawns N spawn-safe worker processes,
    #: with sessions routed by consistent tenant-hash affinity
    #: (DESIGN.md §14).
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
            raise _workers_range_error(self.workers)
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
