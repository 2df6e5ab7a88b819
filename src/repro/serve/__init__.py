"""Dedup-as-a-service: the asyncio ingestion front end (DESIGN.md §11).

Wraps the simulator in a long-running service: many clients stream
cache-line write/read traces over newline-delimited JSON into
concurrent sessions, each with its own tenant-resolved scheme and
system configuration, multiplexed onto shared engine workers with
bounded ingest queues and explicit backpressure.  Stdlib only; the
simulation core never imports this package.

Every engine command runs in an engine worker.  At ``--workers 1``
(the default) one worker runs on an engine thread of the server
process; with ``--workers N`` (N > 1) the back end becomes a pool of N
spawned worker *processes*, sessions routed by consistent tenant-hash
affinity — true multi-core parallelism past the GIL, bit-exact with the
one-thread back end, with per-worker crash containment (DESIGN.md §14).

Layers (one module each):

* :mod:`~repro.serve.protocol` — the NDJSON wire protocol; batches
  travel as trace records (:mod:`repro.workloads.trace`).
* :mod:`~repro.serve.session_mgr` — session lifecycle, tenancy,
  whole-batch queues, micro-batching onto the engine's incremental
  session API.
* :mod:`~repro.serve.pool` — the multi-process worker pool: affinity,
  record-byte IPC, inflight credit, crash detection + respawn.
* :mod:`~repro.serve.worker` — the engine worker's command handler,
  the one-thread in-process back end and the worker process entry.
* :mod:`~repro.serve.server` — the asyncio server, drain-on-signal,
  and the in-process :class:`BackgroundServer` harness.
* :mod:`~repro.serve.client` — the blocking client SDK.
* :mod:`~repro.serve.obs` — service metrics on the repro.obs registry.
"""

from .client import ServeClient
from .config import ServeConfig
from .pool import worker_for_tenant
from .protocol import PROTOCOL_VERSION
from .server import BackgroundServer, DedupServer, run_server

__all__ = [
    "BackgroundServer",
    "DedupServer",
    "PROTOCOL_VERSION",
    "ServeClient",
    "ServeConfig",
    "run_server",
    "worker_for_tenant",
]
