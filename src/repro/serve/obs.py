"""Server-side observability (:mod:`repro.obs` registry wiring).

The serving layer keeps its own process-lifetime
:class:`~repro.obs.metrics.MetricsRegistry`, separate from the per-run
registries the engine opens inside each session: server metrics describe
the *service* (admission, queueing, batching, tenancy) and outlive any
single simulation.  The ``metrics`` wire verb snapshots this registry
merged with every engine worker's (:meth:`ServeMetrics.merged_snapshot`).
"""

from __future__ import annotations

import time
from typing import Any, Dict, List

from ..obs.metrics import MetricsRegistry, ObsCounter, ObsGauge

__all__ = ["ServeMetrics"]

#: Bucket bounds for admission latency (seconds converted to ns): spans
#: sub-microsecond enqueues through multi-millisecond stalls under load.
_ADMISSION_BOUNDS_NS = (
    1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9,
)

#: Bucket bounds for micro-batch occupancy (requests per engine feed);
#: powers of two up to the micro-batch cap (``MICRO_BATCH_REQUESTS``)
#: and beyond.
_OCCUPANCY_BOUNDS = tuple(float(1 << i) for i in range(15))


class ServeMetrics:
    """Instruments of one server instance.

    Gauges track the instantaneous state (active sessions, per-tenant
    queue depth), counters the cumulative work (requests admitted or
    rejected per tenant, batches fed), histograms the two serving
    distributions: admission latency (receive → enqueued) and
    engine-feed batch occupancy (micro-batching effectiveness).
    """

    def __init__(self) -> None:
        self.registry = MetricsRegistry()
        self._started = time.monotonic()
        self.active_sessions = self.registry.gauge("serve_active_sessions")
        self.sessions_opened = self.registry.counter("serve_sessions_opened")
        self.sessions_finalized = self.registry.counter(
            "serve_sessions_finalized")
        self.admission_latency = self.registry.histogram(
            "serve_admission_latency_ns", _ADMISSION_BOUNDS_NS)
        self.batch_occupancy = self.registry.histogram(
            "serve_batch_occupancy", _OCCUPANCY_BOUNDS)
        #: Engine worker processes currently alive.  The pool sets it:
        #: ``--workers`` N, dipping below N between a crash and its
        #: respawn.  It stays 0 at ``--workers 1``, whose one worker runs
        #: on an engine thread of the server process, not in a process.
        self.workers_alive = self.registry.gauge("serve_workers_alive")
        #: Cumulative worker respawns after crashes.
        self.worker_respawns = self.registry.counter(
            "serve_worker_respawns_total")

    def queue_depth(self, tenant: str) -> ObsGauge:
        """Per-tenant queued-request gauge."""
        return self.registry.gauge("serve_queue_depth", tenant=tenant)

    def requests_total(self, tenant: str) -> ObsCounter:
        """Per-tenant admitted-request counter."""
        return self.registry.counter("serve_requests_total", tenant=tenant)

    def rejected_total(self, tenant: str) -> ObsCounter:
        """Per-tenant backpressure-rejection counter."""
        return self.registry.counter("serve_rejected_total", tenant=tenant)

    def dispatch_depth(self, worker: int) -> ObsGauge:
        """Per-worker dispatched-but-unanswered IPC command gauge."""
        return self.registry.gauge("serve_dispatch_depth",
                                   worker=str(worker))

    def worker_sessions(self, worker: int) -> ObsGauge:
        """Per-worker routed-session gauge (parent-side view)."""
        return self.registry.gauge("serve_worker_sessions",
                                   worker=str(worker))

    def worker_requests(self, worker: int) -> ObsCounter:
        """Per-worker dispatched-request counter (parent-side view).

        Divided by server uptime at snapshot time this yields the
        per-worker request rate gauge in :meth:`merged_snapshot`.
        """
        return self.registry.counter("serve_worker_requests_total",
                                     worker=str(worker))

    def merged_snapshot(
            self, worker_snapshots: List[Dict[str, Any]]) -> Dict[str, Any]:
        """The ``metrics`` verb's payload, at either back end: server
        registry plus every engine worker's registry snapshot, merged
        into one row list / flat view (worker instruments carry a
        ``worker`` label, so merging is concatenation — no key
        collisions).

        Derived per-worker request rates (``serve_worker_req_per_s``) are
        computed here from the dispatch counters and server uptime, so
        the gauge is only as stale as the last snapshot.
        """
        uptime_s = max(time.monotonic() - self._started, 1e-9)
        for instrument in list(self.registry.instruments()):
            if (isinstance(instrument, ObsCounter)
                    and instrument.name == "serve_worker_requests_total"):
                labels = dict(instrument.labels)
                self.registry.gauge(
                    "serve_worker_req_per_s", **labels).set(
                        instrument.value / uptime_s)
        rows: List[Any] = self.registry.snapshot()
        flat: Dict[str, float] = self.registry.as_flat()
        for snapshot in worker_snapshots:
            rows.extend(snapshot.get("rows", []))
            flat.update(snapshot.get("flat", {}))
        return {"metrics": rows, "flat": flat}
