"""repro.obs — run-scoped metrics, tracing, and report export.

Three pieces (see DESIGN.md §9):

* :mod:`repro.obs.metrics` — a typed registry of labelled counters,
  gauges, and fixed-bucket histograms with a snapshot/reset lifecycle;
* :mod:`repro.obs.tracing` — a bounded ring buffer of per-request
  ``(tick, request_id, component, event, payload)`` records with
  configurable request sampling;
* :mod:`repro.obs.export` — JSONL trace dump and JSON/CSV metric
  reports, surfaced by the ``repro trace`` / ``repro report`` CLI
  subcommands and persisted per-job by the sweep ``ResultStore``.

Everything is gated by ``SystemConfig.observability``: a session
creates one :class:`~repro.obs.runtime.RunObservation` at open and binds
it to the objects of its scheme graph that record into it.  With
observability off the whole layer reduces to an ``is None`` test of that
binding per hook site, and simulated results are bit-identical
(property-tested).
"""

from .export import (OBS_SCHEMA_VERSION, build_report, metrics_to_csv,
                     read_trace_jsonl, write_trace_jsonl)
from .metrics import (DEFAULT_LATENCY_BOUNDS_NS, MetricsRegistry, ObsCounter,
                      ObsGauge, ObsHistogram)
from .runtime import RunObservation
from .tracing import TraceEvent, TraceRing

__all__ = [
    "DEFAULT_LATENCY_BOUNDS_NS",
    "MetricsRegistry",
    "OBS_SCHEMA_VERSION",
    "ObsCounter",
    "ObsGauge",
    "ObsHistogram",
    "RunObservation",
    "TraceEvent",
    "TraceRing",
    "build_report",
    "metrics_to_csv",
    "read_trace_jsonl",
    "write_trace_jsonl",
]
