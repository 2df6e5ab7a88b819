"""Run-scoped observation state, owned by the session that records it.

A :class:`~repro.sim.session.Session` creates one
:class:`RunObservation` at open from ``SystemConfig.observability`` (or
none when it is disabled) and binds it to every object of its scheme
graph that has a hook site: the scheme, its memory controller and, where
present, its EFIT, the EFIT's LRCU cache and its AMT or mapping table
(:meth:`~repro.dedup.base.DedupScheme.bind_observation`).  Each of those
holds the binding in ``self._obs`` and tests it at the hook::

    obs = self._obs
    if obs is not None:
        obs.record(tick, "controller", "data_write", line=line_number)

so with observability disabled (``_obs is None``, the default) each
hook costs one attribute load and an ``is None`` test.  No process
global is involved: interleaved sessions share no observation state,
and a checkpoint pickles the binding with the scheme graph.  The
session harvests the scope into its result at finalize.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..common.config import ObservabilityConfig
from .metrics import DEFAULT_LATENCY_BOUNDS_NS, MetricsRegistry, ObsHistogram
from .tracing import TraceEvent, TraceRing

__all__ = ["RunObservation"]


class RunObservation:
    """One run's instrumentation state: registry, trace ring, sampling.

    ``begin_request`` decides once per request whether its trace events
    are kept (``request_id % sample_every == 0``); :meth:`record` then
    bails on one attribute test for unsampled requests.  Metrics are
    never sampled — only the trace is.
    """

    __slots__ = ("config", "registry", "ring", "sample_every",
                 "request_id", "request_sampled",
                 "write_latency_hist", "read_latency_hist")

    def __init__(self, config: ObservabilityConfig) -> None:
        self.config = config
        self.registry = MetricsRegistry()
        self.ring = TraceRing(config.trace_capacity)
        self.sample_every = config.sample_every
        #: Sequence number of the request currently being served; -1
        #: outside any request (e.g. warm-up bookkeeping).
        self.request_id = -1
        self.request_sampled = False
        self.write_latency_hist: ObsHistogram = self.registry.histogram(
            "request_latency_ns", DEFAULT_LATENCY_BOUNDS_NS, op="write")
        self.read_latency_hist: ObsHistogram = self.registry.histogram(
            "request_latency_ns", DEFAULT_LATENCY_BOUNDS_NS, op="read")

    def begin_request(self, request_id: int) -> None:
        self.request_id = request_id
        self.request_sampled = (request_id % self.sample_every == 0)

    def record(self, tick: float, component: str, event: str,
               **payload: object) -> None:
        """Trace an event for the current request, if it is sampled."""
        if self.request_sampled:
            self.ring.record(TraceEvent(
                tick, self.request_id, component, event, payload))

    def emit(self, tick: float, request_id: int, component: str,
             event: str, payload: Optional[Dict[str, object]] = None) -> None:
        """Trace an event unconditionally (sampling bypassed).

        For rare, high-signal occurrences — an LRCU decay pass, an ECC
        fingerprint collision — that must not vanish just because they
        happened during an unsampled request.
        """
        self.ring.record(TraceEvent(
            tick, request_id, component, event, payload or {}))
