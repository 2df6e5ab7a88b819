"""Trace-driven simulation engine.

Feeds a request stream through a scheme while modeling the two coupling
effects a naive open-loop replay misses:

* **Closed-loop throttling.**  Real cores track a finite number of
  outstanding memory requests (MSHRs, store buffers); when the memory
  system backs up, the core stalls and the arrival stream slows down.  The
  engine enforces a sliding window of ``max_outstanding`` requests: request
  *i* cannot issue before request ``i - max_outstanding`` completed.
  Without this, any scheme whose service demand transiently exceeds bank
  bandwidth shows unbounded queue growth that no real system exhibits.
* **Warm-up.**  The paper warms the NVMM system up before measuring; the
  engine skips the first ``warmup_fraction`` of requests when recording
  latency statistics (all functional state still updates).

The engine also maintains the shadow copy used for continuous integrity
verification (reads must return the bytes most recently written to that
logical address — the invariant deduplication must never break) and drives
the :class:`~repro.cache.cpu.CoreTimingModel` for IPC.

The request loops themselves live in :mod:`repro.sim.session`:
:meth:`SimulationEngine.run` is the one-shot convenience built on the
incremental :class:`~repro.sim.session.Session` API
(``open_session`` / ``feed`` / ``finalize``), which the serving layer
(:mod:`repro.serve`) uses to interleave many trace sources on shared
workers.  The two are bit-identical by construction and by test
(``tests/test_serve_session_parity.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Optional

from ..common.config import SystemConfig
from ..common.types import MemoryRequest
from ..dedup.base import DedupScheme
from .metrics import SimulationResult
from .session import Session


@dataclass(frozen=True)
class EngineConfig:
    """Engine-level knobs (orthogonal to the system configuration)."""

    #: Maximum in-flight requests before arrivals are throttled.
    max_outstanding: int = 64
    #: Leading fraction of the trace excluded from recorded statistics.
    warmup_fraction: float = 0.1
    #: Cap on retained raw latency samples (reservoir beyond this).
    max_latency_samples: int = 200_000

    def __post_init__(self) -> None:
        if self.max_outstanding <= 0:
            raise ValueError("max_outstanding must be positive")
        if not 0.0 <= self.warmup_fraction < 1.0:
            raise ValueError("warmup_fraction must be in [0, 1)")
        if self.max_latency_samples <= 0:
            raise ValueError("max_latency_samples must be positive")


class SimulationEngine:
    """Drives one scheme with one request stream and collects metrics."""

    def __init__(self, scheme: DedupScheme,
                 engine_config: Optional[EngineConfig] = None) -> None:
        self.scheme = scheme
        self.config: SystemConfig = scheme.config
        self.engine_config = engine_config or EngineConfig()
        self._shadow: Dict[int, bytes] = {}

    def open_session(self, *, app: str = "unknown",
                     total_hint: Optional[int] = None,
                     instructions_per_access: int = 200) -> Session:
        """Open an incremental simulation session on this engine.

        The session owns the run's recorders, core-timing model, and
        observability scope; feed it request chunks
        of any size and :meth:`~repro.sim.session.Session.finalize` it to
        obtain the same :class:`SimulationResult` :meth:`run` returns.
        Sessions on one engine share the integrity-shadow map and the
        scheme's functional state, so run them strictly one at a time
        per engine.

        Args:
            app: application label for the result.
            total_hint: expected stream length, used to place the warm-up
                boundary without materializing the stream.
            instructions_per_access: non-memory instructions retired per
                request, for the IPC model.
        """
        return Session(self, app=app, total_hint=total_hint,
                       instructions_per_access=instructions_per_access)

    def run(self, requests: Iterable[MemoryRequest], *,
            app: str = "unknown", total_hint: Optional[int] = None,
            instructions_per_access: int = 200) -> SimulationResult:
        """Process the stream; returns the collected result.

        One-shot wrapper over the session API: opens a session, feeds the
        whole stream as a single chunk, finalizes.

        Args:
            requests: the request stream (consumed once).
            app: application label for the result.
            total_hint: expected stream length, used to place the warm-up
                boundary without materializing the stream.
            instructions_per_access: non-memory instructions retired per
                request, for the IPC model.

        Raises:
            IntegrityError: when ``SystemConfig.verify_integrity`` is on and
                a read returns bytes differing from the last write to that
                address.
        """
        session = self.open_session(
            app=app, total_hint=total_hint,
            instructions_per_access=instructions_per_access)
        session.feed(requests)
        return session.finalize()
