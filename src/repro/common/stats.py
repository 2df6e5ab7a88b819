"""Statistics collection: counters, latency samples, percentiles, CDFs.

The paper's evaluation reports averages (speedups, energy), distributions
(Figure 15's write-latency CDFs), and shares (Figure 17's latency profile).
:class:`LatencyRecorder` keeps raw samples (optionally reservoir-sampled for
long runs) and serves percentiles and CDF series; :class:`Counter` is a
simple named tally.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np


@dataclass
class Counter:
    """A named collection of monotonically increasing tallies."""

    values: Dict[str, int] = field(default_factory=dict)

    def incr(self, name: str, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError("counters only increase")
        # Schemes call incr() several times per request, so the double
        # ``self.values`` attribute lookup is worth a local.
        values = self.values
        values[name] = values.get(name, 0) + amount

    def get(self, name: str) -> int:
        return self.values.get(name, 0)

    def ratio(self, numerator: str, denominator: str) -> float:
        """``numerator / denominator``, or 0.0 when the denominator is zero."""
        denom = self.get(denominator)
        if denom == 0:
            return 0.0
        return self.get(numerator) / denom

    def as_dict(self) -> Dict[str, int]:
        return dict(self.values)


class RunningMean:
    """Numerically stable running mean/variance (Welford's algorithm)."""

    def __init__(self) -> None:
        self.count = 0
        self._mean = 0.0
        self._m2 = 0.0

    def add(self, x: float) -> None:
        self.count += 1
        delta = x - self._mean
        self._mean += delta / self.count
        self._m2 += delta * (x - self._mean)

    @property
    def mean(self) -> float:
        return self._mean if self.count else 0.0

    @property
    def variance(self) -> float:
        if self.count < 2:
            return 0.0
        return self._m2 / (self.count - 1)

    @property
    def stddev(self) -> float:
        return math.sqrt(self.variance)


class LatencyRecorder:
    """Collects latency samples and serves summary statistics.

    For bounded memory on long simulations the recorder keeps at most
    ``max_samples`` raw values using reservoir sampling, while the running
    mean/min/max/sum remain exact over the full stream.
    """

    def __init__(self, max_samples: int = 200_000, *,
                 rng: Optional[np.random.Generator] = None) -> None:
        if max_samples <= 0:
            raise ValueError("max_samples must be positive")
        self._max_samples = max_samples
        self._samples: List[float] = []
        self._rng = rng or np.random.default_rng(0xE5D)
        self._running = RunningMean()
        self._total = 0.0
        self._min = math.inf
        self._max = -math.inf
        self._seen = 0

    def add(self, latency_ns: float) -> None:
        self.add_many((latency_ns,))

    def add_many(self, latencies: Iterable[float]) -> None:
        """Record samples in order: the one update path.

        The recorder state is held in locals across the batch — the
        session's request loop collects each run's latencies in a plain
        list and flushes them here once — and written back even when a
        sample is rejected, so the samples before it stay recorded.

        Raises:
            ValueError: on a negative sample.
        """
        running = self._running
        count = running.count
        mean = running._mean
        m2 = running._m2
        total = self._total
        low = self._min
        high = self._max
        samples = self._samples
        max_samples = self._max_samples
        seen = self._seen
        rng = self._rng
        try:
            for latency_ns in latencies:
                if latency_ns < 0:
                    raise ValueError("latency must be non-negative")
                seen += 1
                # Welford update (identical arithmetic to RunningMean.add).
                count += 1
                delta = latency_ns - mean
                mean += delta / count
                m2 += delta * (latency_ns - mean)
                total += latency_ns
                if latency_ns < low:
                    low = latency_ns
                if latency_ns > high:
                    high = latency_ns
                if len(samples) < max_samples:
                    samples.append(latency_ns)
                else:
                    # Reservoir sampling keeps a uniform subsample.
                    j = int(rng.integers(0, seen))
                    if j < max_samples:
                        samples[j] = latency_ns
        finally:
            running.count = count
            running._mean = mean
            running._m2 = m2
            self._total = total
            self._min = low
            self._max = high
            self._seen = seen

    def extend(self, latencies: Iterable[float]) -> None:
        self.add_many(latencies)

    @property
    def count(self) -> int:
        return self._seen

    @property
    def total_ns(self) -> float:
        return self._total

    @property
    def mean_ns(self) -> float:
        return self._running.mean

    @property
    def stddev_ns(self) -> float:
        return self._running.stddev

    @property
    def min_ns(self) -> float:
        return self._min if self._seen else 0.0

    @property
    def max_ns(self) -> float:
        return self._max if self._seen else 0.0

    def percentile(self, p: float) -> float:
        """The ``p``-th percentile (0-100) of recorded samples.

        An empty recorder returns ``NaN``, never 0.0: a scheme or phase
        that saw no traffic must stay distinguishable from one with a
        genuinely zero-latency tail.  Export boundaries map the NaN to
        ``None``/empty cells (:mod:`repro.sim.export`).
        """
        if not 0 <= p <= 100:
            raise ValueError("percentile must be within [0, 100]")
        if not self._samples:
            return math.nan
        return float(np.percentile(np.asarray(self._samples), p))

    def tail_summary(self) -> Dict[str, float]:
        """Common tail percentiles (p50/p90/p99/p999) as a dict.

        All values are ``NaN`` when the recorder is empty (see
        :meth:`percentile`)."""
        return {
            "p50": self.percentile(50),
            "p90": self.percentile(90),
            "p99": self.percentile(99),
            "p999": self.percentile(99.9),
        }

    def cdf(self, points: int = 100) -> Tuple[List[float], List[float]]:
        """Empirical CDF as ``(latencies, cumulative_fractions)``.

        Suitable for plotting Figure 15: x is latency in ns, y rises from
        ~1/n to 1.0.
        """
        if points <= 0:
            raise ValueError("points must be positive")
        if not self._samples:
            return [], []
        data = np.sort(np.asarray(self._samples))
        if len(data) <= points:
            xs = data
            ys = (np.arange(1, len(data) + 1)) / len(data)
        else:
            # Sample the CDF at evenly spaced quantiles.
            qs = np.linspace(0, 100, points)
            xs = np.percentile(data, qs)
            ys = qs / 100.0
        return [float(x) for x in xs], [float(y) for y in ys]

    def samples(self) -> Sequence[float]:
        """The retained (possibly subsampled) raw latency values."""
        return tuple(self._samples)

    # ------------------------------------------------------------------
    # Exact serialization (repro.sweep result store)
    # ------------------------------------------------------------------

    def state_dict(self) -> Dict:
        """Full internal state as a JSON-serializable dict.

        Round-tripping through :meth:`from_state` reconstructs a recorder
        whose every observable statistic — mean, stddev, min/max, retained
        samples, percentiles, CDFs — is bit-identical to the original, and
        whose reservoir RNG would continue sampling identically.  This is
        what lets the sweep result store replay cached results that are
        byte-for-byte equal to a fresh simulation.
        """
        return {
            "max_samples": self._max_samples,
            "samples": list(self._samples),
            "seen": self._seen,
            "total_ns": self._total,
            "min_ns": self._min if self._seen else None,
            "max_ns": self._max if self._seen else None,
            "running": {"count": self._running.count,
                        "mean": self._running._mean,
                        "m2": self._running._m2},
            "rng_state": self._rng.bit_generator.state,
        }

    @classmethod
    def from_state(cls, state: Dict) -> "LatencyRecorder":
        """Reconstruct a recorder from :meth:`state_dict` output."""
        rec = cls(int(state["max_samples"]))
        rec._samples = [float(x) for x in state["samples"]]
        rec._seen = int(state["seen"])
        rec._total = float(state["total_ns"])
        rec._min = (float(state["min_ns"]) if state["min_ns"] is not None
                    else math.inf)
        rec._max = (float(state["max_ns"]) if state["max_ns"] is not None
                    else -math.inf)
        running = state["running"]
        rec._running.count = int(running["count"])
        rec._running._mean = float(running["mean"])
        rec._running._m2 = float(running["m2"])
        rng_state = state.get("rng_state")
        if rng_state is not None:
            # JSON round-trips turn the nested state ints into ints already;
            # numpy validates the bit-generator name on assignment.
            rec._rng.bit_generator.state = rng_state
        return rec


def geometric_mean(values: Sequence[float]) -> float:
    """Geometric mean; the conventional average for speedup ratios."""
    vals = [v for v in values]
    if not vals:
        return 0.0
    if any(v <= 0 for v in vals):
        raise ValueError("geometric mean requires positive values")
    return float(np.exp(np.mean(np.log(vals))))


def harmonic_mean(values: Sequence[float]) -> float:
    """Harmonic mean; appropriate for averaging rates such as IPC."""
    vals = [v for v in values]
    if not vals:
        return 0.0
    if any(v <= 0 for v in vals):
        raise ValueError("harmonic mean requires positive values")
    return len(vals) / sum(1.0 / v for v in vals)


def normalize_to(values: Dict[str, float], reference: str) -> Dict[str, float]:
    """Normalize a mapping of series values to one reference key.

    Matches the paper's presentation style ("normalized to the Baseline").
    """
    if reference not in values:
        raise KeyError(f"reference series {reference!r} missing")
    ref = values[reference]
    if ref == 0:
        raise ValueError("reference value is zero; cannot normalize")
    return {k: v / ref for k, v in values.items()}
