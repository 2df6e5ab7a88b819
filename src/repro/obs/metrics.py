"""Typed metrics registry: counters, gauges, and histograms with labels.

Before this layer, each subsystem exported telemetry through its own
ad-hoc channel: the kernel fast path flattened cache statistics into
``SimulationResult.extras`` under ``memo_*`` keys, schemes kept a bag of
:class:`~repro.common.stats.Counter` tallies, and the EFIT/AMT exposed
bare ``hits``/``misses`` attributes.  The registry gives all of them one
typed, labelled namespace with a uniform snapshot/reset lifecycle:
instruments are registered once per
``(type, name, labels)`` triple, values are zeroed at run start, and a
flat snapshot is exported at run end.

Soundness rule for counter migration (see DESIGN.md §9): the registry is
*observational* — instruments are populated from the same underlying
tallies the legacy channels read, never the other way around, so enabling
observability can never change a simulated result and the legacy
``extras`` keys remain available as a compatibility view.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Optional, Tuple, Union

__all__ = [
    "DEFAULT_LATENCY_BOUNDS_NS",
    "Labels",
    "MetricsRegistry",
    "ObsCounter",
    "ObsGauge",
    "ObsHistogram",
]

#: Canonical label form: sorted ``(key, value)`` pairs.
Labels = Tuple[Tuple[str, str], ...]

#: Default histogram bucket upper bounds for latencies in nanoseconds.
#: Spans on-chip probe latencies (~1 ns) through heavily queued PCM
#: accesses; the implicit final bucket is ``+inf``.
DEFAULT_LATENCY_BOUNDS_NS: Tuple[float, ...] = (
    25.0, 50.0, 100.0, 200.0, 400.0, 800.0, 1600.0, 3200.0, 6400.0, 12800.0,
)


def _canonical_labels(labels: Dict[str, str]) -> Labels:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def format_labels(labels: Labels) -> str:
    """Render labels as the conventional ``{k="v",...}`` suffix."""
    if not labels:
        return ""
    inner = ",".join(f'{k}="{v}"' for k, v in labels)
    return "{" + inner + "}"


class ObsCounter:
    """A monotonically increasing tally."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: Labels) -> None:
        self.name = name
        self.labels = labels
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only increase")
        self.value += amount

    def reset(self) -> None:
        self.value = 0.0


class ObsGauge:
    """A point-in-time value (hit rates, cache sizes, IPC)."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: Labels) -> None:
        self.name = name
        self.labels = labels
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def reset(self) -> None:
        self.value = 0.0


class ObsHistogram:
    """A fixed-bucket histogram with exact count/sum/min/max.

    Buckets are cumulative-style upper bounds (the final ``+inf`` bucket
    is implicit), so the memory footprint is constant regardless of how
    many samples are observed — unlike
    :class:`~repro.common.stats.LatencyRecorder`, which retains raw
    samples for percentile queries.
    """

    __slots__ = ("name", "labels", "bounds", "bucket_counts", "count",
                 "total", "_min", "_max")

    def __init__(self, name: str, labels: Labels,
                 bounds: Tuple[float, ...] = DEFAULT_LATENCY_BOUNDS_NS) -> None:
        if not bounds or list(bounds) != sorted(bounds):
            raise ValueError("histogram bounds must be a sorted, "
                             "non-empty sequence")
        self.name = name
        self.labels = labels
        self.bounds = tuple(float(b) for b in bounds)
        self.bucket_counts = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.total = 0.0
        self._min = math.inf
        self._max = -math.inf

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if value < self._min:
            self._min = value
        if value > self._max:
            self._max = value
        for i, bound in enumerate(self.bounds):
            if value <= bound:
                self.bucket_counts[i] += 1
                return
        self.bucket_counts[-1] += 1

    @property
    def min(self) -> float:
        """Smallest observed value; ``NaN`` when empty."""
        return self._min if self.count else math.nan

    @property
    def max(self) -> float:
        """Largest observed value; ``NaN`` when empty."""
        return self._max if self.count else math.nan

    @property
    def mean(self) -> float:
        """Mean of observed values; ``NaN`` when empty."""
        return self.total / self.count if self.count else math.nan

    def reset(self) -> None:
        self.bucket_counts = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.total = 0.0
        self._min = math.inf
        self._max = -math.inf


Instrument = Union[ObsCounter, ObsGauge, ObsHistogram]

#: Row type of :meth:`MetricsRegistry.snapshot` (JSON-serializable).
MetricRow = Dict[str, object]


class MetricsRegistry:
    """Registered instruments keyed by ``(type, name, labels)``.

    The first caller of :meth:`counter`/:meth:`gauge`/:meth:`histogram`
    for a key creates the instrument; later callers share it.  Registering
    the same ``(name, labels)`` under two different instrument types is an
    error — one name means one kind of measurement.
    """

    def __init__(self) -> None:
        self._instruments: "Dict[Tuple[str, Labels], Instrument]" = {}

    def __len__(self) -> int:
        return len(self._instruments)

    def _get(self, kind: type, name: str,
             labels: Dict[str, str],
             bounds: Optional[Tuple[float, ...]] = None) -> Instrument:
        key = (name, _canonical_labels(labels))
        instrument = self._instruments.get(key)
        if instrument is None:
            if bounds is not None:
                instrument = ObsHistogram(key[0], key[1], bounds)
            else:
                instrument = kind(key[0], key[1])
            self._instruments[key] = instrument
        elif not isinstance(instrument, kind):
            raise TypeError(
                f"metric {name!r}{format_labels(key[1])} already registered "
                f"as {type(instrument).__name__}, not {kind.__name__}")
        return instrument

    def counter(self, name: str, **labels: str) -> ObsCounter:
        instrument = self._get(ObsCounter, name, labels)
        assert isinstance(instrument, ObsCounter)
        return instrument

    def gauge(self, name: str, **labels: str) -> ObsGauge:
        instrument = self._get(ObsGauge, name, labels)
        assert isinstance(instrument, ObsGauge)
        return instrument

    def histogram(self, name: str,
                  bounds: Tuple[float, ...] = DEFAULT_LATENCY_BOUNDS_NS,
                  **labels: str) -> ObsHistogram:
        instrument = self._get(ObsHistogram, name, labels, bounds=bounds)
        assert isinstance(instrument, ObsHistogram)
        return instrument

    def instruments(self) -> Iterable[Instrument]:
        """All registered instruments, sorted by (name, labels)."""
        return [self._instruments[key]
                for key in sorted(self._instruments)]

    def reset(self) -> None:
        """Zero every instrument's value (registrations are kept)."""
        for instrument in self._instruments.values():
            instrument.reset()

    def clear(self) -> None:
        """Drop every registration entirely."""
        self._instruments.clear()

    # ------------------------------------------------------------------
    # Export views
    # ------------------------------------------------------------------

    def snapshot(self) -> List[MetricRow]:
        """JSON-serializable rows, one per instrument, sorted by key.

        Counter/gauge rows carry ``value``; histogram rows carry
        ``count``/``sum``/``min``/``max``/``buckets`` (min/max are ``None``
        when the histogram is empty — never a fake 0.0; see the
        empty-recorder percentile rule in :mod:`repro.common.stats`).
        """
        rows: List[MetricRow] = []
        for instrument in self.instruments():
            row: MetricRow = {
                "name": instrument.name,
                "labels": dict(instrument.labels),
            }
            if isinstance(instrument, ObsCounter):
                row["type"] = "counter"
                row["value"] = instrument.value
            elif isinstance(instrument, ObsGauge):
                row["type"] = "gauge"
                row["value"] = instrument.value
            else:
                row["type"] = "histogram"
                row["count"] = instrument.count
                row["sum"] = instrument.total
                row["min"] = (None if instrument.count == 0
                              else instrument._min)
                row["max"] = (None if instrument.count == 0
                              else instrument._max)
                row["buckets"] = [
                    {"le": ("+inf" if i == len(instrument.bounds)
                            else instrument.bounds[i]),
                     "count": count}
                    for i, count in enumerate(instrument.bucket_counts)]
            rows.append(row)
        return rows

    def as_flat(self) -> Dict[str, float]:
        """Counters and gauges as ``{"name{labels}": value}``.

        Histograms contribute their ``_count`` and ``_sum`` series.  This
        is the view ``repro report`` prints and the compatibility bridge
        back to the legacy flat ``extras`` mapping.
        """
        flat: Dict[str, float] = {}
        for instrument in self.instruments():
            key = instrument.name + format_labels(instrument.labels)
            if isinstance(instrument, ObsHistogram):
                flat[key + "_count"] = float(instrument.count)
                flat[key + "_sum"] = instrument.total
            else:
                flat[key] = instrument.value
        return flat
