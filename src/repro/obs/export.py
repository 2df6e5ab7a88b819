"""Exporters for observation data: JSONL traces, JSON/CSV metric reports.

The on-disk forms are deliberately boring:

* a **trace** is JSON Lines — one :class:`~repro.obs.tracing.TraceEvent`
  dict per line, append-friendly and greppable;
* a **metrics report** is either the JSON snapshot rows of
  :meth:`~repro.obs.metrics.MetricsRegistry.snapshot` or a flat CSV with
  one row per instrument.

Empty histograms export ``min``/``max`` as ``None`` (JSON) / empty cells
(CSV), never 0.0 — the same sentinel rule as the empty-recorder
percentile fix in :mod:`repro.common.stats`.
"""

from __future__ import annotations

import csv
import io
import json
from pathlib import Path
from typing import IO, Dict, Iterable, List, Union

from .metrics import MetricRow, format_labels
from .tracing import TraceEvent

__all__ = [
    "OBS_SCHEMA_VERSION",
    "build_report",
    "metrics_to_csv",
    "read_trace_jsonl",
    "write_trace_jsonl",
]

#: Version stamp carried by every persisted obs report.
OBS_SCHEMA_VERSION = 1

PathOrIO = Union[str, Path, IO[str]]


def build_report(run: "object") -> Dict[str, object]:
    """The JSON-serializable report for one closed run scope.

    Takes the session's :class:`~repro.obs.runtime.RunObservation` once
    it is harvested (typed loosely to avoid an import cycle with runtime).
    """
    registry = run.registry  # type: ignore[attr-defined]
    ring = run.ring  # type: ignore[attr-defined]
    return {
        "obs_schema_version": OBS_SCHEMA_VERSION,
        "metrics": registry.snapshot(),
        "trace": [event.to_dict() for event in ring],
        "trace_stats": ring.stats(),
    }


def _open_for(target: PathOrIO, mode: str) -> "tuple[IO[str], bool]":
    if isinstance(target, (str, Path)):
        return open(target, mode, encoding="utf-8"), True
    return target, False


def write_trace_jsonl(events: Iterable[TraceEvent],
                      target: PathOrIO) -> int:
    """Write events as JSON Lines; returns the number written."""
    stream, owned = _open_for(target, "w")
    count = 0
    try:
        for event in events:
            stream.write(json.dumps(event.to_dict(), sort_keys=True))
            stream.write("\n")
            count += 1
    finally:
        if owned:
            stream.close()
    return count


def read_trace_jsonl(source: PathOrIO) -> List[TraceEvent]:
    """Read a JSONL trace back into :class:`TraceEvent` records."""
    stream, owned = _open_for(source, "r")
    try:
        events: List[TraceEvent] = []
        for line in stream:
            line = line.strip()
            if not line:
                continue
            events.append(TraceEvent.from_dict(json.loads(line)))
        return events
    finally:
        if owned:
            stream.close()


def metrics_to_csv(rows: List[MetricRow]) -> str:
    """Flat CSV text for snapshot rows: one line per instrument.

    Histogram rows fill ``count``/``sum``/``min``/``max``; counter and
    gauge rows fill ``value``.  Empty histogram min/max export as empty
    cells, not 0.0.
    """
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(["name", "labels", "type", "value",
                     "count", "sum", "min", "max"])
    for row in rows:
        labels = format_labels(
            tuple(sorted(row.get("labels", {}).items())))  # type: ignore[union-attr]
        kind = row["type"]
        if kind == "histogram":
            low = row["min"]
            high = row["max"]
            writer.writerow([
                row["name"], labels, kind, "",
                row["count"], row["sum"],
                "" if low is None else low,
                "" if high is None else high,
            ])
        else:
            writer.writerow([row["name"], labels, kind,
                             row["value"], "", "", "", ""])
    return buffer.getvalue()
