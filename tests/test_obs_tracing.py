"""Tests for the trace ring, run scope, and trace export."""

import io
import json

import pytest

from repro.common.config import ObservabilityConfig
from repro.obs.export import (
    build_report,
    metrics_to_csv,
    read_trace_jsonl,
    write_trace_jsonl,
)
from repro.obs.runtime import RunObservation
from repro.obs.tracing import TraceEvent, TraceRing


def event(i, component="test", name="tick"):
    return TraceEvent(float(i), i, component, name, {"i": i})


class TestTraceRing:
    def test_records_in_order(self):
        ring = TraceRing(8)
        for i in range(3):
            ring.record(event(i))
        assert [e.request_id for e in ring.events()] == [0, 1, 2]

    def test_overflow_evicts_oldest(self):
        ring = TraceRing(4)
        for i in range(10):
            ring.record(event(i))
        assert len(ring) == 4
        assert [e.request_id for e in ring.events()] == [6, 7, 8, 9]
        assert ring.recorded == 10
        assert ring.dropped == 6

    def test_memory_bounded_under_flood(self):
        # Adversarial flood: far more events than capacity must never grow
        # the retained set beyond the ring.
        import sys
        ring = TraceRing(64)
        for i in range(100_000):
            ring.emit(float(i), i, "flood", "event")
        assert len(ring) == 64
        assert ring.stats() == {"capacity": 64, "recorded": 100_000,
                                "retained": 64, "dropped": 99_936}
        # The deque itself stays at capacity; its size cannot scale with
        # the number of recorded events.
        assert sys.getsizeof(ring._events) < 64 * 1024

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError):
            TraceRing(0)

    def test_clear(self):
        ring = TraceRing(4)
        ring.record(event(1))
        ring.clear()
        assert len(ring) == 0 and ring.recorded == 0


class TestTraceEvent:
    def test_round_trip_dict(self):
        e = event(7, component="efit", name="hit")
        assert TraceEvent.from_dict(e.to_dict()) == e

    def test_from_dict_rejects_bad_payload(self):
        with pytest.raises(ValueError):
            TraceEvent.from_dict({"tick": 0.0, "request_id": 1,
                                  "component": "x", "event": "y",
                                  "payload": "not-a-dict"})


class TestRunScope:
    def test_sampling_gates_record_not_emit(self):
        run = RunObservation(
            ObservabilityConfig(enabled=True, sample_every=2))
        run.begin_request(0)
        run.record(1.0, "c", "sampled")
        run.begin_request(1)
        run.record(2.0, "c", "skipped")
        run.emit(3.0, 1, "c", "unconditional")
        names = [e.event for e in run.ring.events()]
        assert names == ["sampled", "unconditional"]


class TestTraceExport:
    def test_jsonl_round_trip_via_path(self, tmp_path):
        events = [event(i) for i in range(5)]
        path = tmp_path / "trace.jsonl"
        assert write_trace_jsonl(events, path) == 5
        assert read_trace_jsonl(path) == events

    def test_jsonl_round_trip_via_stream(self):
        events = [event(i) for i in range(3)]
        buf = io.StringIO()
        write_trace_jsonl(events, buf)
        assert read_trace_jsonl(io.StringIO(buf.getvalue())) == events

    def test_jsonl_lines_are_one_json_object_each(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        write_trace_jsonl([event(1), event(2)], path)
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 2
        for line in lines:
            assert isinstance(json.loads(line), dict)


class TestReport:
    def test_build_report_shape(self):
        run = RunObservation(ObservabilityConfig(enabled=True))
        run.registry.counter("hits").inc(2.0)
        run.begin_request(0)
        run.record(1.0, "c", "e")
        report = build_report(run)
        assert report["obs_schema_version"] == 1
        assert any(r["name"] == "hits" for r in report["metrics"])
        assert report["trace"][0]["event"] == "e"
        assert report["trace_stats"]["recorded"] == 1
        json.dumps(report)  # persisted per sweep job; must serialize

    def test_metrics_csv(self):
        run = RunObservation(ObservabilityConfig(enabled=True))
        run.registry.counter("hits", component="efit").inc(3.0)
        csv_text = metrics_to_csv(build_report(run)["metrics"])
        lines = csv_text.strip().splitlines()
        assert lines[0] == "name,labels,type,value,count,sum,min,max"
        assert any(line.startswith("hits,") for line in lines[1:])
