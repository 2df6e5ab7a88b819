"""Tests for repro.common.stats."""

import math

import pytest

from repro.common.stats import (
    Counter,
    LatencyRecorder,
    RunningMean,
    geometric_mean,
    harmonic_mean,
    normalize_to,
)


class TestCounter:
    def test_increment(self):
        c = Counter()
        c.incr("a")
        c.incr("a", 4)
        assert c.get("a") == 5

    def test_missing_is_zero(self):
        assert Counter().get("nothing") == 0

    def test_ratio(self):
        c = Counter()
        c.incr("hits", 3)
        c.incr("total", 4)
        assert c.ratio("hits", "total") == 0.75

    def test_ratio_zero_denominator(self):
        assert Counter().ratio("a", "b") == 0.0

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            Counter().incr("a", -1)


class TestRunningMean:
    def test_mean_and_stddev(self):
        rm = RunningMean()
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]:
            rm.add(x)
        assert rm.mean == pytest.approx(5.0)
        assert rm.stddev == pytest.approx(math.sqrt(32 / 7))

    def test_empty(self):
        rm = RunningMean()
        assert rm.mean == 0.0
        assert rm.variance == 0.0


class TestLatencyRecorder:
    @pytest.mark.parametrize("update", ["add", "add_many", "extend"])
    def test_rejected_sample_keeps_the_accepted_prefix(self, update):
        rec = LatencyRecorder()
        with pytest.raises(ValueError, match="non-negative"):
            if update == "add":
                for x in [1.0, 2.0, -3.0]:
                    rec.add(x)
            else:
                getattr(rec, update)([1.0, 2.0, -3.0])
        assert rec.samples() == (1.0, 2.0)
        assert (rec.count, rec.mean_ns, rec.total_ns) == (2, 1.5, 3.0)
        assert (rec.min_ns, rec.max_ns) == (1.0, 2.0)
        rec.add(3.0)
        assert (rec.count, rec.mean_ns) == (3, 2.0)

    def test_basic_stats(self):
        rec = LatencyRecorder()
        rec.extend([10.0, 20.0, 30.0])
        assert rec.count == 3
        assert rec.mean_ns == pytest.approx(20.0)
        assert rec.min_ns == 10.0
        assert rec.max_ns == 30.0
        assert rec.total_ns == 60.0

    def test_percentiles(self):
        rec = LatencyRecorder()
        rec.extend(float(i) for i in range(1, 101))
        assert rec.percentile(50) == pytest.approx(50.5)
        assert rec.percentile(99) > 98

    def test_percentile_range_check(self):
        rec = LatencyRecorder()
        with pytest.raises(ValueError):
            rec.percentile(101)

    def test_empty_recorder(self):
        rec = LatencyRecorder()
        assert rec.mean_ns == 0.0
        assert rec.cdf() == ([], [])

    def test_empty_percentile_is_nan(self):
        # Regression: an empty recorder used to report percentile 0.0,
        # indistinguishable from a genuine zero-latency tail.  NaN is the
        # unambiguous "no data" sentinel; exporters map it to None/blank.
        rec = LatencyRecorder()
        for p in (0, 50, 90, 99, 99.9, 100):
            assert math.isnan(rec.percentile(p))

    def test_empty_tail_summary_is_all_nan(self):
        summary = LatencyRecorder().tail_summary()
        assert set(summary) == {"p50", "p90", "p99", "p999"}
        assert all(math.isnan(v) for v in summary.values())

    def test_single_sample_percentile_is_finite(self):
        rec = LatencyRecorder()
        rec.add(42.0)
        assert rec.percentile(50) == 42.0
        assert rec.percentile(99.9) == 42.0

    def test_rejects_negative_latency(self):
        with pytest.raises(ValueError):
            LatencyRecorder().add(-1.0)

    def test_cdf_monotone(self):
        rec = LatencyRecorder()
        rec.extend(float(i % 37) for i in range(500))
        xs, ys = rec.cdf(points=20)
        assert xs == sorted(xs)
        assert ys == sorted(ys)
        assert ys[-1] == pytest.approx(1.0)

    def test_reservoir_keeps_exact_aggregates(self):
        rec = LatencyRecorder(max_samples=100)
        rec.extend(float(i) for i in range(10_000))
        assert rec.count == 10_000
        assert rec.mean_ns == pytest.approx(4999.5)
        assert rec.max_ns == 9999.0
        assert len(rec.samples()) == 100

    def test_tail_summary_keys(self):
        rec = LatencyRecorder()
        rec.extend([1.0, 2.0, 3.0])
        assert set(rec.tail_summary()) == {"p50", "p90", "p99", "p999"}


class TestMeans:
    def test_geometric_mean(self):
        assert geometric_mean([1.0, 4.0]) == pytest.approx(2.0)

    def test_geometric_mean_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            geometric_mean([1.0, 0.0])

    def test_geometric_mean_empty(self):
        assert geometric_mean([]) == 0.0

    def test_harmonic_mean(self):
        assert harmonic_mean([1.0, 2.0]) == pytest.approx(4.0 / 3.0)

    def test_harmonic_mean_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            harmonic_mean([1.0, -2.0])


class TestNormalizeTo:
    def test_normalizes(self):
        out = normalize_to({"a": 2.0, "b": 4.0}, "a")
        assert out == {"a": 1.0, "b": 2.0}

    def test_missing_reference(self):
        with pytest.raises(KeyError):
            normalize_to({"a": 1.0}, "zzz")

    def test_zero_reference(self):
        with pytest.raises(ValueError):
            normalize_to({"a": 0.0, "b": 1.0}, "a")
