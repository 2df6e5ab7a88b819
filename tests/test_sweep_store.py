"""Tests for the content-addressed result store."""

import json
import sqlite3

import pytest

from repro.common import small_test_config
from repro.sim.export import result_to_dict, result_to_state, result_from_state
from repro.sim.runner import run_app
from repro.sweep import ResultStore, job_meta, JobSpec
from repro.workloads import TraceGenerator
from repro.workloads.trace import read_trace_list


@pytest.fixture
def store(tmp_path):
    opened = ResultStore(tmp_path / "store.sqlite")
    yield opened
    opened.close()


def _write_row(store, digest, text):
    """Overwrite a result row with raw text, past the store's writer."""
    with sqlite3.connect(store.path) as conn:
        conn.execute("UPDATE results SET payload = ? WHERE digest = ?",
                     (text, digest))


def _read_row(store, digest):
    with sqlite3.connect(store.path) as conn:
        return conn.execute("SELECT payload FROM results WHERE digest = ?",
                            (digest,)).fetchone()[0]


@pytest.fixture(scope="module")
def result():
    """One real simulated result (module-scoped: simulation is the cost)."""
    out = run_app("gcc", ["ESD"], requests=1_200,
                  system=small_test_config(), seed=7)
    return out["ESD"]


class TestStateRoundTrip:
    def test_reporting_view_is_bit_identical(self, result):
        state = json.loads(json.dumps(result_to_state(result)))
        restored = result_from_state(state)
        assert result_to_dict(restored) == result_to_dict(result)

    def test_latency_internals_survive(self, result):
        restored = result_from_state(
            json.loads(json.dumps(result_to_state(result))))
        assert restored.write_latency.samples() \
            == result.write_latency.samples()
        assert restored.write_latency.stddev_ns \
            == result.write_latency.stddev_ns
        assert restored.write_cdf(points=50) == result.write_cdf(points=50)

    def test_reservoir_rng_continues_identically(self, result):
        restored = result_from_state(
            json.loads(json.dumps(result_to_state(result))))
        restored.write_latency.add(123.0)
        result.write_latency.add(123.0)
        assert restored.write_latency.samples() \
            == result.write_latency.samples()

    def test_unknown_version_rejected(self, result):
        state = result_to_state(result)
        state["version"] = 999
        with pytest.raises(ValueError):
            result_from_state(state)


class TestResultStore:
    def test_miss_then_hit(self, store, result):
        assert store.get("0" * 64) is None
        store.put("0" * 64, result)
        hit = store.get("0" * 64)
        assert hit is not None
        assert result_to_dict(hit) == result_to_dict(result)
        assert "0" * 64 in store
        assert len(store) == 1

    def test_energy_sum_identical_after_round_trip(self, store, result):
        # Float addition is order-sensitive; the store must preserve the
        # energy dict's insertion order so derived sums match exactly.
        store.put("e" * 64, result)
        assert store.get("e" * 64).total_energy_nj == result.total_energy_nj

    def test_corrupt_row_reads_as_miss(self, store, result):
        store.put("f" * 64, result)
        _write_row(store, "f" * 64, "{not json")
        assert store.get("f" * 64) is None
        _write_row(store, "f" * 64, json.dumps({"result": {"version": 999}}))
        assert store.get("f" * 64) is None

    def test_atomic_write_leaves_no_temp_files(self, tmp_path, store,
                                               result):
        store.put("a" * 64, result)
        # Only the store file and its open WAL-mode companions.
        assert {p.name for p in tmp_path.iterdir()} <= {
            "store.sqlite", "store.sqlite-wal", "store.sqlite-shm"}
        store.close()
        assert [p.name for p in tmp_path.iterdir()] == ["store.sqlite"]

    def test_job_meta_header_persisted(self, store, result):
        spec = JobSpec(app="gcc", scheme="ESD", requests=1_200, seed=7,
                       system=small_test_config())
        store.put(spec.digest(), result, job=job_meta(spec))
        payload = json.loads(_read_row(store, spec.digest()))
        assert payload["job"]["app"] == "gcc"
        assert payload["job"]["digest"] == spec.digest()

    def test_manifest_round_trip(self, store):
        assert store.read_manifest() is None
        store.write_manifest({"total_jobs": 4})
        assert store.read_manifest() == {"total_jobs": 4}


class TestTraceSharing:
    def test_trace_generated_once_and_replayed_exactly(self, store):
        calls = []

        def generate():
            calls.append(1)
            return TraceGenerator("gcc", seed=7).generate_list(500)

        path1 = store.ensure_trace("gcc-s7-n500-v1", generate)
        path2 = store.ensure_trace("gcc-s7-n500-v1", generate)
        assert path1 == path2
        assert len(calls) == 1
        replayed = read_trace_list(store.trace_path("gcc-s7-n500-v1"))
        original = TraceGenerator("gcc", seed=7).generate_list(500)
        assert len(replayed) == len(original)
        assert all(a.address == b.address and a.data == b.data
                   and a.issue_time_ns == b.issue_time_ns
                   for a, b in zip(replayed, original))
