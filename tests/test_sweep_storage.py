"""Tests for the sweep store's storage: store specs, rows, traces, leases."""

import io
import json
import os
import sqlite3
import threading
import time

import pytest

from repro.common import (
    LeaseError,
    SweepError,
    UnknownBackendError,
    small_test_config,
)
from repro.common.atomic import fsync_atomic_write
from repro.sim.export import result_to_dict, result_to_state
from repro.sim.runner import ExperimentConfig, run_app
from repro.sweep import ResultStore, open_store, run_sweep
from repro.workloads import TraceGenerator
from repro.workloads.trace import write_trace

DIGEST = "a" * 64
OTHER = "b" * 64

#: The first 16 bytes of every SQLite database file.
SQLITE_HEADER = b"SQLite format 3\x00"


@pytest.fixture(scope="module")
def result():
    """One real simulated result to store (module-scoped)."""
    return run_app("gcc", ["Baseline"], requests=300,
                   system=small_test_config(), seed=7)["Baseline"]


@pytest.fixture(params=["sqlite", "path"])
def store(request, tmp_path):
    """A fresh store, opened from either spec form: ``sqlite://<path>``
    or the bare path."""
    path = tmp_path / "store.sqlite"
    opened = open_store(f"sqlite://{path}" if request.param == "sqlite"
                        else path)
    yield opened
    opened.close()


def tiny_experiment():
    return ExperimentConfig(apps=["gcc"], schemes=["Baseline"],
                            requests_per_app=200,
                            system=small_test_config(), seed=7)


def row_text(store, digest):
    """The raw result-row text, read past the store's parser."""
    with sqlite3.connect(store.path) as conn:
        row = conn.execute("SELECT payload FROM results WHERE digest = ?",
                           (digest,)).fetchone()
    return row[0] if row else None


class TestRegistry:
    def test_unknown_name_lists_registered(self, tmp_path):
        """A storage name other than ``sqlite`` fails typed, naming the
        one backend and the removed one, before any store exists."""
        with pytest.raises(UnknownBackendError) as excinfo:
            run_sweep(tiny_experiment(), jobs=1,
                      store=str(tmp_path / "s"), storage="bogus")
        assert "sqlite" in str(excinfo.value)
        assert "'dir' backend was removed" in str(excinfo.value)
        assert list(tmp_path.iterdir()) == []


class TestParseStoreSpec:
    def test_plain_path_opens_sqlite_file(self, tmp_path):
        """A path without a suffix (the old directory-store spelling)
        now names one SQLite file."""
        store = open_store(str(tmp_path / "store"))
        store.close()
        assert (tmp_path / "store").is_file()
        assert (tmp_path / "store").read_bytes()[:16] == SQLITE_HEADER

    def test_sqlite_url_forces_sqlite(self, tmp_path):
        store = open_store(f"sqlite://{tmp_path / 'x.bin'}")
        store.close()
        assert store.path == tmp_path / "x.bin"
        assert store.path.read_bytes()[:16] == SQLITE_HEADER

    def test_sqlite_suffix_infers_sqlite(self, tmp_path):
        store = open_store(str(tmp_path / "x.sqlite"))
        store.close()
        assert store.path.read_bytes()[:16] == SQLITE_HEADER

    def test_explicit_storage_wins(self, tmp_path):
        """``storage="sqlite"``, what the benchmark passes, still runs a
        sweep into the one store file."""
        grid = run_sweep(tiny_experiment(), jobs=1,
                         store=str(tmp_path / "plain"), storage="sqlite")
        assert list(grid) == [("gcc", "Baseline")]
        store = open_store(tmp_path / "plain")
        try:
            assert len(store) == 1
        finally:
            store.close()

    def test_conflicting_url_and_storage_rejected(self, tmp_path):
        with pytest.raises(UnknownBackendError, match="removed"):
            run_sweep(tiny_experiment(), jobs=1,
                      store=f"sqlite://{tmp_path / 'x'}", storage="dir")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("form", ["path", "url"])
    def test_existing_directory_rejected(self, tmp_path, form):
        """A spec naming a directory (a store of the removed directory
        layout) fails typed and creates nothing."""
        old = tmp_path / "old_store"
        (old / "results").mkdir(parents=True)
        spec = str(old) if form == "path" else f"sqlite://{old}"
        with pytest.raises(SweepError, match="directory store layout"):
            open_store(spec)
        with pytest.raises(SweepError, match="directory store layout"):
            run_sweep(tiny_experiment(), jobs=1, store=spec)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["old_store"]
        assert [p.name for p in old.iterdir()] == ["results"]

    def test_spec_round_trip_reopens_same_backend(self, store):
        store.write_manifest({"total": 4})
        reopened = open_store(store.spec)
        try:
            assert reopened.path == store.path
            assert reopened.read_manifest() == {"total": 4}
        finally:
            reopened.close()

    def test_open_store_passes_result_store_through(self, tmp_path):
        store = ResultStore(tmp_path / "store.sqlite")
        assert open_store(store) is store
        store.close()

    def test_store_is_one_file_plus_trace_sidecar(self, tmp_path, result):
        store = open_store(tmp_path / "store.sqlite")
        store.put(DIGEST, result)
        store.write_manifest({"total": 1})
        store.ensure_trace(
            "t1", lambda: TraceGenerator("gcc", seed=7).generate_list(10))
        store.close()
        assert sorted(p.name for p in tmp_path.iterdir()) \
            == ["store.sqlite", "store.sqlite.traces"]

    def test_open_waits_out_a_held_write_lock(self, tmp_path):
        """Opening a store whose file is not yet in WAL mode while another
        connection holds its write lock waits for the lock, as every
        other statement does, instead of failing with ``database is
        locked``."""
        path = tmp_path / "store.sqlite"
        holder = sqlite3.connect(path, isolation_level=None,
                                 check_same_thread=False)
        holder.execute("BEGIN IMMEDIATE")
        release = threading.Timer(0.3, holder.execute, ("COMMIT",))
        release.start()
        try:
            store = ResultStore(path)
        finally:
            release.join()
            holder.close()
        try:
            assert store._conn().execute(
                "PRAGMA journal_mode").fetchone()[0] == "wal"
            store.write_manifest({"total": 1})
            assert store.read_manifest() == {"total": 1}
        finally:
            store.close()


class TestFsyncDurability:
    def test_fsyncs_file_and_directory(self, tmp_path, monkeypatch):
        synced = []
        real_fsync = os.fsync
        monkeypatch.setattr(os, "fsync", lambda fd: (synced.append(fd),
                                                     real_fsync(fd))[1])
        target = tmp_path / "row.json"
        fsync_atomic_write(target, '{"k": 1}')
        assert target.read_text() == '{"k": 1}'
        # One fsync for the temp file's data, one for the directory entry
        # after os.replace — both halves of the durability contract.
        assert len(synced) >= 2

    def test_no_temp_residue(self, tmp_path):
        fsync_atomic_write(tmp_path / "row.json", "x")
        assert [p.name for p in tmp_path.iterdir()] == ["row.json"]

    def test_overwrite_is_atomic_replace(self, tmp_path):
        target = tmp_path / "row.json"
        fsync_atomic_write(target, "old")
        fsync_atomic_write(target, "new")
        assert target.read_text() == "new"


class TestBackendRoundTrips:
    def test_result_text_round_trip(self, store, result):
        assert store.get(DIGEST) is None
        assert DIGEST not in store
        job = {"z": 1, "a": 2}  # deliberate non-sorted key order
        store.put(DIGEST, result, job=job)
        # The row is the JSON of the payload in insertion order.
        assert row_text(store, DIGEST) == json.dumps(
            {"job": job, "result": result_to_state(result)})
        assert result_to_dict(store.get(DIGEST)) == result_to_dict(result)
        assert DIGEST in store
        assert list(store.iter_digests()) == [DIGEST]
        assert len(store) == 1

    def test_obs_round_trip(self, store):
        assert store.get_obs(DIGEST) is None
        store.put_obs(DIGEST, {"m": 3})
        assert store.get_obs(DIGEST) == {"m": 3}

    def test_manifest_round_trip(self, store):
        assert store.read_manifest() is None
        store.write_manifest({"total": 4})
        assert store.read_manifest() == {"total": 4}
        store.write_manifest({"total": 5})
        assert store.read_manifest() == {"total": 5}

    def test_trace_round_trip(self, store):
        requests = TraceGenerator("gcc", seed=7).generate_list(64)
        expected = io.BytesIO()
        write_trace(requests, expected)
        assert not store.has_trace("t1")
        with pytest.raises(FileNotFoundError):
            store.trace_path("t1")
        path = store.ensure_trace("t1", lambda: requests)
        assert store.has_trace("t1")
        assert path.read_bytes() == expected.getvalue()
        # Second ensure must not re-invoke the generator.
        again = store.ensure_trace(
            "t1", lambda: (_ for _ in ()).throw(AssertionError))
        assert again == path
        # The sidecar file is a cache: once gone, the blob is
        # materialized again.
        path.unlink()
        assert store.trace_path("t1").read_bytes() == expected.getvalue()

    def test_queue_round_trip(self, store):
        assert store.iter_queue() == []
        store.enqueue(DIGEST, {"spec": 1})
        store.enqueue(OTHER, {"spec": 2})
        store.enqueue(DIGEST, {"spec": 1})  # idempotent
        assert store.iter_queue() == sorted([DIGEST, OTHER])
        assert store.queue_payload(DIGEST) == {"spec": 1}
        assert store.queue_payload("c" * 64) is None

    def test_failure_round_trip(self, store):
        assert store.get_failure(DIGEST) is None
        store.mark_failed(DIGEST, "ValueError('boom')", 3)
        failure = store.get_failure(DIGEST)
        assert failure["error"] == "ValueError('boom')"
        assert failure["attempts"] == 3

    def test_completions_round_trip(self, store):
        assert store.completions() == []
        store.record_completion(DIGEST, "w1", 1.5, 1)
        store.record_completion(OTHER, "w2", 0.5, 2)
        rows = store.completions()
        assert len(rows) == 2
        by_digest = {row["digest"]: row for row in rows}
        assert by_digest[DIGEST]["worker"] == "w1"
        assert by_digest[OTHER]["attempts"] == 2
        assert [row["worker"] for row in store.completions([OTHER])] \
            == ["w2"]
        assert store.completions(["c" * 64]) == []

    def test_lookups_among_digests(self, store, result):
        """``results_among``/``failures_among`` answer for the digests
        asked about only, also for more digests than SQLite binds as
        separate query parameters."""
        asked = [f"{i:064x}" for i in range(1200)]
        assert store.results_among(asked) == set()
        assert store.failures_among(asked) == set()
        for digest in (asked[3], asked[700], DIGEST):
            store.put(digest, result)
        store.mark_failed(asked[1100], "boom", 1)
        store.mark_failed(OTHER, "boom", 1)
        assert store.results_among(asked) == {asked[3], asked[700]}
        assert store.failures_among(asked) == {asked[1100]}
        assert store.results_among([]) == set()


class TestLeaseProtocol:
    def test_claim_is_exclusive(self, store):
        store.enqueue(DIGEST, {})
        claim = store.claim(DIGEST, "w1", ttl_s=30.0)
        assert claim is not None and claim.worker == "w1"
        assert claim.attempts == 1
        assert store.claim(DIGEST, "w2", ttl_s=30.0) is None

    def test_claim_refused_for_terminal_jobs(self, store, result):
        store.put(DIGEST, result)
        assert store.claim(DIGEST, "w1", ttl_s=30.0) is None
        store.mark_failed(OTHER, "boom", 1)
        assert store.claim(OTHER, "w1", ttl_s=30.0) is None

    def test_renew_only_by_owner(self, store):
        store.claim(DIGEST, "w1", ttl_s=30.0)
        assert store.renew(DIGEST, "w1", ttl_s=30.0)
        assert not store.renew(DIGEST, "w2", ttl_s=30.0)
        assert not store.renew(OTHER, "w1", ttl_s=30.0)

    def test_release_guards_ownership(self, store):
        store.claim(DIGEST, "w1", ttl_s=30.0)
        with pytest.raises(LeaseError):
            store.release(DIGEST, "w2")
        store.release(DIGEST, "w1")
        # Released (not expired): a new claim succeeds, attempts carry on,
        # and a clean hand-off is not counted as a reclaim.
        claim = store.claim(DIGEST, "w2", ttl_s=30.0)
        assert claim is not None and claim.attempts == 2
        assert store.reclaim_count() == 0

    def test_expired_lease_is_reclaimed(self, store):
        first = store.claim(DIGEST, "w1", ttl_s=0.05)
        assert first is not None
        time.sleep(0.1)
        stolen = store.claim(DIGEST, "w2", ttl_s=30.0)
        assert stolen is not None and stolen.worker == "w2"
        # Attempts survive the reclaim (retry budgeting for poison jobs)
        # and the protocol records that a dead worker's lease was taken.
        assert stolen.attempts == 2
        assert store.reclaim_count() == 1

    def test_live_claims_view(self, store):
        store.claim(DIGEST, "w1", ttl_s=30.0)
        store.claim(OTHER, "w2", ttl_s=0.01)
        time.sleep(0.05)
        live = store.live_claims()
        assert [c.worker for c in live] == ["w1"]
        info = store.claim_info(DIGEST)
        assert info.worker == "w1" and info.attempts == 1

    def test_racing_claims_have_exactly_one_winner(self, store):
        store.enqueue(DIGEST, {})
        barrier = threading.Barrier(8)
        wins = []

        def contend(i):
            barrier.wait()
            claim = store.claim(DIGEST, f"w{i}", ttl_s=30.0)
            if claim is not None:
                wins.append(claim.worker)

        threads = [threading.Thread(target=contend, args=(i,))
                   for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(wins) == 1
