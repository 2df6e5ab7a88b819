"""Tests for the pluggable storage layer: backends, leases, migration."""

import json
import os
import threading
import time

import pytest

from repro.common import LeaseError, UnknownBackendError
from repro.sweep import (
    DirStorageBackend,
    ResultStore,
    SqliteStorageBackend,
    fsync_atomic_write,
    make_storage_backend,
    migrate_store,
    open_store,
    parse_store_spec,
    storage_backend_names,
)

DIGEST = "a" * 64
OTHER = "b" * 64


@pytest.fixture(params=["dir", "sqlite"])
def backend(request, tmp_path):
    if request.param == "dir":
        be = DirStorageBackend(tmp_path / "store")
    else:
        be = SqliteStorageBackend(tmp_path / "store.sqlite")
    yield be
    be.close()


class TestRegistry:
    def test_names(self):
        assert storage_backend_names() == ["dir", "sqlite"]

    def test_unknown_name_lists_registered(self, tmp_path):
        with pytest.raises(UnknownBackendError) as excinfo:
            make_storage_backend("bogus", tmp_path / "x")
        assert "dir" in str(excinfo.value)
        assert "sqlite" in str(excinfo.value)

    def test_make_by_name(self, tmp_path):
        assert isinstance(make_storage_backend("dir", tmp_path / "d"),
                          DirStorageBackend)
        sq = make_storage_backend("sqlite", tmp_path / "s.sqlite")
        assert isinstance(sq, SqliteStorageBackend)
        sq.close()


class TestParseStoreSpec:
    def test_plain_path_is_dir(self, tmp_path):
        be = parse_store_spec(str(tmp_path / "store"))
        assert isinstance(be, DirStorageBackend)

    def test_sqlite_url_forces_sqlite(self, tmp_path):
        be = parse_store_spec(f"sqlite://{tmp_path / 'x.bin'}")
        assert isinstance(be, SqliteStorageBackend)
        be.close()

    def test_sqlite_suffix_infers_sqlite(self, tmp_path):
        be = parse_store_spec(str(tmp_path / "x.sqlite"))
        assert isinstance(be, SqliteStorageBackend)
        be.close()

    def test_explicit_storage_wins(self, tmp_path):
        be = parse_store_spec(str(tmp_path / "plain"), storage="sqlite")
        assert isinstance(be, SqliteStorageBackend)
        be.close()

    def test_conflicting_url_and_storage_rejected(self, tmp_path):
        with pytest.raises(UnknownBackendError):
            parse_store_spec(f"sqlite://{tmp_path / 'x'}", storage="dir")

    def test_spec_round_trip_reopens_same_backend(self, backend):
        reopened = parse_store_spec(backend.spec)
        assert type(reopened) is type(backend)
        reopened.close()


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
    def test_result_text_round_trip(self, backend):
        assert backend.read_result(DIGEST) is None
        assert not backend.has_result(DIGEST)
        text = '{"z": 1, "a": 2}'  # deliberate non-sorted key order
        backend.write_result(DIGEST, text)
        assert backend.read_result(DIGEST) == text
        assert backend.has_result(DIGEST)
        assert list(backend.iter_result_digests()) == [DIGEST]

    def test_obs_round_trip(self, backend):
        assert backend.read_obs(DIGEST) is None
        backend.write_obs(DIGEST, '{"m": 3}')
        assert backend.read_obs(DIGEST) == '{"m": 3}'

    def test_manifest_round_trip(self, backend):
        assert backend.read_manifest() is None
        backend.write_manifest('{"total": 4}')
        assert backend.read_manifest() == '{"total": 4}'
        backend.write_manifest('{"total": 5}')
        assert backend.read_manifest() == '{"total": 5}'

    def test_trace_round_trip(self, backend):
        payload = bytes(range(256)) * 4
        assert not backend.has_trace("t1")
        with pytest.raises(FileNotFoundError):
            backend.trace_local_path("t1")
        path = backend.ensure_trace("t1", lambda fh: fh.write(payload))
        assert backend.has_trace("t1")
        assert path.read_bytes() == payload
        assert backend.trace_local_path("t1").read_bytes() == payload
        # Second ensure must not re-invoke the writer.
        again = backend.ensure_trace(
            "t1", lambda fh: (_ for _ in ()).throw(AssertionError))
        assert again.read_bytes() == payload

    def test_queue_round_trip(self, backend):
        assert backend.iter_queue() == []
        backend.enqueue(DIGEST, '{"spec": 1}')
        backend.enqueue(OTHER, '{"spec": 2}')
        backend.enqueue(DIGEST, '{"spec": 1}')  # idempotent
        assert backend.iter_queue() == sorted([DIGEST, OTHER])
        assert backend.queue_payload(DIGEST) == '{"spec": 1}'
        assert backend.queue_payload("c" * 64) is None

    def test_failure_round_trip(self, backend):
        assert backend.get_failure(DIGEST) is None
        backend.mark_failed(DIGEST, "ValueError('boom')", 3)
        failure = backend.get_failure(DIGEST)
        assert failure["error"] == "ValueError('boom')"
        assert failure["attempts"] == 3

    def test_completions_round_trip(self, backend):
        assert backend.completions() == []
        backend.record_completion(DIGEST, "w1", 1.5, 1)
        backend.record_completion(OTHER, "w2", 0.5, 2)
        rows = backend.completions()
        assert len(rows) == 2
        by_digest = {row["digest"]: row for row in rows}
        assert by_digest[DIGEST]["worker"] == "w1"
        assert by_digest[OTHER]["attempts"] == 2
        assert [row["worker"] for row in backend.completions([OTHER])] \
            == ["w2"]
        assert backend.completions(["c" * 64]) == []

    def test_lookups_among_digests(self, backend):
        """``results_among``/``failures_among`` answer for the digests
        asked about only, also for more digests than SQLite binds as
        separate query parameters."""
        asked = [f"{i:064x}" for i in range(1200)]
        assert backend.results_among(asked) == set()
        assert backend.failures_among(asked) == set()
        for digest in (asked[3], asked[700], DIGEST):
            backend.write_result(digest, "{}")
        backend.mark_failed(asked[1100], "boom", 1)
        backend.mark_failed(OTHER, "boom", 1)
        assert backend.results_among(asked) == {asked[3], asked[700]}
        assert backend.failures_among(asked) == {asked[1100]}
        assert backend.results_among([]) == set()


class TestLeaseProtocol:
    def test_claim_is_exclusive(self, backend):
        backend.enqueue(DIGEST, "{}")
        claim = backend.claim(DIGEST, "w1", ttl_s=30.0)
        assert claim is not None and claim.worker == "w1"
        assert claim.attempts == 1
        assert backend.claim(DIGEST, "w2", ttl_s=30.0) is None

    def test_claim_refused_for_terminal_jobs(self, backend):
        backend.write_result(DIGEST, "{}")
        assert backend.claim(DIGEST, "w1", ttl_s=30.0) is None
        backend.mark_failed(OTHER, "boom", 1)
        assert backend.claim(OTHER, "w1", ttl_s=30.0) is None

    def test_renew_only_by_owner(self, backend):
        backend.claim(DIGEST, "w1", ttl_s=30.0)
        assert backend.renew(DIGEST, "w1", ttl_s=30.0)
        assert not backend.renew(DIGEST, "w2", ttl_s=30.0)
        assert not backend.renew(OTHER, "w1", ttl_s=30.0)

    def test_release_guards_ownership(self, backend):
        backend.claim(DIGEST, "w1", ttl_s=30.0)
        with pytest.raises(LeaseError):
            backend.release(DIGEST, "w2")
        backend.release(DIGEST, "w1")
        # Released (not expired): a new claim succeeds, attempts carry on,
        # and a clean hand-off is not counted as a reclaim.
        claim = backend.claim(DIGEST, "w2", ttl_s=30.0)
        assert claim is not None and claim.attempts == 2
        assert backend.reclaim_count() == 0

    def test_expired_lease_is_reclaimed(self, backend):
        first = backend.claim(DIGEST, "w1", ttl_s=0.05)
        assert first is not None
        time.sleep(0.1)
        stolen = backend.claim(DIGEST, "w2", ttl_s=30.0)
        assert stolen is not None and stolen.worker == "w2"
        # Attempts survive the reclaim (retry budgeting for poison jobs)
        # and the protocol records that a dead worker's lease was taken.
        assert stolen.attempts == 2
        assert backend.reclaim_count() == 1

    def test_live_claims_view(self, backend):
        backend.claim(DIGEST, "w1", ttl_s=30.0)
        backend.claim(OTHER, "w2", ttl_s=0.01)
        time.sleep(0.05)
        live = backend.live_claims()
        assert [c.worker for c in live] == ["w1"]
        info = backend.claim_info(DIGEST)
        assert info.worker == "w1" and info.attempts == 1

    def test_racing_claims_have_exactly_one_winner(self, backend):
        backend.enqueue(DIGEST, "{}")
        barrier = threading.Barrier(8)
        wins = []

        def contend(i):
            barrier.wait()
            claim = backend.claim(DIGEST, f"w{i}", ttl_s=30.0)
            if claim is not None:
                wins.append(claim.worker)

        threads = [threading.Thread(target=contend, args=(i,))
                   for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(wins) == 1


class TestDirLayoutCompatibility:
    def test_plain_store_keeps_original_layout(self, tmp_path):
        """No queue subdirectories appear unless a distributed sweep runs."""
        store = ResultStore(tmp_path / "store")
        store.backend.write_result(DIGEST, "{}")
        store.write_manifest({"total": 1})
        entries = sorted(p.name for p in (tmp_path / "store").iterdir())
        assert entries == ["manifest.json", "results", "traces"]

    def test_open_store_passes_result_store_through(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        assert open_store(store) is store


class TestMigration:
    def _populate(self, store):
        # Deliberately unsorted keys: migration must preserve raw bytes,
        # including key order a JSON re-encode would destroy.
        store.backend.write_result(DIGEST, '{"z": 1, "a": [1, 2]}')
        store.backend.write_result(OTHER, '{"y": {"n": 0.1}}')
        store.backend.write_obs(DIGEST, '{"metrics": []}')
        store.backend.write_manifest('{"total_jobs": 2}')
        store.backend.ensure_trace(
            "gcc-s7", lambda fh: fh.write(b"\x00trace\xff" * 16))

    def _assert_identical(self, src, dst):
        assert list(dst.backend.iter_result_digests()) == \
            list(src.backend.iter_result_digests())
        for digest in src.backend.iter_result_digests():
            assert dst.backend.read_result(digest) == \
                src.backend.read_result(digest)
        assert dst.backend.read_obs(DIGEST) == src.backend.read_obs(DIGEST)
        assert dst.backend.read_manifest() == src.backend.read_manifest()
        assert dst.backend.trace_local_path("gcc-s7").read_bytes() == \
            src.backend.trace_local_path("gcc-s7").read_bytes()

    def test_dir_to_sqlite_to_dir_round_trip(self, tmp_path):
        a = ResultStore(tmp_path / "a")
        self._populate(a)
        b = open_store(f"sqlite://{tmp_path / 'b.sqlite'}")
        counts = migrate_store(a, b)
        assert counts == {"results": 2, "obs": 1, "traces": 1,
                          "manifest": 1}
        self._assert_identical(a, b)
        c = ResultStore(tmp_path / "c")
        migrate_store(b, c)
        self._assert_identical(a, c)
        b.close()

    def test_migrated_rows_load_as_results(self, tmp_path):
        """A migrated store serves cache hits exactly like the original."""
        src = ResultStore(tmp_path / "src")
        payload = json.dumps({"job": {}, "result": {"v": 1}})
        src.backend.write_result(DIGEST, payload)
        dst = open_store(str(tmp_path / "dst.sqlite"))
        migrate_store(src, dst)
        assert dst.backend.read_result(DIGEST) == payload
        dst.close()
