"""Tests for the lease-based work-queue execution path.

Covers the distributed contract end to end: queue+store parity with the
serial runner (byte-identical grids), crash recovery through lease
expiry and reclamation, worker-loop drain/resume, the job-spec wire
codec, and the CLI surface (unknown backend names, ``repro worker``).
"""

import collections
import json
import os
import pathlib
import sqlite3

import pytest

from repro.common import SweepError, UnknownBackendError, small_test_config
from repro.sim.export import grid_to_dict
from repro.sim.runner import ExperimentConfig, run_grid
from repro.sweep import (
    ProgressReporter,
    ResultStore,
    Scheduler,
    WorkQueueBackend,
    execute_job,
    execution_backend_names,
    job_meta,
    jobs_from_experiment,
    make_execution_backend,
    open_store,
    run_sweep,
    spec_from_payload,
    spec_to_payload,
    worker_loop,
)
from repro.workloads.generator import TraceGenerator

CRASH_SENTINEL_ENV = "REPRO_TEST_QUEUE_CRASH_SENTINEL"


def small_experiment(apps=("gcc", "lbm"), schemes=("Baseline", "ESD"),
                     requests=600):
    return ExperimentConfig(apps=list(apps), schemes=list(schemes),
                            requests_per_app=requests,
                            system=small_test_config(), seed=7)


def crash_once_worker(spec, trace_path):
    """Hard-kills its worker process the first time any job runs.

    ``os._exit`` skips all cleanup — no lease release, no heartbeat stop —
    which is exactly what a SIGKILL looks like to the store.
    """
    sentinel = pathlib.Path(os.environ[CRASH_SENTINEL_ENV])
    if not sentinel.exists():
        sentinel.touch()
        os._exit(1)
    return execute_job(spec, trace_path)


def always_raising_worker(spec, trace_path):
    raise ValueError("injected failure")


def grid_json(grid):
    return json.dumps(grid_to_dict(grid), sort_keys=True)


class TestSpecWireCodec:
    def test_round_trip_preserves_digest(self):
        spec = jobs_from_experiment(small_experiment())[0]
        payload = spec_to_payload(spec)
        rebuilt = spec_from_payload(json.loads(json.dumps(payload)))
        assert rebuilt == spec
        assert rebuilt.digest() == spec.digest()

    def test_tampered_payload_rejected(self):
        spec = jobs_from_experiment(small_experiment())[0]
        payload = spec_to_payload(spec)
        payload["seed"] = payload["seed"] + 1
        with pytest.raises(ValueError, match="digest mismatch"):
            spec_from_payload(payload)

    def test_wrong_schema_rejected(self):
        spec = jobs_from_experiment(small_experiment())[0]
        payload = spec_to_payload(spec)
        payload["schema"] = 999
        with pytest.raises(ValueError, match="schema"):
            spec_from_payload(payload)

    @pytest.mark.parametrize("section,cls,field", [
        ("system", "SystemConfig", "retired_switch"),
        ("engine", "EngineConfig", "retired_knob"),
    ])
    def test_unknown_config_field_rejected(self, section, cls, field):
        spec = jobs_from_experiment(small_experiment())[0]
        payload = spec_to_payload(spec)
        payload[section]["fields"][field] = True
        with pytest.raises(ValueError, match=f"{cls} has no field '{field}'"):
            spec_from_payload(payload)

    def test_removed_execution_switch_rejected(self):
        """A payload that still names the removed ``use_fastpath`` switch
        fails typed, naming the field."""
        payload = spec_to_payload(jobs_from_experiment(small_experiment())[0])
        payload["system"]["fields"]["use_fastpath"] = None
        with pytest.raises(ValueError,
                           match="SystemConfig has no field 'use_fastpath'"):
            spec_from_payload(payload)

    def test_removed_decay_mode_rejected(self):
        """A payload from a build whose ESD config still carried
        ``decay_on`` fails typed, naming the field."""
        payload = spec_to_payload(jobs_from_experiment(small_experiment())[0])
        payload["system"]["fields"]["esd"]["fields"]["decay_on"] = "ops"
        with pytest.raises(ValueError,
                           match="ESDConfig has no field 'decay_on'"):
            spec_from_payload(payload)

    @pytest.mark.parametrize("corrupt,named", [
        (lambda p: p.pop("app"), "no 'app'"),
        (lambda p: p["system"].pop("fields"), "SystemConfig payload has no "
                                              "'fields'"),
        (lambda p: p.update(requests="100"), "'requests' must be int"),
    ], ids=["missing-app", "config-without-fields", "requests-as-string"])
    def test_malformed_payload_raises_value_error(self, corrupt, named):
        """Queue payloads are outside input: a missing key or a mistyped
        field is a ValueError naming it, never a bare KeyError or
        TypeError."""
        payload = spec_to_payload(jobs_from_experiment(small_experiment())[0])
        corrupt(payload)
        with pytest.raises(ValueError, match=named):
            spec_from_payload(payload)


class TestQueueParity:
    @pytest.mark.parametrize("store_name", ["store.sqlite", "store"])
    def test_queue_grid_byte_identical_to_serial(self, tmp_path,
                                                 store_name):
        config = small_experiment()
        serial = run_grid(config)
        backend = WorkQueueBackend(lease_s=10.0, poll_s=0.05)
        queued = run_sweep(config, jobs=2,
                           store=str(tmp_path / store_name),
                           backend=backend)
        assert grid_json(serial) == grid_json(queued)
        assert list(serial) == list(queued)

    def test_queue_resumes_from_cached_rows(self, tmp_path):
        config = small_experiment(apps=["gcc"], requests=500)
        store_spec = str(tmp_path / "store.sqlite")
        run_sweep(config, jobs=2, store=store_spec,
                  backend=WorkQueueBackend(lease_s=10.0, poll_s=0.05))
        again = run_sweep(config, jobs=2, store=store_spec,
                          backend=WorkQueueBackend(lease_s=10.0,
                                                   poll_s=0.05))
        store = open_store(store_spec)
        manifest = store.read_manifest()
        store.close()
        assert manifest["cached"] == len(again)
        assert manifest["simulated"] == 0


class TestSeeding:
    def test_workers_seed_traces_coordinator_none(self, tmp_path,
                                                  monkeypatch):
        """The coordinator only publishes the queue; the workers seed
        each application's trace for the jobs they claim."""
        log = tmp_path / "generated.log"
        generate_list = TraceGenerator.generate_list

        def recording_generate_list(self, n):
            with open(log, "a") as fh:  # forked workers share the file
                fh.write(f"{os.getpid()} {self.profile.name}\n")
            return generate_list(self, n)

        monkeypatch.setattr(TraceGenerator, "generate_list",
                            recording_generate_list)
        config = small_experiment(apps=["gcc", "lbm", "mcf"])
        store_spec = str(tmp_path / "store.sqlite")
        run_sweep(config, jobs=2, store=store_spec,
                  backend=WorkQueueBackend(lease_s=10.0, poll_s=0.05))
        rows = [line.split() for line in log.read_text().splitlines()]
        assert rows and str(os.getpid()) not in {pid for pid, _ in rows}
        assert {app for _, app in rows} == set(config.apps)
        store = open_store(store_spec)
        try:
            for spec in jobs_from_experiment(config):
                assert store.has_trace(spec.trace_id)
        finally:
            store.close()


class TestPolling:
    @pytest.mark.parametrize("form", ["sqlite", "path"])
    def test_poll_reads_only_this_sweeps_rows(self, tmp_path, monkeypatch,
                                             form):
        """The coordinator looks up its own unfinished jobs and never
        lists the store's other rows, so a poll costs the same in a
        large store as in a fresh one."""
        path = tmp_path / "store.sqlite"
        store_spec = f"sqlite://{path}" if form == "sqlite" else str(path)
        config = small_experiment(apps=["gcc"], requests=400)
        old = run_grid(small_experiment(apps=["gcc"], schemes=["Baseline"],
                                        requests=300))[("gcc", "Baseline")]
        store = open_store(store_spec)
        for i in range(50):
            store.put(f"{i:064x}", old)
            store.record_completion(f"{i:064x}", "old-worker", 1.0, 1)
        store.mark_failed("f" * 64, "boom", 1)
        store.close()

        completions = ResultStore.completions

        def scoped_completions(self, digests=None):
            assert digests is not None, "listed every completion row"
            return completions(self, digests)

        def no_listing(self):
            raise AssertionError("listed every result row")

        monkeypatch.setattr(ResultStore, "completions", scoped_completions)
        monkeypatch.setattr(ResultStore, "iter_digests", no_listing)
        monkeypatch.setattr(ResultStore, "__len__", no_listing)
        reporter = ProgressReporter(2, enabled=False)
        store = open_store(store_spec)
        try:
            grid = Scheduler(store, jobs=1, reporter=reporter,
                             backend=WorkQueueBackend(lease_s=10.0,
                                                      poll_s=0.05)
                             ).run(jobs_from_experiment(config))
        finally:
            store.close()
        assert grid_json(grid) == grid_json(run_grid(config))
        assert reporter.simulated == 2 and reporter.failed == 0


class TestCrashRecovery:
    def test_killed_worker_lease_reclaimed_and_rerun_identical(
            self, tmp_path, monkeypatch):
        """A worker dying mid-job (no release, no heartbeat) costs only
        time: the lease expires, another worker reclaims the job, and the
        final grid is byte-identical to a serial run."""
        monkeypatch.setenv(CRASH_SENTINEL_ENV,
                           str(tmp_path / "crashed.sentinel"))
        config = small_experiment()
        serial = run_grid(config)
        backend = WorkQueueBackend(lease_s=1.0, poll_s=0.05)
        store = open_store(str(tmp_path / "store.sqlite"))
        scheduler = Scheduler(store, jobs=2, backend=backend,
                              worker=crash_once_worker)
        queued = scheduler.run(jobs_from_experiment(config))
        store.close()
        assert grid_json(serial) == grid_json(queued)
        store = open_store(str(tmp_path / "store.sqlite"))
        reclaims = store.reclaim_count()
        manifest = store.read_manifest()
        store.close()
        assert reclaims >= 1
        flat = manifest["obs"]["flat"]
        assert flat["sweep_lease_reclaims_total"] == reclaims
        assert flat["sweep_worker_respawns_total"] >= 1

    def test_poison_job_gets_failure_tombstone(self, tmp_path):
        """A job that fails on every attempt burns its retry budget and is
        recorded as failed instead of looping forever."""
        config = small_experiment(apps=["gcc"], schemes=["Baseline"],
                                  requests=400)
        store = open_store(str(tmp_path / "store.sqlite"))
        spec = jobs_from_experiment(config)[0]
        store.enqueue(spec.digest(), {"spec": spec_to_payload(spec)})
        completed = worker_loop(store.spec, retries=1, poll_s=0.01,
                                worker=always_raising_worker)
        assert completed == 0
        failure = store.get_failure(spec.digest())
        store.close()
        assert failure is not None
        assert failure["attempts"] == 2  # retries + 1
        assert "injected failure" in failure["error"]


class TestWorkerLoop:
    def test_standalone_worker_serves_published_queue(self, tmp_path):
        """A bare worker_loop pointed at a store with published jobs
        completes them through the same put() path as the scheduler."""
        config = small_experiment(apps=["gcc"], requests=500)
        store = open_store(str(tmp_path / "store"))
        specs = jobs_from_experiment(config)
        for spec in specs:
            store.enqueue(spec.digest(), {"spec": spec_to_payload(spec)})
        completed = worker_loop(store.spec, lease_s=10.0, poll_s=0.01,
                                worker_id="w-test")
        assert completed == len(specs)
        for spec in specs:
            assert store.get(spec.digest()) is not None
        workers = {row["worker"] for row in store.completions()}
        assert workers == {"w-test"}
        # Queue fully terminal: a second worker finds nothing to do.
        assert worker_loop(store.spec, poll_s=0.01) == 0
        store.close()

    def test_worker_results_match_pool_results(self, tmp_path):
        """Rows written by a queue worker are byte-identical to rows the
        pool scheduler writes for the same spec (shared put() path)."""
        config = small_experiment(apps=["gcc"], schemes=["ESD"],
                                  requests=500)
        spec = jobs_from_experiment(config)[0]

        pool_store = open_store(str(tmp_path / "pool"))
        run_sweep(config, jobs=1, store=pool_store)

        queue_store = open_store(str(tmp_path / "queue"))
        queue_store.enqueue(spec.digest(),
                            {"spec": spec_to_payload(spec)})
        worker_loop(queue_store.spec, poll_s=0.01)

        def row(store):
            with sqlite3.connect(store.path) as conn:
                return conn.execute(
                    "SELECT payload FROM results WHERE digest = ?",
                    (spec.digest(),)).fetchone()[0]

        assert row(queue_store) == row(pool_store)
        pool_store.close()
        queue_store.close()


class TestManifest:
    @pytest.mark.parametrize("storage", ["sqlite", None])
    def test_manifest_records_backend_storage_and_workers(self, tmp_path,
                                                          storage):
        """The manifest names the backend, the storage and the
        completing workers, whether or not the sweep passes
        ``storage="sqlite"``."""
        config = small_experiment(apps=["gcc", "lbm", "mcf"], requests=400)
        store_spec = str(tmp_path / "store")
        run_sweep(config, jobs=2, store=store_spec, storage=storage,
                  backend=WorkQueueBackend(lease_s=10.0, poll_s=0.05))
        store = open_store(store_spec)
        manifest = store.read_manifest()
        rows = store.completions()
        store.close()
        assert manifest["backend"] == "queue"
        assert manifest["storage"] == "sqlite"
        simulated = [row for row in manifest["jobs"]
                     if row["status"] == "simulated"]
        assert simulated and all(row.get("worker") for row in simulated)
        flat = manifest["obs"]["flat"]
        completed = {k.split('"')[1]: v for k, v in flat.items()
                     if k.startswith("sweep_jobs_completed_total")}
        assert sum(completed.values()) == len(simulated)
        # Each worker is credited with exactly the completion rows it
        # wrote, whatever order the backend lists them in.
        stored = collections.Counter(row["worker"] for row in rows)
        assert completed == dict(stored)

    def test_pool_manifest_unchanged_shape(self, tmp_path):
        config = small_experiment(apps=["gcc"], requests=500)
        store = open_store(str(tmp_path / "store"))
        run_sweep(config, jobs=1, store=store)
        manifest = store.read_manifest()
        store.close()
        assert manifest["backend"] == "pool"
        assert manifest["storage"] == "sqlite"
        assert "obs" not in manifest  # the pool keeps no fleet metrics
        assert all("worker" not in row for row in manifest["jobs"])


class TestBackendRegistry:
    def test_names(self):
        assert execution_backend_names() == ["pool", "queue"]

    def test_unknown_backend_lists_registered(self):
        with pytest.raises(UnknownBackendError) as excinfo:
            make_execution_backend("bogus")
        assert "pool" in str(excinfo.value)
        assert "queue" in str(excinfo.value)

    def test_run_sweep_rejects_unknown_backend(self, tmp_path):
        with pytest.raises(SweepError):
            run_sweep(small_experiment(), jobs=1,
                      store=str(tmp_path / "s"), backend="bogus")


class TestCli:
    def test_sweep_unknown_backend_exits_with_names(self, tmp_path):
        from repro.cli import main
        with pytest.raises(SystemExit) as excinfo:
            main(["sweep", "--apps", "gcc", "--schemes", "Baseline",
                  "--requests", "300", "--backend", "bogus",
                  "--store", str(tmp_path / "s")])
        assert "pool" in str(excinfo.value)
        assert "queue" in str(excinfo.value)

    @pytest.mark.parametrize("command", ["sweep", "worker"])
    def test_storage_flag_removed(self, tmp_path, command):
        from repro.cli import build_parser
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args([command, "--storage", "sqlite",
                                       "--store", str(tmp_path / "s")])
        assert excinfo.value.code == 2

    @pytest.mark.parametrize("command", ["sweep", "worker"])
    def test_directory_store_exits_naming_the_removal(self, tmp_path,
                                                      command):
        from repro.cli import main
        (tmp_path / "old" / "results").mkdir(parents=True)
        argv = [command, "--store", str(tmp_path / "old"), "--quiet"]
        if command == "sweep":
            argv += ["--apps", "gcc", "--schemes", "Baseline",
                     "--requests", "300", "--jobs", "1"]
        with pytest.raises(SystemExit, match="directory store layout"):
            main(argv)
        assert [p.name for p in (tmp_path / "old").iterdir()] == ["results"]

    def test_queue_backend_requires_store(self):
        from repro.cli import main
        with pytest.raises(SystemExit, match="--store"):
            main(["sweep", "--apps", "gcc", "--schemes", "Baseline",
                  "--requests", "300", "--backend", "queue"])

    def test_worker_command_serves_queue(self, tmp_path, capsys):
        from repro.cli import main
        config = small_experiment(apps=["gcc"], schemes=["Baseline"],
                                  requests=400)
        store = open_store(str(tmp_path / "store.sqlite"))
        spec = jobs_from_experiment(config)[0]
        store.enqueue(spec.digest(), {"spec": spec_to_payload(spec)})
        rc = main(["worker", "--store", store.spec, "--quiet",
                   "--poll", "0.01"])
        assert rc == 0
        assert "1 job(s) completed" in capsys.readouterr().out
        assert store.get(spec.digest()) is not None
        store.close()
