"""Tests for the sweep scheduler: parity, resume, retry, progress."""

import concurrent.futures
import io
import json
import os
import pathlib
import time

import pytest

from repro.common import SweepError, small_test_config
from repro.sim.export import grid_to_dict
from repro.sim.runner import ExperimentConfig, run_grid
from repro.sweep import (
    JobSpec,
    ProgressReporter,
    ResultStore,
    Scheduler,
    backends,
    execute_job,
    jobs_from_experiment,
    run_sweep,
)
from repro.workloads.generator import TraceGenerator

#: Sentinel path used by the crash-once worker (set per test).
CRASH_SENTINEL_ENV = "REPRO_TEST_CRASH_SENTINEL"
FAIL_COUNT_ENV = "REPRO_TEST_FAIL_DIR"


def small_experiment(apps=("gcc", "lbm"), schemes=("Baseline", "ESD"),
                     requests=900):
    return ExperimentConfig(apps=list(apps), schemes=list(schemes),
                            requests_per_app=requests,
                            system=small_test_config(), seed=7)


def crash_once_worker(spec, trace_path):
    """Hard-kills its worker process the first time any job runs."""
    sentinel = pathlib.Path(os.environ[CRASH_SENTINEL_ENV])
    if not sentinel.exists():
        sentinel.touch()
        os._exit(1)
    return execute_job(spec, trace_path)


def always_raising_worker(spec, trace_path):
    raise ValueError("injected failure")


def sleeping_worker(spec, trace_path):
    time.sleep(30.0)
    return execute_job(spec, trace_path)


def counting_worker(spec, trace_path):
    """Drops a marker file per simulated cell, then runs normally."""
    marker_dir = pathlib.Path(os.environ[FAIL_COUNT_ENV])
    (marker_dir / f"{spec.app}-{spec.scheme}").touch()
    return execute_job(spec, trace_path)


def keyboard_interrupt_worker(spec, trace_path):
    """Simulates Ctrl-C arriving while a job is in flight."""
    raise KeyboardInterrupt


class TestDuplicateCells:
    def test_repeated_cell_rejected_on_fresh_store(self, tmp_path):
        """A repeated (app, scheme) is refused before anything runs, not
        only when the first copy happens to be cached already."""
        system = small_test_config()
        specs = [JobSpec(app="gcc", scheme="Baseline", requests=requests,
                         seed=7, system=system) for requests in (200, 300)]
        store = ResultStore(tmp_path / "store")
        with pytest.raises(SweepError,
                           match="duplicate grid cell gcc/Baseline"):
            Scheduler(store, jobs=1).run(specs)
        assert list(store.iter_digests()) == []


@pytest.fixture
def seed_events(monkeypatch):
    """Orders seeding against the pool without sleeping.

    Every trace seed first waits for the jobs already submitted to the
    pool to finish (a test failure if they take over a minute), so the
    order of seeds and stored results is fixed by the code under test,
    not by machine speed.  Returns the ``("seeded" | "stored", app)``
    events in the order they happened.
    """
    events = []
    submitted = []
    generate_list = TraceGenerator.generate_list
    put = ResultStore.put

    class RecordingPool(concurrent.futures.ProcessPoolExecutor):
        def submit(self, fn, /, *args, **kwargs):
            future = super().submit(fn, *args, **kwargs)
            submitted.append(future)
            return future

    def waiting_generate_list(self, n):
        _, running = concurrent.futures.wait(submitted, timeout=60.0)
        assert not running, "submitted jobs did not finish within 60 s"
        trace = generate_list(self, n)
        events.append(("seeded", self.profile.name))
        return trace

    def recording_put(self, digest, result, job=None):
        events.append(("stored", job["app"]))
        return put(self, digest, result, job)

    monkeypatch.setattr(backends, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(TraceGenerator, "generate_list",
                        waiting_generate_list)
    monkeypatch.setattr(ResultStore, "put", recording_put)
    return events


class TestSeedOnFirstUse:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_first_result_stored_before_last_trace_seeded(
            self, tmp_path, seed_events, jobs):
        """The pool seeds an application's trace just before submitting
        its jobs, so the first result lands while later traces are still
        being generated."""
        config = small_experiment(apps=["gcc", "lbm", "mcf"],
                                  schemes=["Baseline"], requests=300)
        grid = run_sweep(config, jobs=jobs, store=tmp_path / "store")
        assert len(grid) == 3
        seeded = [app for kind, app in seed_events if kind == "seeded"]
        assert seeded == ["gcc", "lbm", "mcf"]
        first_stored = next(i for i, (kind, _) in enumerate(seed_events)
                            if kind == "stored")
        assert first_stored < seed_events.index(("seeded", "mcf"))


class TestParity:
    def test_parallel_grid_byte_identical_to_serial(self, tmp_path):
        config = small_experiment()
        serial = run_grid(config)
        parallel = run_sweep(config, jobs=4, store=tmp_path / "store")
        a = json.dumps(grid_to_dict(serial), sort_keys=True)
        b = json.dumps(grid_to_dict(parallel), sort_keys=True)
        assert a == b
        assert list(serial) == list(parallel)

    def test_cached_grid_byte_identical_to_serial(self, tmp_path):
        config = small_experiment(apps=["gcc"], requests=700)
        serial = run_grid(config)
        run_sweep(config, jobs=2, store=tmp_path / "store")
        cached = run_sweep(config, jobs=2, store=tmp_path / "store")
        assert json.dumps(grid_to_dict(serial), sort_keys=True) \
            == json.dumps(grid_to_dict(cached), sort_keys=True)

    def test_in_process_path_matches_pool_path(self, tmp_path):
        config = small_experiment(apps=["gcc"], requests=700)
        one = run_sweep(config, jobs=1, store=tmp_path / "a")
        many = run_sweep(config, jobs=3, store=tmp_path / "b")
        assert json.dumps(grid_to_dict(one), sort_keys=True) \
            == json.dumps(grid_to_dict(many), sort_keys=True)


class TestCaching:
    def test_second_run_simulates_nothing(self, tmp_path):
        config = small_experiment(requests=600)
        store = tmp_path / "store"
        reporter1 = ProgressReporter(4, enabled=False)
        run_sweep(config, jobs=1, store=store, reporter=reporter1)
        assert reporter1.simulated == 4 and reporter1.cached == 0

        marker_dir = tmp_path / "markers"
        marker_dir.mkdir()
        os.environ[FAIL_COUNT_ENV] = str(marker_dir)
        try:
            reporter2 = ProgressReporter(4, enabled=False)
            specs = jobs_from_experiment(config)
            scheduler = Scheduler(ResultStore(store), jobs=1,
                                  reporter=reporter2, worker=counting_worker)
            scheduler.run(specs)
        finally:
            del os.environ[FAIL_COUNT_ENV]
        assert reporter2.cached == 4 and reporter2.simulated == 0
        assert list(marker_dir.iterdir()) == []  # zero simulations re-run

    def test_interrupted_sweep_resumes_without_recompute(self, tmp_path):
        """Completing half the grid then rerunning simulates only the rest."""
        config = small_experiment(requests=600)
        store = ResultStore(tmp_path / "store")
        specs = jobs_from_experiment(config)
        # "Interrupt": only the first two cells finished before the kill.
        Scheduler(store, jobs=1).run(specs[:2])

        marker_dir = tmp_path / "markers"
        marker_dir.mkdir()
        os.environ[FAIL_COUNT_ENV] = str(marker_dir)
        try:
            reporter = ProgressReporter(4, enabled=False)
            Scheduler(store, jobs=1, reporter=reporter,
                      worker=counting_worker).run(specs)
        finally:
            del os.environ[FAIL_COUNT_ENV]
        assert reporter.cached == 2 and reporter.simulated == 2
        simulated = {p.name for p in marker_dir.iterdir()}
        assert simulated == {f"{s.app}-{s.scheme}" for s in specs[2:]}

    def test_config_change_invalidates_cache(self, tmp_path):
        store = tmp_path / "store"
        run_sweep(small_experiment(apps=["gcc"], requests=600),
                  jobs=1, store=store)
        reporter = ProgressReporter(2, enabled=False)
        run_sweep(small_experiment(apps=["gcc"], requests=601),
                  jobs=1, store=store, reporter=reporter)
        assert reporter.simulated == 2 and reporter.cached == 0


class TestFailureHandling:
    def test_worker_crash_is_retried_and_recovers(self, tmp_path):
        config = small_experiment(apps=["gcc"], schemes=["Baseline"],
                                  requests=600)
        os.environ[CRASH_SENTINEL_ENV] = str(tmp_path / "crashed")
        try:
            reporter = ProgressReporter(1, enabled=False)
            scheduler = Scheduler(ResultStore(tmp_path / "store"), jobs=2,
                                  retries=2, reporter=reporter,
                                  worker=crash_once_worker)
            grid = scheduler.run(jobs_from_experiment(config))
        finally:
            del os.environ[CRASH_SENTINEL_ENV]
        assert ("gcc", "Baseline") in grid
        assert reporter.retries >= 1
        assert reporter.simulated == 1

    def test_worker_crash_while_next_app_seeds_is_retried(
            self, tmp_path, monkeypatch, seed_events):
        """A worker that dies while the coordinator seeds the next
        application breaks the pool before that application's jobs are
        submitted.  They move to a fresh pool without spending an
        attempt, and the crashed job is retried there."""
        monkeypatch.setenv(CRASH_SENTINEL_ENV, str(tmp_path / "crashed"))
        config = small_experiment(apps=["gcc", "lbm", "mcf"],
                                  schemes=["Baseline"], requests=300)
        reporter = ProgressReporter(3, enabled=False)
        scheduler = Scheduler(ResultStore(tmp_path / "store"), jobs=2,
                              retries=2, reporter=reporter,
                              worker=crash_once_worker)
        grid = scheduler.run(jobs_from_experiment(config))
        assert list(grid) == [(app, "Baseline")
                              for app in ("gcc", "lbm", "mcf")]
        # lbm's seed waits until the crash has failed gcc's job, so lbm
        # meets the broken pool at submit; only gcc spends an attempt.
        assert reporter.retries == 1
        assert reporter.simulated == 3 and reporter.failed == 0

    def test_persistent_failure_raises_sweep_error(self, tmp_path):
        config = small_experiment(apps=["gcc"], schemes=["Baseline"],
                                  requests=600)
        reporter = ProgressReporter(1, enabled=False)
        scheduler = Scheduler(ResultStore(tmp_path / "store"), jobs=1,
                              retries=1, reporter=reporter,
                              worker=always_raising_worker)
        with pytest.raises(SweepError, match="gcc/Baseline"):
            scheduler.run(jobs_from_experiment(config))
        assert reporter.failed == 1
        assert reporter.retries == 1  # one retry, then terminal failure

    def test_job_timeout_fails_the_job(self, tmp_path):
        config = small_experiment(apps=["gcc"], schemes=["Baseline"],
                                  requests=600)
        scheduler = Scheduler(ResultStore(tmp_path / "store"), jobs=2,
                              retries=0, job_timeout_s=0.3,
                              worker=sleeping_worker)
        started = time.monotonic()
        with pytest.raises(SweepError):
            scheduler.run(jobs_from_experiment(config))
        assert time.monotonic() - started < 20.0

    def test_scheduler_rejects_bad_knobs(self):
        with pytest.raises(ValueError):
            Scheduler(jobs=0)
        with pytest.raises(ValueError):
            Scheduler(job_timeout_s=0)
        with pytest.raises(ValueError):
            Scheduler(retries=-1)


class TestKeyboardInterrupt:
    def test_serial_interrupt_flushes_and_marks_manifest(self, tmp_path):
        """Ctrl-C mid-sweep keeps finished rows and marks the manifest."""
        config = small_experiment(requests=600)  # 4 cells
        store = ResultStore(tmp_path / "store")
        specs = jobs_from_experiment(config)

        calls = []

        def interrupt_on_second(spec, trace_path):
            calls.append(spec.key)
            if len(calls) == 2:
                raise KeyboardInterrupt
            return execute_job(spec, trace_path)

        scheduler = Scheduler(store, jobs=1, worker=interrupt_on_second)
        with pytest.raises(KeyboardInterrupt):
            scheduler.run(specs)

        manifest = store.read_manifest()
        assert manifest["interrupted"] is True
        # The completed first cell survived the interrupt.
        assert len(list(store.iter_digests())) == 1

    def test_interrupted_sweep_resumes_from_flushed_rows(self, tmp_path):
        config = small_experiment(requests=600)
        store = ResultStore(tmp_path / "store")
        specs = jobs_from_experiment(config)

        calls = []

        def interrupt_on_second(spec, trace_path):
            calls.append(spec.key)
            if len(calls) == 2:
                raise KeyboardInterrupt
            return execute_job(spec, trace_path)

        with pytest.raises(KeyboardInterrupt):
            Scheduler(store, jobs=1, worker=interrupt_on_second).run(specs)

        reporter = ProgressReporter(len(specs), enabled=False)
        grid = Scheduler(store, jobs=1, reporter=reporter).run(specs)
        assert len(grid) == 4
        assert reporter.cached == 1  # the pre-interrupt cell
        manifest = store.read_manifest()
        assert "interrupted" not in manifest  # clean completion clears it

    def test_pool_interrupt_terminates_workers_promptly(self, tmp_path):
        config = small_experiment(apps=["gcc"],
                                  schemes=["Baseline", "ESD"],
                                  requests=600)
        store = ResultStore(tmp_path / "store")
        scheduler = Scheduler(store, jobs=2,
                              worker=keyboard_interrupt_worker)
        started = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            scheduler.run(jobs_from_experiment(config))
        # Graceful teardown, not a hang waiting for the pool join.
        assert time.monotonic() - started < 30.0
        assert store.read_manifest()["interrupted"] is True


class TestProgressAndManifest:
    def test_manifest_written_to_store(self, tmp_path):
        config = small_experiment(requests=600)
        store = tmp_path / "store"
        run_sweep(config, jobs=1, store=store)
        manifest = ResultStore(store).read_manifest()
        assert manifest["total_jobs"] == 4
        assert manifest["simulated"] == 4
        assert manifest["failed"] == 0
        assert len(manifest["jobs"]) == 4
        row = manifest["jobs"][0]
        assert {"app", "scheme", "digest", "status", "attempts",
                "duration_s", "error"} <= set(row)
        assert row["status"] == "simulated"

    def test_progress_lines_and_eta(self):
        fake_now = [0.0]
        stream = io.StringIO()
        reporter = ProgressReporter(4, stream=stream, interval_s=0.0,
                                    clock=lambda: fake_now[0])
        spec = jobs_from_experiment(small_experiment())[0]
        reporter.job_done(spec, "cached")
        assert reporter.eta_s() is None  # cache hits carry no rate signal
        fake_now[0] = 2.0
        reporter.job_done(spec, "simulated", duration_s=2.0)
        assert reporter.eta_s() == pytest.approx(2.0 / 1 * 2)
        reporter.finish()
        out = stream.getvalue()
        assert "[sweep] 1/4 done (1 cached)" in out
        assert "eta" in out
        assert "finished: 1 simulated, 1 cached, 0 failed" in out

    def test_ephemeral_store_runs_without_persistence(self):
        config = small_experiment(apps=["gcc"], schemes=["Baseline"],
                                  requests=600)
        grid = run_sweep(config, jobs=1)
        assert ("gcc", "Baseline") in grid
