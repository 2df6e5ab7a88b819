"""Multi-process serve tests (ISSUE 9): affinity, parity, crash, knobs.

Parity basis is *stronger* than the in-process server's: each worker
process owns its own process-global memo caches, so sessions on
distinct workers never share caches — even concurrent tenants compare
full-state bit-exact against direct runs, no ``_comparable`` strip
needed (tenants are chosen to land on distinct workers via the same
stable hash the server uses).

Crash containment is the robustness half of the perf story: SIGKILL one
worker mid-feed and its sessions must fail with the typed
``WorkerCrashError`` (wire code ``worker_crash``), other tenants finish
bit-exact, and the pool respawns back to N workers.
"""

import asyncio
import os
import re
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.common.errors import ConfigError, ServeError, WorkerCrashError
from repro.registry import make_scheme
from repro.serve import BackgroundServer, ServeClient, ServeConfig
from repro.serve.config import MAX_WORKERS, resolve_workers
from repro.serve.pool import worker_for_tenant
from repro.sim.engine import EngineConfig, SimulationEngine
from repro.sim.export import result_to_state
from repro.sim.runner import scaled_system_config
from repro.workloads.generator import TraceGenerator

REPO = Path(__file__).resolve().parent.parent


def _trace(app: str, n: int, seed: int):
    return TraceGenerator(app, seed=seed).generate_list(n)


def _direct_state(scheme_name: str, trace, app: str, options=None):
    config = scaled_system_config()
    if options:
        config = config.with_options(options)
    engine = SimulationEngine(make_scheme(scheme_name, config),
                              EngineConfig())
    return result_to_state(engine.run(iter(trace), app=app,
                                      total_hint=len(trace)))


def _tenant_on_worker(worker: int, workers: int, prefix: str = "t") -> str:
    """A tenant label the stable hash routes to the given worker."""
    for i in range(10_000):
        tenant = f"{prefix}{i}"
        if worker_for_tenant(tenant, workers) == worker:
            return tenant
    raise AssertionError("no tenant found (hash degenerate?)")


# ---------------------------------------------------------------------------
# Affinity
# ---------------------------------------------------------------------------

def test_affinity_is_stable_and_covers_all_workers():
    # Deterministic across calls (sha256, not the salted builtin hash).
    assert worker_for_tenant("alice", 4) == worker_for_tenant("alice", 4)
    for workers in (1, 2, 3, 8):
        hits = {worker_for_tenant(f"tenant-{i}", workers)
                for i in range(256)}
        assert hits == set(range(workers))


# ---------------------------------------------------------------------------
# Worker-count validation (satellite: --workers / REPRO_SERVE_WORKERS)
# ---------------------------------------------------------------------------

def test_resolve_workers_rejects_out_of_range_values():
    for bad in (0, -1, MAX_WORKERS + 1):
        with pytest.raises(ConfigError) as excinfo:
            resolve_workers(bad)
        assert f"1..{MAX_WORKERS}" in str(excinfo.value)


def test_resolve_workers_env_fallback(monkeypatch):
    monkeypatch.delenv("REPRO_SERVE_WORKERS", raising=False)
    assert resolve_workers() == 1
    monkeypatch.setenv("REPRO_SERVE_WORKERS", "3")
    assert resolve_workers() == 3
    assert resolve_workers(2) == 2  # the flag wins over the environment
    monkeypatch.setenv("REPRO_SERVE_WORKERS", "not-a-number")
    with pytest.raises(ConfigError) as excinfo:
        resolve_workers()
    assert f"1..{MAX_WORKERS}" in str(excinfo.value)


def test_serve_config_rejects_bad_worker_count():
    with pytest.raises(ConfigError) as excinfo:
        ServeConfig(workers=0)
    assert f"1..{MAX_WORKERS}" in str(excinfo.value)
    with pytest.raises(ConfigError):
        ServeConfig(worker_inflight=0)


def test_cli_rejects_bad_worker_count():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    proc = subprocess.run(
        [sys.executable, "-m", "repro.cli", "serve", "--workers", "0"],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode != 0
    assert f"1..{MAX_WORKERS}" in proc.stderr


# ---------------------------------------------------------------------------
# Parity
# ---------------------------------------------------------------------------

def test_mp_single_session_full_bit_parity():
    """One session through a 2-worker server: full state bit-exact."""
    trace = _trace("gcc", 3000, 41)
    with BackgroundServer(ServeConfig(workers=2)) as server:
        with ServeClient("127.0.0.1", server.port) as client:
            payload = client.run_trace(iter(trace), "ESD", app="gcc",
                                       total_hint=len(trace))
            flat = client.metrics()["flat"]
    assert payload["state"] == _direct_state("ESD", trace, "gcc")
    assert server.drained_clean is True
    # Aggregated metrics span parent and workers.
    assert flat["serve_workers_alive"] == 2
    opened = sum(v for k, v in flat.items()
                 if k.startswith("serve_worker_sessions_opened_total"))
    assert opened == 1


def test_mp_concurrent_distinct_worker_tenants_full_parity():
    """Tenants pinned to distinct workers stream concurrently and still
    compare full-state bit-exact — stronger than the threaded server,
    whose sessions share one process's memo caches."""
    workers = 3
    tenants = [
        (_tenant_on_worker(0, workers, "w0-"), "ESD", "gcc", 3000, 13),
        (_tenant_on_worker(1, workers, "w1-"), "Baseline", "lbm", 2500, 17),
        (_tenant_on_worker(2, workers, "w2-"), "DeWrite", "deepsjeng",
         2500, 19),
    ]
    traces = {t[0]: _trace(t[2], t[3], t[4]) for t in tenants}
    payloads = {}
    errors = []

    with BackgroundServer(ServeConfig(workers=workers)) as server:

        def _drive(tenant, scheme, app):
            try:
                with ServeClient("127.0.0.1", server.port) as client:
                    payloads[tenant] = client.run_trace(
                        iter(traces[tenant]), scheme, tenant=tenant,
                        app=app, total_hint=len(traces[tenant]),
                        batch_size=256)
            except Exception as exc:  # pragma: no cover - surfaced below
                errors.append((tenant, exc))

        threads = [threading.Thread(target=_drive, args=(t[0], t[1], t[2]))
                   for t in tenants]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=300)

    assert not errors, errors
    assert server.drained_clean is True
    for tenant, scheme, app, _n, _seed in tenants:
        expected = _direct_state(scheme, traces[tenant], app)
        assert payloads[tenant]["state"] == expected, tenant


# ---------------------------------------------------------------------------
# Crash containment and respawn
# ---------------------------------------------------------------------------

def test_worker_crash_fails_only_its_sessions_and_pool_respawns():
    workers = 2
    victim_tenant = _tenant_on_worker(0, workers, "victim-")
    safe_tenant = _tenant_on_worker(1, workers, "safe-")
    victim_trace = _trace("gcc", 6000, 53)
    safe_trace = _trace("lbm", 3000, 59)

    with BackgroundServer(ServeConfig(workers=workers)) as server:
        assert server.server is not None
        pool = server.server.manager.pool
        assert pool is not None

        victim = ServeClient("127.0.0.1", server.port)
        victim.open_session("ESD", tenant=victim_tenant, app="gcc",
                            total_hint=len(victim_trace))
        victim.stream(victim_trace[:2000], batch_size=500)

        safe = ServeClient("127.0.0.1", server.port)
        safe.open_session("Baseline", tenant=safe_tenant, app="lbm",
                          total_hint=len(safe_trace))
        safe.stream(safe_trace[:1000], batch_size=500)

        # SIGKILL the victim's worker mid-stream.
        os.kill(pool.pids()[0], signal.SIGKILL)

        with pytest.raises(WorkerCrashError) as excinfo:
            victim.stream(victim_trace[2000:], batch_size=500)
            victim.finalize()
        assert excinfo.value.code == "worker_crash"
        victim.close()

        # The other tenant's stream finishes bit-exact.
        safe.stream(safe_trace[1000:], batch_size=500)
        safe_payload = safe.finalize()
        safe.close()
        assert safe_payload["state"] == _direct_state(
            "Baseline", safe_trace, "lbm")

        # The pool respawns back to N workers...
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline and pool.alive_count() < workers:
            time.sleep(0.05)
        assert pool.alive_count() == workers

        # ...and the crashed tenant can open a fresh session on the
        # respawned worker and run to a bit-exact result.
        with ServeClient("127.0.0.1", server.port) as again:
            retry = again.run_trace(
                iter(victim_trace), "ESD", tenant=victim_tenant, app="gcc",
                total_hint=len(victim_trace))
            flat = again.metrics()["flat"]
        assert retry["state"] == _direct_state("ESD", victim_trace, "gcc")
        assert flat["serve_worker_respawns_total"] == 1
        assert flat["serve_workers_alive"] == workers

    assert server.drained_clean is True


def test_unpicklable_request_fails_alone():
    """A request the pool cannot pickle fails with ``bad_request``; the
    worker's writer thread survives and serves the next session."""
    tenant = _tenant_on_worker(0, 2, "pickle-")
    trace = _trace("gcc", 600, 61)
    with BackgroundServer(ServeConfig(workers=2)) as server:
        assert server.server is not None
        pool = server.server.manager.pool
        assert pool is not None
        sent = asyncio.run_coroutine_threadsafe(
            pool.request(0, ("metrics", lambda: None)), server._loop)
        with pytest.raises(ServeError) as excinfo:
            sent.result(timeout=60)
        assert excinfo.value.code == "bad_request"
        with ServeClient("127.0.0.1", server.port) as client:
            payload = client.run_trace(iter(trace), "ESD", tenant=tenant,
                                       app="gcc", total_hint=len(trace))
        assert payload["state"] == _direct_state("ESD", trace, "gcc")


# ---------------------------------------------------------------------------
# CLI end-to-end at --workers (drain through SIGTERM)
# ---------------------------------------------------------------------------

def test_cli_serve_multiprocess_drains_clean():
    trace = _trace("gcc", 3000, 61)
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
         "--workers", "2", "--drain-grace", "60"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, text=True)
    try:
        assert proc.stdout is not None
        line = proc.stdout.readline()
        match = re.match(r"serving on .*:(\d+)", line)
        assert match, f"unexpected announce line: {line!r}"
        port = int(match.group(1))
        with ServeClient("127.0.0.1", port) as client:
            payload = client.run_trace(iter(trace), "ESD", app="gcc",
                                       total_hint=len(trace))
        proc.send_signal(signal.SIGTERM)
        out, err = proc.communicate(timeout=120)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    assert proc.returncode == 0, (out, err)
    assert "drained clean" in out
    assert payload["state"] == _direct_state("ESD", trace, "gcc")
