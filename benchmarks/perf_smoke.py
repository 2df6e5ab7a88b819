#!/usr/bin/env python3
"""Performance smoke benchmark for the host-CPU fast paths.

Produces the committed ``BENCH_perf_smoke.json`` artifact with four
sections:

* **grid** — end-to-end timing of the 3-app x 4-scheme evaluation grid
  on the simulator's one execution path (``repro.perf`` memo caches in
  front of the scalar kernels); medians over rounds.  Its results
  are gated elsewhere: ``tests/test_perf_parity.py`` pins the digests of
  these 12 cells and of all eight schemes' whole runs.
* **long_trace** — serialization of a long request trace: one v2
  write-and-read round trip per round, timed, with equality of the
  decode to the source requests gated.  This is the hot path the memo
  caches could not move (1.03x).
* **streaming_capture** — peak-RSS contrast (``ru_maxrss`` in a fresh
  subprocess per strategy) of streaming a ≥200k-record generator into
  the chunked v2 trace writer vs materializing the full request list
  first.  Report-only: it documents that capture memory is bounded by
  the chunk size, not the trace length.
* **kernels** — per-kernel micro-benchmarks of each memoized kernel
  against its uncached form, over a content-local working set (a small
  set of distinct lines cycled many times, the locality regime the memo
  caches are designed for).
* **serve_throughput** — requests/sec streaming one trace through the
  :mod:`repro.serve` loopback server vs the same trace run directly
  (report-only; the serve parity hard gate is ``serve_smoke.py``).
* **serve_mp_throughput** — the multi-process serve back end: the full
  scheme roster served through a 3-worker pool with full bit-exactness
  gated, plus aggregate multi-tenant req/s at ``workers=1`` vs
  ``workers=4`` (report-only — the scaling ratio is meaningful only on
  hosts with ≥ 4 free cores; ``cpu_count`` is recorded alongside).
* **sweep_throughput** — jobs/sec for every (execution, storage) backend
  pair of the sweep layer (pool/queue, each on the one SQLite store).
  Timings are report-only; each pair's byte-identity to the serial
  reference grid is a hard gate (the distributed fault-injection gate
  is ``sweep_distributed_smoke.py``).

Besides overwriting the full report, each run appends one compact,
timestamped, schema-versioned entry (headline medians plus the gate
booleans) to the ``BENCH_history.json`` trajectory file, so performance
across commits is a curve, not a single overwritten point.

CPU seconds (``time.process_time``) are the primary metric; wall-clock is
reported alongside but is noisy on shared machines, so CI gates only on
the parity/identity booleans — timings are report-only.

Usage::

    PYTHONPATH=src python benchmarks/perf_smoke.py --quick
    PYTHONPATH=src python benchmarks/perf_smoke.py --output BENCH_perf_smoke.json

Exit status: 0 on success, 2 when the long-trace decode differs from
its source requests, a multi-process served session diverges from its
direct run, or
a sweep backend pair diverges from the serial grid (correctness
regressions, never acceptable).
"""

from __future__ import annotations

import argparse
import io
import json
import platform
import random
import statistics
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence

try:
    import repro  # noqa: F401
except ImportError:  # running from a checkout without PYTHONPATH=src
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.common.types import CACHE_LINE_SIZE
from repro.crypto.counter_mode import _derive_pad, _derive_pad_uncached
from repro.crypto.fingerprints import make_engine
from repro.ecc.codec import (
    decode_line,
    decode_line_uncached,
    line_ecc,
    line_ecc_uncached,
)
from repro.perf import reset_caches
from repro.registry import registered_scheme_names
from repro.sim.runner import ExperimentConfig, run_grid, scaled_system_config
from repro.workloads.generator import TraceGenerator
from repro.workloads.profiles import get_profile
from repro.workloads.trace import read_trace_list, write_trace

# The reference grid: the paper's three most content-diverse SPEC apps
# against all four evaluated schemes, on a fixed seed so the trace --- and
# therefore every summary metric --- is deterministic.
GRID_APPS = ("gcc", "deepsjeng", "lbm")
GRID_SCHEMES = ("Baseline", "Dedup_SHA1", "DeWrite", "ESD")
GRID_SEED = 7

#: Distinct line contents in the kernel working set.  Small relative to the
#: cycle count, mirroring the content locality of real write streams.
KERNEL_DISTINCT_LINES = 64


# ----------------------------------------------------------------------
# Grid benchmark
# ----------------------------------------------------------------------

def bench_grid(requests: int, rounds: int) -> Dict:
    """Time the grid ``rounds`` times; medians of CPU and wall seconds."""
    config = ExperimentConfig(apps=list(GRID_APPS),
                              schemes=list(GRID_SCHEMES),
                              requests_per_app=requests, seed=GRID_SEED)
    round_records: List[Dict[str, float]] = []
    for _ in range(rounds):
        wall0 = time.perf_counter()
        cpu0 = time.process_time()
        run_grid(config)
        round_records.append({"cpu_s": time.process_time() - cpu0,
                              "wall_s": time.perf_counter() - wall0})
    return {
        "apps": list(GRID_APPS),
        "schemes": list(GRID_SCHEMES),
        "seed": GRID_SEED,
        "requests_per_app": requests,
        "jobs": 1,  # timed serially; parallel timing would measure the pool
        "rounds": round_records,
        "median_cpu_s": statistics.median(r["cpu_s"] for r in round_records),
        "median_wall_s": statistics.median(
            r["wall_s"] for r in round_records),
    }


# ----------------------------------------------------------------------
# The long-trace round
# ----------------------------------------------------------------------

def _roundtrip(requests: List) -> List:
    """Write ``requests`` as a v2 trace in memory and read it back."""
    buffer = io.BytesIO()
    write_trace(requests, buffer)
    buffer.seek(0)
    return read_trace_list(buffer)


def bench_long_trace(records: int, rounds: int) -> Dict:
    """Long-trace serialization: one v2 write-and-read round trip a round.

    The identity check (the decode equals the source requests) runs
    once, outside the timed rounds, and each round's reread is dropped
    before the next runs: the garbage collector's traversals scale with
    the live-object population, so a reread kept alive would tax the
    rounds after it.  CPU seconds are primary.  Deserialization's floor
    is one Python object per record, and the medians recorded here are
    honest measurements, not targets.
    """
    requests = TraceGenerator(get_profile(GRID_APPS[0]),
                              seed=GRID_SEED).generate_list(records)
    identical = _roundtrip(requests) == requests
    round_records = []
    for _ in range(rounds):
        cpu0 = time.process_time()
        reread = _roundtrip(requests)
        cpu_s = time.process_time() - cpu0
        assert len(reread) == records
        del reread
        round_records.append({"cpu_s": cpu_s})
    return {
        "app": GRID_APPS[0],
        "records": records,
        "rounds": round_records,
        "median_cpu_s": statistics.median(
            r["cpu_s"] for r in round_records),
        "roundtrip_identical": identical,
    }


# ----------------------------------------------------------------------
# Streaming capture memory footprint
# ----------------------------------------------------------------------

#: Child script timed/measured in a fresh interpreter so ``ru_maxrss``
#: reflects exactly one capture strategy.  ``mode`` is "streaming"
#: (generator straight into the chunked v2 writer) or "materialized"
#: (full request list built first, as the pre-v2 path had to).
_CAPTURE_CHILD = """
import json, resource, sys, time
mode, records, out, src = (sys.argv[1], int(sys.argv[2]), sys.argv[3],
                           sys.argv[4])
sys.path.insert(0, src)
from repro.workloads.generator import TraceGenerator
from repro.workloads.trace import capture_trace

gen = TraceGenerator("gcc", seed=7)
wall0 = time.perf_counter()
if mode == "streaming":
    count = capture_trace(gen.generate(records), out)
else:
    requests = gen.generate_list(records)
    count = capture_trace(iter(requests), out)
wall = time.perf_counter() - wall0
peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
print(json.dumps({"count": count, "wall_s": wall,
                  "peak_rss_kib": peak_kib}))
"""


def bench_streaming_capture(records: int) -> Dict:
    """Peak-RSS contrast of streaming vs materialized trace capture.

    Each strategy runs in its own subprocess and reports
    ``ru_maxrss`` — the whole point of the chunked v2 writer is that a
    capture's footprint is bounded by the chunk size, not the trace
    length, so the streaming child's peak should stay near the
    interpreter baseline while the materialized child's grows with
    ``records``.  Numbers are **report-only** (RSS depends on allocator
    and platform); the correctness gate for the capture path lives in
    ``trace_resume_smoke.py`` and the crash tests.
    """
    import subprocess
    import tempfile

    src = str(Path(__file__).resolve().parent.parent / "src")
    out: Dict = {"records": records}
    with tempfile.TemporaryDirectory() as tmp:
        for mode in ("streaming", "materialized"):
            proc = subprocess.run(
                [sys.executable, "-c", _CAPTURE_CHILD, mode, str(records),
                 f"{tmp}/{mode}.esdtrace", src],
                capture_output=True, text=True, timeout=600)
            if proc.returncode != 0:
                out[mode] = {"error": proc.stderr.strip()[-300:]}
                continue
            stats = json.loads(proc.stdout)
            assert stats["count"] == records
            out[mode] = stats
    if "peak_rss_kib" in out.get("streaming", {}) \
            and "peak_rss_kib" in out.get("materialized", {}):
        out["rss_ratio_materialized_over_streaming"] = (
            out["materialized"]["peak_rss_kib"]
            / max(out["streaming"]["peak_rss_kib"], 1))
    return out


# ----------------------------------------------------------------------
# Kernel micro-benchmarks
# ----------------------------------------------------------------------

def _working_set(count: int = KERNEL_DISTINCT_LINES,
                 seed: int = 0xE5D) -> List[bytes]:
    rng = random.Random(seed)
    return [rng.randbytes(CACHE_LINE_SIZE) for _ in range(count)]


def _kernel_stream(ops: int) -> List[bytes]:
    lines = _working_set()
    return [lines[i % len(lines)] for i in range(ops)]


def _bench_line_ecc(ops: int, cached: bool) -> Callable[[], None]:
    stream = _kernel_stream(ops)
    kernel = line_ecc if cached else line_ecc_uncached

    def run() -> None:
        for data in stream:
            kernel(data)
    return run


def _bench_decode_line_clean(ops: int, cached: bool) -> Callable[[], None]:
    # Pair every line with its correct ECC (the clean, no-fault decode that
    # dominates simulation reads); computed uncached so setup cost never
    # warms the caches under test.
    pairs = [(data, line_ecc_uncached(data)) for data in _working_set()]
    stream_pairs = [pairs[i % len(pairs)] for i in range(ops)]
    kernel = decode_line if cached else decode_line_uncached

    def run() -> None:
        for data, ecc in stream_pairs:
            kernel(data, ecc)
    return run


def _bench_counter_pad(ops: int, cached: bool) -> Callable[[], None]:
    key = b"\x13" * 32
    coords = [(line, 1) for line in range(KERNEL_DISTINCT_LINES)]
    stream = [coords[i % len(coords)] for i in range(ops)]
    kernel = _derive_pad if cached else _derive_pad_uncached

    def run() -> None:
        for line, counter in stream:
            kernel(key, line, counter)
    return run


def _bench_fingerprint(name: str, ops: int,
                       cached: bool) -> Callable[[], None]:
    engine = make_engine(name)
    stream = _kernel_stream(ops)
    kernel = engine.fingerprint if cached else engine._digest

    def run() -> None:
        for data in stream:
            kernel(data)
    return run


def _time_kernel(factory: Callable[[int, bool], Callable[[], None]],
                 ops: int, repeats: int, cached: bool) -> float:
    """Median ns/op over ``repeats`` runs of the cached or uncached form."""
    run = factory(ops, cached)
    samples = []
    for _ in range(repeats):
        reset_caches()
        start = time.process_time()
        run()
        samples.append((time.process_time() - start) / ops * 1e9)
    return statistics.median(samples)


def bench_kernels(ops: int, repeats: int) -> Dict[str, Dict[str, float]]:
    """Each memoized kernel against its uncached form."""
    factories: Dict[str, Callable[[int, bool], Callable[[], None]]] = {
        "line_ecc": _bench_line_ecc,
        "decode_line_clean": _bench_decode_line_clean,
        "counter_pad": _bench_counter_pad,
        "fingerprint_sha1": lambda n, c: _bench_fingerprint("sha1", n, c),
        "fingerprint_crc": lambda n, c: _bench_fingerprint("crc32", n, c),
    }
    report: Dict[str, Dict[str, float]] = {}
    for name, factory in factories.items():
        off = _time_kernel(factory, ops, repeats, cached=False)
        on = _time_kernel(factory, ops, repeats, cached=True)
        report[name] = {
            "memo_off_ns_per_op": off,
            "memo_on_ns_per_op": on,
            "memo_speedup": off / on if on > 0 else 0.0,
        }
    return report


# ----------------------------------------------------------------------
# Serve loopback throughput
# ----------------------------------------------------------------------

def bench_serve_throughput(requests: int) -> Dict:
    """Requests/sec through the server loopback vs a direct ``run()``.

    Streams one trace through an in-process :mod:`repro.serve` server
    (NDJSON over TCP loopback, default batching/backpressure) and runs
    the identical trace directly, reporting both rates and their ratio.
    Report-only — the serving overhead (JSON codec, syscalls, queue
    hops) is an accepted cost, not a regression gate; the hard parity
    gate for the serve path lives in ``benchmarks/serve_smoke.py``.
    The single-session loopback parity boolean rides along because it
    is free to check here.
    """
    from repro.registry import make_scheme
    from repro.serve import BackgroundServer, ServeClient
    from repro.sim.engine import EngineConfig, SimulationEngine
    from repro.sim.export import result_to_state

    app, scheme_name = GRID_APPS[0], GRID_SCHEMES[-1]
    trace = TraceGenerator(get_profile(app),
                           seed=GRID_SEED).generate_list(requests)

    wall0 = time.perf_counter()
    engine = SimulationEngine(make_scheme(scheme_name,
                                          scaled_system_config()),
                              EngineConfig())
    direct = engine.run(iter(trace), app=app, total_hint=len(trace))
    direct_s = time.perf_counter() - wall0

    with BackgroundServer() as server:
        with ServeClient("127.0.0.1", server.port) as client:
            wall0 = time.perf_counter()
            payload = client.run_trace(iter(trace), scheme_name, app=app,
                                       total_hint=len(trace))
            serve_s = time.perf_counter() - wall0
    return {
        "app": app,
        "scheme": scheme_name,
        "requests": requests,
        "direct_req_per_s": requests / direct_s if direct_s > 0 else 0.0,
        "serve_req_per_s": requests / serve_s if serve_s > 0 else 0.0,
        "serve_overhead_ratio": serve_s / direct_s if direct_s > 0 else 0.0,
        "loopback_parity": payload["state"] == result_to_state(direct),
        "drained_clean": bool(server.drained_clean),
    }


# ----------------------------------------------------------------------
# Multi-process serve: roster parity + scaling
# ----------------------------------------------------------------------

#: Version of the ``serve_mp_throughput`` section's layout; bump on
#: incompatible changes so trajectory consumers can filter.
SERVE_MP_SCHEMA_VERSION = 1

#: Worker count of the parity pass (matches the CI serve-mp job).
SERVE_MP_PARITY_WORKERS = 3

#: Tenants (each pinned to a distinct worker) and pool size of the
#: scaling comparison.
SERVE_MP_TENANTS = 4


def bench_serve_mp(requests: int) -> Dict:
    """Multi-process serve back end: roster parity (gated) + scaling.

    **Parity (hard gate).**  Every registered scheme's trace is served
    through a ``workers=3`` pool, each scheme under its own tenant so
    sessions spread across workers by the affinity hash.  Sessions run
    sequentially and each worker resets its process-global caches at
    session open, so the served state must be *full* bit-exact against
    a direct run — including the memo statistics the threaded
    concurrent-parity check has to exclude.

    **Scaling (report-only).**  Four tenants pinned to four distinct
    workers stream the same trace concurrently; aggregate req/s is
    timed at ``workers=1`` (the in-process engine lock) and
    ``workers=4``.  Like every timing here the ratio is recorded, not
    gated: it only shows parallel speedup when the host actually has
    ≥ 4 free cores — on 1-2 core CI containers it honestly records the
    IPC overhead instead (``cpu_count`` rides along so trajectory
    consumers can tell which regime a point came from).
    """
    import os
    import threading

    from repro.registry import make_scheme
    from repro.serve import BackgroundServer, ServeClient, ServeConfig
    from repro.serve.pool import worker_for_tenant
    from repro.sim.engine import EngineConfig, SimulationEngine
    from repro.sim.export import result_to_state

    app = GRID_APPS[0]
    trace = TraceGenerator(get_profile(app),
                           seed=GRID_SEED).generate_list(requests)

    roster = list(registered_scheme_names())
    direct_states = {}
    for scheme in roster:
        engine = SimulationEngine(
            make_scheme(scheme, scaled_system_config()), EngineConfig())
        direct_states[scheme] = result_to_state(
            engine.run(iter(trace), app=app, total_hint=len(trace)))

    parity: Dict[str, bool] = {}
    with BackgroundServer(
            ServeConfig(workers=SERVE_MP_PARITY_WORKERS)) as server:
        for scheme in roster:
            with ServeClient("127.0.0.1", server.port) as client:
                payload = client.run_trace(
                    iter(trace), scheme, tenant=f"parity-{scheme}",
                    app=app, total_hint=len(trace))
            parity[scheme] = payload["state"] == direct_states[scheme]
    all_parity = all(parity.values()) and bool(server.drained_clean)

    def _pinned_tenant(worker: int, workers: int) -> str:
        for i in range(10_000):
            tenant = f"bench-{worker}-{i}"
            if worker_for_tenant(tenant, workers) == worker:
                return tenant
        raise AssertionError("no tenant found for worker")

    tenants = [_pinned_tenant(w, SERVE_MP_TENANTS)
               for w in range(SERVE_MP_TENANTS)]

    def _aggregate_rate(workers: int) -> float:
        errors: List[BaseException] = []
        config = ServeConfig(workers=workers,
                             max_sessions=SERVE_MP_TENANTS + 1)
        with BackgroundServer(config) as server:
            # Warm up: one tiny session per tenant, so each spawned
            # worker finishes its interpreter/import start-up before the
            # clock starts — the section measures steady-state
            # throughput, not process spawn cost.
            warmup = trace[:256]
            for tenant in tenants:
                with ServeClient("127.0.0.1", server.port) as client:
                    client.run_trace(iter(warmup), "ESD", tenant=tenant,
                                     app=app, total_hint=len(warmup))

            def _drive(tenant: str) -> None:
                try:
                    with ServeClient("127.0.0.1", server.port) as client:
                        client.run_trace(iter(trace), "ESD", tenant=tenant,
                                         app=app, total_hint=len(trace))
                except BaseException as exc:
                    errors.append(exc)

            threads = [threading.Thread(target=_drive, args=(tenant,))
                       for tenant in tenants]
            wall0 = time.perf_counter()
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            wall = time.perf_counter() - wall0
        if errors:
            raise errors[0]
        return len(tenants) * len(trace) / wall if wall > 0 else 0.0

    rate_1 = _aggregate_rate(1)
    rate_n = _aggregate_rate(SERVE_MP_TENANTS)

    return {
        "serve_mp_schema_version": SERVE_MP_SCHEMA_VERSION,
        "app": app,
        "requests": requests,
        "parity_workers": SERVE_MP_PARITY_WORKERS,
        "roster_parity": parity,
        "mp_roster_parity": all_parity,
        "tenants": SERVE_MP_TENANTS,
        "scaling_workers": SERVE_MP_TENANTS,
        "aggregate_req_per_s_workers_1": rate_1,
        "aggregate_req_per_s_workers_n": rate_n,
        "mp_scaling_ratio": rate_n / rate_1 if rate_1 > 0 else 0.0,
        "cpu_count": os.cpu_count(),
    }


# ----------------------------------------------------------------------
# Sweep execution/storage backend throughput
# ----------------------------------------------------------------------

#: Version of the ``sweep_throughput`` section's layout; bump on
#: incompatible changes so trajectory consumers can filter.
SWEEP_THROUGHPUT_SCHEMA_VERSION = 1

#: Every (execution backend, storage backend) pair the sweep layer
#: registers, timed against one identical grid.
SWEEP_BACKEND_PAIRS = (
    ("pool", "sqlite"),
    ("queue", "sqlite"),
)


def bench_sweep_backends(requests: int) -> Dict:
    """Jobs/sec per (execution, storage) backend pair, parity gated.

    Each pair runs the same small grid into a fresh store; throughput
    (completed jobs per wall second, cold cache) is report-only —
    fork/SQLite/lease overhead differs legitimately across pairs — but
    every pair's summary rows must be byte-identical to the serial
    reference grid, and that boolean is a hard gate.
    """
    import tempfile

    from repro.sweep import WorkQueueBackend, run_sweep

    config = ExperimentConfig(
        apps=["gcc", "lbm"], schemes=["Baseline", "ESD"],
        requests_per_app=requests, system=scaled_system_config(),
        seed=GRID_SEED)
    n_jobs = len(config.apps) * len(config.schemes)
    reference = {f"{app}/{scheme}": result.summary_row()
                 for (app, scheme), result in run_grid(config).items()}

    pairs: Dict[str, Dict] = {}
    all_identical = True
    for backend_name, storage_name in SWEEP_BACKEND_PAIRS:
        with tempfile.TemporaryDirectory(
                prefix="repro-bench-sweep-") as tmp:
            spec = f"{tmp}/store.sqlite"
            backend = (WorkQueueBackend(lease_s=15.0, poll_s=0.05)
                       if backend_name == "queue" else backend_name)
            wall0 = time.perf_counter()
            grid = run_sweep(config, jobs=2, store=spec, backend=backend,
                             storage=storage_name)
            wall = time.perf_counter() - wall0
        rows = {f"{app}/{scheme}": result.summary_row()
                for (app, scheme), result in grid.items()}
        identical = rows == reference
        all_identical = all_identical and identical
        pairs[f"{backend_name}/{storage_name}"] = {
            "wall_s": wall,
            "jobs_per_s": n_jobs / wall if wall > 0 else 0.0,
            "identical": identical,
        }
    return {
        "sweep_throughput_schema_version": SWEEP_THROUGHPUT_SCHEMA_VERSION,
        "apps": list(config.apps),
        "schemes": list(config.schemes),
        "requests_per_app": requests,
        "jobs": 2,
        "total_jobs": n_jobs,
        "pairs": pairs,
        "all_identical": all_identical,
    }


# ----------------------------------------------------------------------
# Benchmark history trajectory
# ----------------------------------------------------------------------

#: Version of one BENCH_history.json entry's layout; bump on
#: incompatible changes so trajectory consumers can filter.
#: v2: adds the sweep backend-pair throughput fields.
#: v3: adds the multi-process serve fields (parity gate, aggregate
#: req/s at workers=1 vs workers=N, scaling ratio, cpu_count).
#: v4: adds the streaming-capture peak-RSS fields (report-only).
#: v5: the grid times two modes (reference, fast); ``median_cpu_speedup``
#: is fast over reference and ``median_memo_cpu_speedup`` is gone.  The
#: long trace times the batched vs the scalar parser on a v1 trace.
#: v6: the grid times the one execution path (``median_cpu_s``,
#: ``median_wall_s`` replace the two-mode speedups), and the
#: ``grids_identical``/``roster_identical`` gates are gone: the pinned
#: digests in ``tests/test_perf_parity.py`` check those results.
#: v7: the long trace times one v2 round trip (``long_trace_median_cpu_s``
#: replaces ``long_trace_median_cpu_speedup``): the second parser and
#: the v1 container are gone.
HISTORY_SCHEMA_VERSION = 7


def history_entry(report: Dict) -> Dict:
    """One compact trajectory point distilled from a full report.

    The full report overwrites ``BENCH_perf_smoke.json`` every run; the
    history file *appends*, so entries carry only the headline medians
    and gate booleans — enough to plot the performance trajectory
    across commits without the file growing by the full report each
    time.
    """
    grid = report["grid"]
    return {
        "history_schema_version": HISTORY_SCHEMA_VERSION,
        "timestamp_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "quick": report["quick"],
        "requests_per_app": grid["requests_per_app"],
        "grid_median_cpu_s": grid["median_cpu_s"],
        "grid_median_wall_s": grid["median_wall_s"],
        "long_trace_median_cpu_s": report["long_trace"]["median_cpu_s"],
        "streaming_capture_peak_rss_kib":
            report["streaming_capture"].get("streaming", {}).get(
                "peak_rss_kib"),
        "materialized_capture_peak_rss_kib":
            report["streaming_capture"].get("materialized", {}).get(
                "peak_rss_kib"),
        "serve_req_per_s": report["serve_throughput"]["serve_req_per_s"],
        "serve_overhead_ratio":
            report["serve_throughput"]["serve_overhead_ratio"],
        "serve_mp_req_per_s_workers_1":
            report["serve_mp_throughput"]["aggregate_req_per_s_workers_1"],
        "serve_mp_req_per_s_workers_n":
            report["serve_mp_throughput"]["aggregate_req_per_s_workers_n"],
        "serve_mp_scaling_ratio":
            report["serve_mp_throughput"]["mp_scaling_ratio"],
        "serve_mp_cpu_count": report["serve_mp_throughput"]["cpu_count"],
        "sweep_jobs_per_s": {
            pair: stats["jobs_per_s"]
            for pair, stats in report["sweep_throughput"]["pairs"].items()},
        "loopback_parity":
            report["serve_throughput"]["loopback_parity"],
        "serve_mp_roster_parity":
            report["serve_mp_throughput"]["mp_roster_parity"],
        "sweep_backends_identical":
            report["sweep_throughput"]["all_identical"],
        "platform": report["platform"],
        "python": report["python"],
    }


def append_history(report: Dict, path: Path) -> int:
    """Append this run's entry to the trajectory file; returns its length.

    The file is a JSON array.  A missing or unreadable file starts a
    fresh trajectory rather than failing the benchmark.
    """
    entries: List[Dict] = []
    if path.exists():
        try:
            loaded = json.loads(path.read_text())
            if isinstance(loaded, list):
                entries = loaded
        except (OSError, ValueError):
            entries = []
    entries.append(history_entry(report))
    path.write_text(json.dumps(entries, indent=2, sort_keys=True) + "\n")
    return len(entries)


# ----------------------------------------------------------------------
# Observability metrics report
# ----------------------------------------------------------------------

def emit_metrics_report(requests: int, path: Path) -> None:
    """Run one observed grid cell and write its metrics report.

    The report (``repro.obs`` registry snapshot plus trace-ring stats) is
    a CI artifact: it documents the migrated ``memo_*`` counters and the
    request-latency histograms for the benchmark configuration.  It is
    informational, never a gate.
    """
    from repro.sim.runner import run_app

    system = scaled_system_config().with_observability(enabled=True)
    app, scheme = GRID_APPS[0], GRID_SCHEMES[-1]
    result = run_app(app, [scheme], requests=requests, system=system,
                     seed=GRID_SEED)[scheme]
    assert result.obs is not None
    report = {"app": app, "scheme": scheme, "requests": requests,
              "obs_schema_version": result.obs["obs_schema_version"],
              "metrics": result.obs["metrics"],
              "trace_stats": result.obs["trace_stats"]}
    path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------

def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Perf smoke: grid timing, kernel micro-benchmarks, "
                    "and the parser, serve-mp and sweep-backend parity "
                    "gates.")
    parser.add_argument("--quick", action="store_true",
                        help="CI sizing: 2000 requests/app, 1 grid round")
    parser.add_argument("--output", type=Path, default=None,
                        help="write the JSON report here (default: stdout)")
    parser.add_argument("--requests", type=int, default=None,
                        help="override requests per app")
    parser.add_argument("--rounds", type=int, default=None,
                        help="override grid timing rounds")
    parser.add_argument("--metrics-report", type=Path, default=None,
                        help="also run one observed cell and write its "
                             "repro.obs metrics report here")
    parser.add_argument("--history", type=Path, default=None,
                        help="append a compact trajectory entry to this "
                             "JSON-array file (default: BENCH_history.json "
                             "next to --output; omit --output to skip)")
    parser.add_argument("--no-history", action="store_true",
                        help="skip the trajectory append entirely")
    args = parser.parse_args(argv)

    requests = args.requests or (2000 if args.quick else 8000)
    rounds = args.rounds or (1 if args.quick else 5)
    kernel_ops = 2000 if args.quick else 20000
    kernel_repeats = 3 if args.quick else 5
    trace_records = 20000 if args.quick else 200000
    serve_requests = min(requests, 2000)

    sweep_requests = min(requests, 1000 if args.quick else 2000)

    # The ISSUE's bounded-memory demonstration wants >= 200k records even
    # in quick mode; the subprocess pair costs a few seconds, not minutes.
    capture_records = max(trace_records, 200_000)

    grid = bench_grid(requests, rounds)
    long_trace = bench_long_trace(trace_records, max(rounds, 3))
    streaming_capture = bench_streaming_capture(capture_records)
    kernels = bench_kernels(kernel_ops, kernel_repeats)
    serve = bench_serve_throughput(serve_requests)
    serve_mp = bench_serve_mp(min(serve_requests,
                                  1500 if args.quick else 2000))
    sweep = bench_sweep_backends(sweep_requests)

    report = {
        "benchmark": "simulator-performance",
        "grid": grid,
        "long_trace": long_trace,
        "streaming_capture": streaming_capture,
        "kernels": kernels,
        "serve_throughput": serve,
        "serve_mp_throughput": serve_mp,
        "sweep_throughput": sweep,
        "platform": platform.platform(),
        "python": platform.python_version(),
        "quick": bool(args.quick),
    }
    text = json.dumps(report, indent=2, sort_keys=True)
    if args.output is not None:
        args.output.write_text(text + "\n")
        print(f"wrote {args.output}")
    else:
        print(text)
    history_path = args.history
    if history_path is None and args.output is not None:
        history_path = args.output.parent / "BENCH_history.json"
    if history_path is not None and not args.no_history:
        length = append_history(report, history_path)
        print(f"appended entry {length} to {history_path}")
    if args.metrics_report is not None:
        emit_metrics_report(requests, args.metrics_report)
        print(f"wrote {args.metrics_report}")
    print(f"grid: median {grid['median_cpu_s']:.2f} cpu s; "
          f"long-trace {long_trace['median_cpu_s']:.2f} cpu s, "
          f"identical={long_trace['roundtrip_identical']}; "
          f"serve {serve['serve_req_per_s']:.0f} req/s "
          f"({serve['serve_overhead_ratio']:.2f}x direct), "
          f"parity={serve['loopback_parity']}; "
          f"serve-mp {serve_mp['mp_scaling_ratio']:.2f}x aggregate at "
          f"{serve_mp['scaling_workers']} workers "
          f"(cpus={serve_mp['cpu_count']}), "
          f"roster parity={serve_mp['mp_roster_parity']}; "
          f"sweep backends identical={sweep['all_identical']}; "
          f"capture peak RSS streaming "
          f"{streaming_capture.get('streaming', {}).get('peak_rss_kib', '?')}"
          f" KiB vs materialized "
          f"{streaming_capture.get('materialized', {}).get('peak_rss_kib', '?')}"
          f" KiB over {streaming_capture['records']} records (report-only)",
          file=sys.stderr)
    failed = False
    if not long_trace["roundtrip_identical"]:
        print("FAIL: long-trace decode differs from the source requests",
              file=sys.stderr)
        failed = True
    if not sweep["all_identical"]:
        diverged = [pair for pair, stats in sweep["pairs"].items()
                    if not stats["identical"]]
        print(f"FAIL: sweep backend pair(s) diverge from the serial "
              f"reference: {', '.join(diverged)}", file=sys.stderr)
        failed = True
    if not serve_mp["mp_roster_parity"]:
        diverged = [scheme for scheme, ok
                    in serve_mp["roster_parity"].items() if not ok]
        print(f"FAIL: multi-process serve diverges from direct runs "
              f"for: {', '.join(diverged) or 'drain'}", file=sys.stderr)
        failed = True
    return 2 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
