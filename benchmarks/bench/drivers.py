"""The benchmark's four workloads: set-up, timed rounds and output checks.

Every workload runs the default ``scaled_system_config()`` (so
``verify_integrity`` stays on), takes its inputs from the seed, and keeps
its load within two threads, two connections or ``jobs=2``.

``grid-paper``
    ``run_grid`` in-process, one call per app: gcc, deepsjeng, lbm x
    Baseline, Dedup_SHA1, DeWrite, ESD at 10,000 requests per app, trace
    generation timed.  High content locality: memo caches and the EFIT hit.
``replay-adversarial``
    ``adv-dedup-worst`` (4,096 records) captured to a v2 trace during
    set-up, then streamed through all eight schemes in 4,096-record
    feeds.  Almost no locality (2% duplicate writes, so the EFIT
    almost never hits and nearly every write reaches PCM); generation is
    set-up.  ``adv-phase-shift`` would not do: half of its phase script
    is deepsjeng and lbm, whose duplicates the caches catch.
``serve-tenants``
    a ``BackgroundServer`` in a child process, driven in a closed loop by
    two client threads on two connections (gcc/ESD on t0, lbm/DeWrite on
    t1) in lock-step rounds of one 10,000-request session each, replayed
    from traces captured during set-up in 256-request batches.  Clients
    and server share one CPU.
``sweep-roster``
    ``run_sweep`` with the work-queue backend and sqlite storage,
    ``jobs=2``, 20 apps x 4 schemes x 1,000 requests into a fresh store,
    then a cached re-run.  Per-job fixed costs dominate.

Timing.  Work is measured in short *units* (an app's grid row, one
scheme's replay, one serve round: about 0.1-1 s; a cold sweep: 1-2 s;
its cached re-run), and every unit kind recurs in each round.  The host
these runs share slows the same code by up to 2x, in bursts of tens of
milliseconds and in stretches of minutes, with no steal time: a
neighbour's load makes each instruction slower, so CPU time inflates
with wall time, and no fastest sample escapes a slow minute.  So a fixed
pure-Python probe (``probe_kernel``) runs before and after every unit,
and each unit records the host's slowdown, the probes' time over
``REFERENCE_PROBE_S`` (``HostClock``).  A unit kind takes its mean host
time over its mean slowdown, in *reference seconds*: seconds on a host
where the probe takes ``REFERENCE_PROBE_S``.  See
``Measurement.unit_rates``.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from itertools import islice
from pathlib import Path
from typing import (Any, Callable, ContextManager, Dict, Iterator, List,
                    Optional, Tuple)

HERE = Path(__file__).resolve().parent
SRC = HERE.parents[1] / "src"

Rows = Dict[str, Dict[str, float]]
RootFactory = Callable[[], ContextManager[None]]


def _cpu(who: int) -> float:
    usage = resource.getrusage(who)
    return usage.ru_utime + usage.ru_stime


def cpu_now() -> float:
    """CPU seconds of this process and its waited-for children."""
    return _cpu(resource.RUSAGE_SELF) + _cpu(resource.RUSAGE_CHILDREN)


#: Lines one host-speed probe writes, and the probe's wall time on the
#: reference host: about the fastest probe of a 2-core Xeon at 2.0 GHz
#: with Python 3.11 when its neighbours are idle.
PROBE_LINES = 12_000
REFERENCE_PROBE_S = 0.02
#: How the simulator's slowdown follows the probe's: a unit's slowdown
#: is (probe time / ``REFERENCE_PROBE_S``) to this power.  Fitted on the
#: reference host, where the log of a run's host rate against the log of
#: its probe slowdown (1.0x to 3.0x) had slopes of 0.85-0.90 on
#: ``grid-paper``, ``replay-adversarial`` and ``sweep-roster``: the probe
#: is a little more sensitive to neighbours than the simulator.
SLOWDOWN_EXPONENT = 0.9


class _ProbeLine:
    __slots__ = ("addr", "data", "tag")

    def __init__(self, addr: int, data: bytes, tag: int) -> None:
        self.addr = addr
        self.data = data
        self.tag = tag


def probe_kernel(lines: int = PROBE_LINES) -> int:
    """Fixed pure-Python work shaped like the simulator's write path.

    64-byte lines from a 64-bit LCG are XORed as big integers into a
    running check value, kept by address in a dict of a few thousand
    objects (rewritten when their content changes), hashed with SHA-1
    every eighth line, and queued in batches that are sorted and
    dropped.  It never touches ``repro``, so no change to the simulator
    changes its speed; it returns the check value.
    """
    mask = (1 << 64) - 1
    x = 0x9E3779B97F4A7C15
    check = 0
    table: Dict[int, _ProbeLine] = {}
    batch: List[Tuple[int, int]] = []
    for i in range(lines):
        x = (x * 6364136223846793005 + 1442695040888963407) & mask
        addr = (x >> 20) & 0xFFFF
        data = (x ^ (x << 7)).to_bytes(16, "little") * 4
        value = int.from_bytes(data, "little") ^ check
        check = (check * 31 + (value & 0xFFFF)) & mask
        line = table.get(addr)
        if line is None or line.data != data:
            table[addr] = _ProbeLine(addr, data, value & 0xFF)
        if i % 8 == 0:
            hashlib.sha1(data).digest()
        batch.append((addr, value & 0xFFFFFFFF))
        if len(batch) > 256:
            batch.sort()
            batch.clear()
    return check


@dataclass
class Timed:
    """One unit of work: host wall and CPU seconds, and the host's
    slowdown while it ran (host seconds per reference second)."""

    wall_s: float = 0.0
    cpu_s: float = 0.0
    slowdown: float = 1.0


def reference_seconds(samples: List[Tuple[float, float]]) -> float:
    """Reference seconds of one unit of a kind measured as (host seconds,
    slowdown) samples: their mean host time over their mean slowdown."""
    return (sum(host for host, _ in samples)
            / sum(slowdown for _, slowdown in samples))


class HostClock:
    """Times units of work against the host's speed.

    A probe runs before and after every unit (the probe after one unit is
    the probe before the next); the unit's slowdown is the mean of the two
    probes over ``REFERENCE_PROBE_S``, to the ``SLOWDOWN_EXPONENT``.  A
    probe runs with the garbage collector off, so a change to the
    simulator's collector settings cannot change the probe's speed.
    """

    def __init__(self) -> None:
        self.probes: List[float] = []
        self._last: Optional[float] = None

    def probe(self) -> float:
        enabled = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            probe_kernel()
            took = time.perf_counter() - start
        finally:
            if enabled:
                gc.enable()
        self.probes.append(took)
        self._last = took
        return took

    def warm_up(self, probes: int = 3) -> None:
        """Untimed probes, so the first unit's probe runs warm code."""
        for _ in range(probes):
            self.probe()
        del self.probes[:]

    def slowdown(self) -> float:
        """The mean probe's slowdown (without the exponent)."""
        return statistics.mean(self.probes) / REFERENCE_PROBE_S

    @contextmanager
    def unit(self) -> Iterator[Timed]:
        before = self._last if self._last is not None else self.probe()
        timed = Timed()
        wall0, cpu0 = time.perf_counter(), cpu_now()
        yield timed
        timed.wall_s = time.perf_counter() - wall0
        timed.cpu_s += cpu_now() - cpu0
        probe_slowdown = (before + self.probe()) / (2 * REFERENCE_PROBE_S)
        timed.slowdown = probe_slowdown ** SLOWDOWN_EXPONENT


@dataclass
class Measurement:
    """What one timed region produced."""

    #: Simulated requests completed, and the whole region's wall time.
    requests: int = 0
    wall_s: float = 0.0
    rounds: int = 0
    #: Per unit kind: simulated requests of one unit, and (host wall s,
    #: host CPU s, host slowdown) of every unit of that kind measured.
    unit_requests: Dict[str, int] = field(default_factory=dict)
    units: Dict[str, List[Tuple[float, float, float]]] = field(
        default_factory=dict)
    #: Latency of each client-visible operation (see ``Workload.op``).
    ops_s: List[float] = field(default_factory=list)
    #: Operations attempted and failed (cells, sessions or jobs).
    attempted: int = 0
    failed: int = 0
    #: ``{"app/scheme": summary_row()}`` of the first round.
    rows: Rows = field(default_factory=dict)
    #: Named output checks; the run is correct when all hold.
    checks: Dict[str, bool] = field(default_factory=dict)
    #: ``extras`` of every simulated result, for the cache ratios.
    extras: List[Dict[str, float]] = field(default_factory=list)
    pcm_writes: int = 0
    #: Peak RSS of a child that ``RUSAGE_CHILDREN`` cannot see yet
    #: because it is still running (the serve host).
    child_maxrss_kib: int = 0
    #: Workload-specific numbers for the detailed report.
    detail: Dict[str, float] = field(default_factory=dict)
    #: Span snapshots of other processes (server, sweep workers).
    snapshots: List[Dict[str, Any]] = field(default_factory=list)

    def check(self, name: str, ok: bool) -> None:
        self.checks[name] = self.checks.get(name, True) and bool(ok)

    def add_unit(self, kind: str, requests: int, timed: Timed) -> None:
        self.unit_requests[kind] = requests
        self.units.setdefault(kind, []).append(
            (timed.wall_s, timed.cpu_s, timed.slowdown))
        self.requests += requests

    def round_rows(self, rows: Rows) -> None:
        """Keep the first round's rows; a later round must repeat them."""
        if not self.rows:
            self.rows = rows
            return
        self.failed += sum(rows[key] != self.rows.get(key) for key in rows)
        self.check("rounds_identical", rows == self.rows)

    def add_result(self, result: Any) -> Dict[str, float]:
        """Record one simulated result; returns its summary row."""
        self.extras.append(dict(result.extras))
        self.pcm_writes += int(result.pcm_data_writes)
        return result.summary_row()

    def unit_rates(self, scaled: bool = True) -> Tuple[float, float]:
        """(requests per wall second, CPU seconds per request), in
        reference seconds, or in host seconds when not ``scaled``.

        Each unit kind contributes its ``reference_seconds`` (or its mean
        host time); the rates are those of one pass over every kind.
        """
        def kind_total(index: int) -> float:
            return sum(reference_seconds(
                [(u[index], u[2] if scaled else 1.0) for u in samples])
                for samples in self.units.values())

        requests = sum(self.unit_requests.values())
        return requests / kind_total(0), kind_total(1) / requests


def cold_import(modules: List[str]) -> None:
    """Import ``modules`` in a fresh interpreter (a user's cold start).

    No ``timeout``: with one, ``subprocess`` polls the child at 50 ms
    steps, which would quantize ``setup_s``.
    """
    subprocess.run(
        [sys.executable, "-c",
         "import sys; sys.path.insert(0, sys.argv[1]);"
         " [__import__(m) for m in sys.argv[2:]]",
         str(SRC), *modules],
        check=True)


def run_rounds(seconds: float, min_rounds: int,
               body: Callable[[int], None]) -> Tuple[int, float]:
    """Run ``body(round)`` until ``seconds`` passed and ``min_rounds`` ran."""
    start = time.perf_counter()
    rounds = 0
    while True:
        body(rounds)
        rounds += 1
        elapsed = time.perf_counter() - start
        if rounds >= min_rounds and elapsed >= seconds:
            return rounds, elapsed


def scaled(count: int, scale: float, floor: int) -> int:
    return max(floor, int(round(count * scale)))


def sim_headlines(rows: Rows) -> Dict[str, float]:
    """Simulated write speedup (geomean over apps of Baseline/ESD mean
    write latency) and ESD's mean write reduction."""
    apps = sorted({key.split("/")[0] for key in rows})
    pairs = [(rows.get(f"{a}/Baseline"), rows.get(f"{a}/ESD")) for a in apps]
    pairs = [(b, e) for b, e in pairs if b and e]
    if not pairs:
        return {}
    logs = [math.log(b["write_latency_ns"] / e["write_latency_ns"])
            for b, e in pairs]
    return {"sim_write_speedup": math.exp(sum(logs) / len(logs)),
            "sim_write_reduction":
                sum(e["write_reduction"] for _, e in pairs) / len(pairs)}


class Workload:
    """One workload: repeatable set-up, timed rounds, and finish checks."""

    name = ""
    #: The client-visible operation each ``ops_s`` sample times.
    op = ""
    min_rounds = 2

    def __init__(self, seed: int, scale: float, workdir: Path) -> None:
        self.seed = seed
        self.scale = scale
        self.workdir = workdir
        #: Times set-ups and units (see ``HostClock``).
        self.clock = HostClock()

    def setup(self) -> None:
        """One set-up; repeatable after ``close``, the last one is used."""

    def start_tracing(self, tracer: Any) -> None:
        """Workload-specific tracing plumbing, after ``tracer.install()``."""

    def measure(self, seconds: float, min_rounds: int,
                root: RootFactory = nullcontext) -> Measurement:
        raise NotImplementedError

    def finish(self, m: Measurement) -> None:
        """Final checks after the timed region (e.g. a clean drain)."""

    def close(self) -> None:
        """Release what set-up holds; safe to call more than once."""


class GridPaper(Workload):
    name = "grid-paper"
    op = "one app's grid row (trace generation + 4 schemes)"
    APPS = ("gcc", "deepsjeng", "lbm")
    SCHEMES = ("Baseline", "Dedup_SHA1", "DeWrite", "ESD")
    REQUESTS = 10_000
    min_rounds = 3

    def setup(self) -> None:
        cold_import(["repro.sim.runner"])

    def measure(self, seconds: float, min_rounds: int,
                root: RootFactory = nullcontext) -> Measurement:
        from repro.sim.runner import ExperimentConfig, run_grid

        m = Measurement()
        requests = scaled(self.REQUESTS, self.scale, 200)

        def one_round(index: int) -> None:
            rows: Rows = {}
            for app in self.APPS:
                config = ExperimentConfig(apps=[app],
                                          schemes=list(self.SCHEMES),
                                          requests_per_app=requests,
                                          seed=self.seed)
                with self.clock.unit() as unit, root():
                    grid = run_grid(config)
                m.add_unit(app, requests * len(self.SCHEMES), unit)
                m.ops_s.append(unit.wall_s)
                for (cell_app, scheme), result in grid.items():
                    rows[f"{cell_app}/{scheme}"] = m.add_result(result)
                m.attempted += len(grid)
            m.round_rows(rows)

        m.rounds, m.wall_s = run_rounds(seconds, min_rounds, one_round)
        m.detail.update(sim_headlines(m.rows))
        return m


class ReplayAdversarial(Workload):
    name = "replay-adversarial"
    op = "one 4,096-record feed"
    STREAM = "adv-dedup-worst"
    RECORDS = 4096
    CHUNK = 4096

    def setup(self) -> None:
        cold_import(["repro.sim.engine", "repro.workloads"])
        from repro.workloads import adversarial_stream, capture_trace

        self.path = self.workdir / f"{self.STREAM}.esdtrace"
        records = scaled(self.RECORDS, self.scale, 200)
        self.records = capture_trace(
            adversarial_stream(self.STREAM, records, seed=self.seed),
            self.path)

    def measure(self, seconds: float, min_rounds: int,
                root: RootFactory = nullcontext) -> Measurement:
        from repro.registry import make_scheme, registered_scheme_names
        from repro.sim.engine import EngineConfig, SimulationEngine
        from repro.sim.runner import scaled_system_config
        from repro.workloads import read_trace, stream_instructions_per_access

        m = Measurement()
        ipa = stream_instructions_per_access(self.STREAM)

        def one_round(index: int) -> None:
            rows: Rows = {}
            for scheme in registered_scheme_names():
                with self.clock.unit() as unit, root():
                    engine = SimulationEngine(
                        make_scheme(scheme, scaled_system_config()),
                        EngineConfig())
                    session = engine.open_session(
                        app=self.STREAM, total_hint=self.records,
                        instructions_per_access=ipa)
                    reader = read_trace(self.path)
                    while True:
                        start = time.perf_counter()
                        fed = session.feed(islice(reader, self.CHUNK))
                        if not fed:
                            break
                        m.ops_s.append(time.perf_counter() - start)
                    result = session.finalize()
                m.add_unit(scheme, session.processed, unit)
                rows[f"{self.STREAM}/{scheme}"] = m.add_result(result)
                m.attempted += 1
                complete = session.processed == self.records
                m.failed += not complete
                m.check("whole_trace_replayed", complete)
            m.round_rows(rows)

        m.rounds, m.wall_s = run_rounds(seconds, min_rounds, one_round)
        m.detail.update(sim_headlines(m.rows))
        return m


class ServeHost:
    """The server child process (``serve_host.py``), driven over stdin."""

    def __init__(self, trace: bool) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "serve_host.py"), str(SRC),
             "1" if trace else "0"],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        self.port = int(self._reply()["port"])

    def _reply(self) -> Dict[str, Any]:
        assert self.proc.stdout is not None
        line = self.proc.stdout.readline()
        if not line:
            self.proc.wait(timeout=30)
            raise RuntimeError(
                f"serve host exited with code {self.proc.returncode}")
        return json.loads(line)

    def command(self, verb: str) -> Dict[str, Any]:
        assert self.proc.stdin is not None
        self.proc.stdin.write(verb + "\n")
        self.proc.stdin.flush()
        return self._reply()

    def stop(self) -> Dict[str, Any]:
        """Drain and stop the server; returns its final report."""
        try:
            report = self.command("stop")
            self.proc.wait(timeout=60)
            return report
        finally:
            self.kill()

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait(timeout=30)
        for stream in (self.proc.stdin, self.proc.stdout):
            if stream is not None:
                stream.close()


class ServeTenants(Workload):
    name = "serve-tenants"
    op = "one 256-request batch, send to ack"
    TENANTS = (("t0", "gcc", "ESD"), ("t1", "lbm", "DeWrite"))
    REQUESTS = 10_000
    BATCH = 256

    host: Optional[ServeHost] = None

    def setup(self) -> None:
        from repro.workloads import TraceGenerator, capture_trace

        # Clients and server share one CPU (the server inherits this
        # process's affinity): the closed loop is serial anyway, and so
        # the host probes run on the CPU that does the work instead of
        # one whose neighbours may be busier or calmer.
        if hasattr(os, "sched_setaffinity"):
            os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        self.host = ServeHost(trace=False)
        self.requests = scaled(self.REQUESTS, self.scale, 300)
        self.paths = {}
        for _, app, _ in self.TENANTS:
            self.paths[app] = self.workdir / f"{app}.esdtrace"
            capture_trace(TraceGenerator(app, seed=self.seed).generate(
                self.requests), self.paths[app])

    def start_tracing(self, tracer: Any) -> None:
        self.close()
        self.host = ServeHost(trace=True)

    def _session(self, conn: Any, tenant: str, app: str, scheme: str,
                 root: RootFactory) -> Dict[str, Any]:
        """One closed-loop session: each batch waits for its ack."""
        from repro.workloads import read_trace

        acks: List[float] = []
        with root():
            opened = time.perf_counter()
            conn.open_session(scheme, tenant=tenant, app=app,
                              total_hint=self.requests)
            stream = read_trace(self.paths[app])
            while True:
                batch = list(islice(stream, self.BATCH))
                if not batch:
                    break
                sent = time.perf_counter()
                conn.send(batch)
                acks.append(time.perf_counter() - sent)
            rejected = conn.session.backpressure_rejections
            payload = conn.finalize()
            took = time.perf_counter() - opened
        return {"key": f"{app}/{scheme}", "acks": acks, "took": took,
                "rejected": rejected, "payload": payload}

    def measure(self, seconds: float, min_rounds: int,
                root: RootFactory = nullcontext) -> Measurement:
        from repro.serve import ServeClient

        host = self.host
        assert host is not None
        m = Measurement()
        sessions: List[Dict[str, Any]] = []
        conns = [ServeClient("127.0.0.1", host.port) for _ in self.TENANTS]

        def one_round(index: int) -> None:
            done: List[Dict[str, Any]] = []
            errors: List[Exception] = []

            def client(conn: Any, tenant: Tuple[str, str, str]) -> None:
                try:
                    done.append(self._session(conn, *tenant, root))
                except Exception as exc:  # re-raised on the main thread
                    errors.append(exc)

            threads = [threading.Thread(target=client, args=pair)
                       for pair in zip(conns, self.TENANTS)]
            host_cpu0 = host.command("stats")["cpu_s"]
            with self.clock.unit() as unit:
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join()
            stats = host.command("stats")
            if errors:
                raise errors[0]
            unit.cpu_s += stats["cpu_s"] - host_cpu0
            m.add_unit("round", self.requests * len(done), unit)
            m.child_maxrss_kib = stats["maxrss_kib"]
            sessions.extend(done)

        try:
            m.rounds, m.wall_s = run_rounds(seconds, min_rounds, one_round)
        finally:
            for conn in conns:
                conn.close()
        # Every session of a tenant replays the same trace, so each
        # summary must equal the tenant's first (the run's golden row).
        for s in sessions:
            golden = m.rows.setdefault(s["key"], s["payload"]["summary"])
            m.failed += s["payload"]["summary"] != golden
            m.check("sessions_match_golden",
                    s["payload"]["summary"] == golden)
            m.ops_s.extend(s["acks"])
            m.extras.append(s["payload"]["state"]["extras"])
            m.pcm_writes += int(s["payload"]["state"]["pcm_data_writes"])
        m.attempted = len(sessions)
        rejected = sum(s["rejected"] for s in sessions)
        m.detail.update({
            "session_p50_s": statistics.median(s["took"] for s in sessions),
            "serve.backpressure_ratio":
                rejected / (rejected + len(m.ops_s)),
        })
        return m

    def finish(self, m: Measurement) -> None:
        assert self.host is not None
        report = self.host.stop()
        self.host = None
        m.check("server_drained_clean", report.get("drained_clean") is True)
        if report.get("layers") is not None:
            m.snapshots.append(report["layers"])

    def close(self) -> None:
        if self.host is not None:
            self.host.kill()
            self.host = None


class SweepRoster(Workload):
    name = "sweep-roster"
    op = "one job, as timed by its worker"
    REQUESTS = 1000
    JOBS = 2
    #: Queue poll interval of the coordinator and workers.  The default
    #: 0.25 s would quantize the end of each ~1 s sweep.
    POLL_S = 0.05

    def setup(self) -> None:
        cold_import(["repro.sweep"])

    def start_tracing(self, tracer: Any) -> None:
        self.spans_dir = self.workdir / "worker-spans"
        self.spans_dir.mkdir(exist_ok=True)
        self.worker_hook = tracer.install_worker_hook(self.spans_dir)

    def measure(self, seconds: float, min_rounds: int,
                root: RootFactory = nullcontext) -> Measurement:
        from repro.registry import scheme_names
        from repro.sim.runner import ExperimentConfig
        from repro.sweep import WorkQueueBackend, run_sweep
        from repro.sweep.progress import ProgressReporter
        from repro.workloads.profiles import app_names

        m = Measurement()
        config = ExperimentConfig(
            apps=app_names(), schemes=list(scheme_names()),
            requests_per_app=scaled(self.REQUESTS, self.scale, 50),
            seed=self.seed)
        total = len(config.apps) * len(config.schemes)
        cold_s = cached_s = 0.0
        cached_hits = 0
        self_cpu0 = _cpu(resource.RUSAGE_SELF)
        child_cpu0 = _cpu(resource.RUSAGE_CHILDREN)

        def sweep(store: str) -> Tuple[Any, ProgressReporter, float]:
            reporter = ProgressReporter(total, enabled=False)
            start = time.perf_counter()
            grid = run_sweep(config, jobs=self.JOBS, store=store,
                             backend=WorkQueueBackend(poll_s=self.POLL_S),
                             storage="sqlite", reporter=reporter)
            return grid, reporter, time.perf_counter() - start

        def one_round(index: int) -> None:
            nonlocal cold_s, cached_s, cached_hits
            round_dir = self.workdir / f"round-{index}"
            round_dir.mkdir()
            store = str(round_dir / "store.sqlite")
            try:
                with self.clock.unit() as cold_unit, root():
                    grid, cold, cold_took = sweep(store)
                with self.clock.unit() as cached_unit, root():
                    again, cached, cached_took = sweep(store)
            finally:
                shutil.rmtree(round_dir, ignore_errors=True)
            cold_s += cold_took
            cached_s += cached_took
            m.add_unit("cold", config.requests_per_app * cold.simulated,
                       cold_unit)
            m.add_unit("cached", 0, cached_unit)
            rows = {f"{a}/{s}": m.add_result(r) for (a, s), r in grid.items()}
            m.ops_s.extend(job["duration_s"] for job in cold.manifest()["jobs"]
                           if job["status"] == "simulated")
            cached_hits += cached.cached
            m.attempted += 2 * total
            m.failed += cold.failed + cached.failed
            m.check("cold_run_complete", cold.simulated == total)
            m.check("cached_rerun_all_cached",
                    cached.simulated == 0 and cached.cached == total)
            m.check("cached_rows_identical", {
                f"{a}/{s}": r.summary_row()
                for (a, s), r in again.items()} == rows)
            m.round_rows(rows)

        m.rounds, m.wall_s = run_rounds(seconds, min_rounds, one_round)
        m.detail.update({
            "jobs_per_s": m.rounds * total / cold_s,
            "sweep.coordinator_cpu_s": _cpu(resource.RUSAGE_SELF) - self_cpu0,
            "sweep.worker_cpu_s": _cpu(resource.RUSAGE_CHILDREN) - child_cpu0,
            "sweep.store_get_s": cached_s,
            "sweep.cache_hit_ratio": cached_hits / (m.rounds * total),
        })
        return m

    def finish(self, m: Measurement) -> None:
        spans_dir = getattr(self, "spans_dir", None)
        if spans_dir is None:
            return
        m.detail["sweep.worker_hook_ok"] = float(self.worker_hook == "ok")
        for path in sorted(spans_dir.glob("worker-*.json")):
            m.snapshots.append(json.loads(path.read_text()))


WORKLOADS: Dict[str, type] = {
    cls.name: cls
    for cls in (GridPaper, ReplayAdversarial, ServeTenants, SweepRoster)}
