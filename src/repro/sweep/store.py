"""Content-addressed store for sweep results: one SQLite file.

:class:`ResultStore` keeps everything a sweep persists in one SQLite
file in WAL mode, safe for many concurrent worker processes (including
other hosts sharing the file over a lock-honouring filesystem)::

    results(digest, payload)   one simulated cell, full-fidelity state
    traces(trace_id, data)     shared per-application request stream
    obs(digest, payload)       observability report (only when the sweep
                               ran with observability enabled)
    manifest(payload)          machine-readable record of the last sweep

plus the work queue of distributed sweeps (``queue``, ``claims``,
``failures``, ``completions``, ``counters``).  The simulation engine
reads traces from file paths, so a trace blob is materialized on first
use into the ``<store>.traces/`` sidecar directory beside the file; the
sidecar is a cache, not part of the store.

Every write is one transaction, so a sweep killed mid-run leaves only
complete rows behind and a re-invocation resumes exactly at the first
unfinished cell.  Rows carry the full internal state of a
:class:`~repro.sim.metrics.SimulationResult`
(:func:`repro.sim.export.result_to_state`), so a cache hit is
byte-identical to a fresh simulation.

The lease protocol the distributed
:class:`~repro.sweep.backends.WorkQueueBackend` is built on:

* :meth:`ResultStore.claim` atomically acquires a lease keyed on the
  job's content-hash digest — at most one live lease per digest, and a
  digest that already has a result (or a failure tombstone) is never
  claimable, which is the exactly-once argument's first half.
* :meth:`ResultStore.renew` heartbeats the lease; a worker that dies
  (SIGKILL, host loss) simply stops renewing, and after expiry the next
  claim *reclaims* the lease (recorded in a persistent reclaim counter).
  Because every job is deterministic and result rows are written
  atomically, the rare double-execution race (an owner whose heartbeat
  stalls past the TTL while a reclaimer runs the same job) produces
  byte-identical rows — the protocol guarantees exactly-once *effect*,
  at-least-once execution.
* ``attempts`` ride inside the claim row and survive release/reclaim, so
  a poison job (one that keeps killing its workers) exhausts its retry
  budget instead of looping forever.

Every lease transition runs inside ``BEGIN IMMEDIATE``, so claim, renew,
release and reclaim are serialized by SQLite's write lock.  Connections
are per thread (the heartbeat thread gets its own), and worker
processes reopen the store from its :attr:`ResultStore.spec` rather
than inheriting a connection.
"""

from __future__ import annotations

import io
import json
import os
import sqlite3
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import (Callable, Dict, Iterable, Iterator, List, Optional,
                    Set, Union)

from ..common.atomic import fsync_atomic_write
from ..common.errors import LeaseError, SweepError
from ..common.types import MemoryRequest
from ..sim.export import result_from_state, result_to_state
from ..sim.metrics import SimulationResult
from ..workloads.trace import write_trace
from .job import JobSpec

__all__ = ["LeaseClaim", "ResultStore", "job_meta", "open_store"]

_SCHEMA = """
CREATE TABLE IF NOT EXISTS results (
    digest TEXT PRIMARY KEY, payload TEXT NOT NULL);
CREATE TABLE IF NOT EXISTS obs (
    digest TEXT PRIMARY KEY, payload TEXT NOT NULL);
CREATE TABLE IF NOT EXISTS traces (
    trace_id TEXT PRIMARY KEY, data BLOB NOT NULL);
CREATE TABLE IF NOT EXISTS manifest (
    id INTEGER PRIMARY KEY CHECK (id = 1), payload TEXT NOT NULL);
CREATE TABLE IF NOT EXISTS queue (
    digest TEXT PRIMARY KEY, payload TEXT NOT NULL);
CREATE TABLE IF NOT EXISTS claims (
    digest TEXT PRIMARY KEY, worker TEXT, expires_unix REAL NOT NULL,
    attempts INTEGER NOT NULL DEFAULT 0);
CREATE TABLE IF NOT EXISTS failures (
    digest TEXT PRIMARY KEY, error TEXT NOT NULL,
    attempts INTEGER NOT NULL);
CREATE TABLE IF NOT EXISTS completions (
    digest TEXT NOT NULL, worker TEXT NOT NULL, duration_s REAL NOT NULL,
    attempts INTEGER NOT NULL, finished_unix REAL NOT NULL);
CREATE TABLE IF NOT EXISTS counters (
    key TEXT PRIMARY KEY, value INTEGER NOT NULL);
"""


@dataclass(frozen=True)
class LeaseClaim:
    """One acquired lease: who holds it, until when, and which try it is."""

    digest: str
    worker: str
    expires_unix: float
    #: 1-based count of lease acquisitions for this digest (including this
    #: one); reclaims of expired leases keep counting, so this doubles as
    #: the attempt number for retry budgeting.
    attempts: int


class ResultStore:
    """Persists simulation results keyed by job content hash.

    Args:
        path: the store file, created on demand.

    Raises:
        SweepError: when ``path`` is an existing directory — a store of
            the removed directory layout — before anything is created.
    """

    #: How long a writer waits on a contended database lock.
    BUSY_TIMEOUT_MS = 30_000

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        if self.path.is_dir():
            raise SweepError(
                f"store {str(self.path)!r} is a directory: the directory "
                f"store layout was removed, and a sweep store is now one "
                f"SQLite file; name a file path instead")
        self.path.parent.mkdir(parents=True, exist_ok=True)
        #: Local sidecar cache where trace blobs are materialized for the
        #: file-based trace reader; not part of the authoritative store.
        self.trace_cache_dir = Path(f"{self.path}.traces")
        self._local = threading.local()
        self._conns: List[sqlite3.Connection] = []
        self._conns_lock = threading.Lock()
        with self._conn() as conn:
            conn.executescript(_SCHEMA)

    @property
    def spec(self) -> str:
        """A string from which another process can reopen this store."""
        return str(self.path)

    def _conn(self) -> sqlite3.Connection:
        conn = getattr(self._local, "conn", None)
        if conn is None:
            conn = sqlite3.connect(str(self.path),
                                   timeout=self.BUSY_TIMEOUT_MS / 1000.0)
            conn.execute("PRAGMA journal_mode=WAL")
            conn.execute("PRAGMA synchronous=NORMAL")
            conn.execute(f"PRAGMA busy_timeout={self.BUSY_TIMEOUT_MS}")
            self._local.conn = conn
            with self._conns_lock:
                self._conns.append(conn)
        return conn

    def close(self) -> None:
        """Close every thread's connection; idempotent, and a later call
        reopens one."""
        with self._conns_lock:
            conns, self._conns = self._conns, []
        for conn in conns:
            try:
                conn.close()
            except sqlite3.Error:
                pass
        self._local = threading.local()

    def _select_among(self, query: str,
                      digests: Iterable[str]) -> List[tuple]:
        """Rows of ``query`` whose ``digest`` is one of ``digests``
        (``results`` and ``failures`` look each up by primary key).

        The digests travel as one JSON array, so the statement text is
        the same for any number of them: an ``IN (?, ...)`` list would
        leave one cached prepared statement per list length (1.8 MiB
        over a sweep's polls) and hit the host-parameter limit."""
        return self._conn().execute(
            f"{query} WHERE digest IN (SELECT value FROM json_each(?))",
            (json.dumps(list(digests)),)).fetchall()

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------

    def __contains__(self, digest: str) -> bool:
        return self._conn().execute(
            "SELECT 1 FROM results WHERE digest = ?",
            (digest,)).fetchone() is not None

    def __len__(self) -> int:
        return self._conn().execute(
            "SELECT COUNT(*) FROM results").fetchone()[0]

    def iter_digests(self) -> Iterator[str]:
        """All stored result digests in sorted order."""
        rows = self._conn().execute(
            "SELECT digest FROM results ORDER BY digest").fetchall()
        for (digest,) in rows:
            yield digest

    def results_among(self, digests: Iterable[str]) -> Set[str]:
        """The members of ``digests`` that have a result row.  The cost
        grows with ``digests``, not with the number of rows stored."""
        return {row[0] for row in self._select_among(
            "SELECT digest FROM results", digests)}

    def get(self, digest: str) -> Optional[SimulationResult]:
        """The stored result for ``digest``, or ``None`` on a miss.

        Corrupt or version-incompatible rows (e.g. a row written by a
        future schema) read as misses rather than errors: the scheduler
        simply re-simulates the cell and overwrites the bad row.
        """
        row = self._conn().execute(
            "SELECT payload FROM results WHERE digest = ?",
            (digest,)).fetchone()
        if row is None:
            return None
        try:
            return result_from_state(json.loads(row[0])["result"])
        except (ValueError, KeyError, TypeError):
            return None

    def put(self, digest: str, result: SimulationResult,
            job: Optional[Dict] = None) -> None:
        """Atomically persist one result row."""
        payload = {"job": job or {}, "result": result_to_state(result)}
        # No sort_keys: dict insertion order must survive the round trip —
        # derived sums (e.g. total_energy_nj) iterate the energy dict, and
        # float addition is not associative, so reordering keys would make
        # cached cells differ from fresh ones in the last ulp.
        with self._conn() as conn:
            conn.execute(
                "INSERT OR REPLACE INTO results (digest, payload) "
                "VALUES (?, ?)", (digest, json.dumps(payload)))

    # ------------------------------------------------------------------
    # Observability reports
    # ------------------------------------------------------------------

    def put_obs(self, digest: str, report: Dict) -> None:
        """Atomically persist one observability report.

        Reports are stored beside — not inside — the result rows: a
        result row's digest (and therefore cache identity) must not
        depend on whether its run happened to carry instrumentation.
        """
        with self._conn() as conn:
            conn.execute(
                "INSERT OR REPLACE INTO obs (digest, payload) VALUES (?, ?)",
                (digest, json.dumps(report, sort_keys=True)))

    def get_obs(self, digest: str) -> Optional[Dict]:
        """The stored observability report, or ``None`` on a miss."""
        row = self._conn().execute(
            "SELECT payload FROM obs WHERE digest = ?", (digest,)).fetchone()
        if row is None:
            return None
        try:
            payload = json.loads(row[0])
        except ValueError:
            return None
        return payload if isinstance(payload, dict) else None

    # ------------------------------------------------------------------
    # Shared traces
    # ------------------------------------------------------------------

    def has_trace(self, trace_id: str) -> bool:
        return self._conn().execute(
            "SELECT 1 FROM traces WHERE trace_id = ?",
            (trace_id,)).fetchone() is not None

    def trace_path(self, trace_id: str) -> Path:
        """A local file holding a stored trace, materialized into the
        sidecar directory on first use.

        Raises:
            FileNotFoundError: when the trace is not in the store.
        """
        cached = self.trace_cache_dir / f"{trace_id}.esdtrace"
        if cached.exists():
            return cached
        row = self._conn().execute(
            "SELECT data FROM traces WHERE trace_id = ?",
            (trace_id,)).fetchone()
        if row is None:
            raise FileNotFoundError(f"trace {trace_id!r} not in store")
        self.trace_cache_dir.mkdir(parents=True, exist_ok=True)
        fsync_atomic_write(cached, bytes(row[0]))
        return cached

    def ensure_trace(self, trace_id: str,
                     generate: Callable[[], List[MemoryRequest]]) -> Path:
        """Return a local file for ``trace_id``, generating it on miss.

        Two processes that race to generate one trace store identical
        bytes (generation is deterministic), so the second insert is a
        no-op.
        """
        if not self.has_trace(trace_id):
            buffer = io.BytesIO()
            write_trace(generate(), buffer)
            with self._conn() as conn:
                conn.execute(
                    "INSERT OR IGNORE INTO traces (trace_id, data) "
                    "VALUES (?, ?)", (trace_id, buffer.getvalue()))
        return self.trace_path(trace_id)

    # ------------------------------------------------------------------
    # Manifest
    # ------------------------------------------------------------------

    def write_manifest(self, manifest: Dict) -> None:
        with self._conn() as conn:
            conn.execute(
                "INSERT OR REPLACE INTO manifest (id, payload) "
                "VALUES (1, ?)",
                (json.dumps(manifest, indent=2, sort_keys=True),))

    def read_manifest(self) -> Optional[Dict]:
        row = self._conn().execute(
            "SELECT payload FROM manifest WHERE id = 1").fetchone()
        if row is None:
            return None
        try:
            return json.loads(row[0])
        except ValueError:
            return None

    # ------------------------------------------------------------------
    # Work queue (lease-based distributed execution)
    # ------------------------------------------------------------------

    def enqueue(self, digest: str, payload: Dict) -> None:
        """Idempotently publish one job for workers to claim."""
        with self._conn() as conn:
            conn.execute(
                "INSERT OR IGNORE INTO queue (digest, payload) "
                "VALUES (?, ?)", (digest, json.dumps(payload, sort_keys=True)))

    def queue_payload(self, digest: str) -> Optional[Dict]:
        row = self._conn().execute(
            "SELECT payload FROM queue WHERE digest = ?",
            (digest,)).fetchone()
        if row is None:
            return None
        try:
            payload = json.loads(row[0])
        except ValueError:
            return None
        return payload if isinstance(payload, dict) else None

    def iter_queue(self) -> List[str]:
        """Digests of every enqueued job (terminal or not), sorted."""
        rows = self._conn().execute(
            "SELECT digest FROM queue ORDER BY digest").fetchall()
        return [digest for (digest,) in rows]

    def claim(self, digest: str, worker: str,
              ttl_s: float) -> Optional[LeaseClaim]:
        """Atomically acquire (or reclaim an expired) lease on ``digest``.

        Returns ``None`` when the digest already has a result or failure
        tombstone, or when another worker holds a live lease.
        """
        now = time.time()
        conn = self._conn()
        try:
            conn.execute("BEGIN IMMEDIATE")
            if conn.execute("SELECT 1 FROM results WHERE digest = ?",
                            (digest,)).fetchone() or \
                    conn.execute("SELECT 1 FROM failures WHERE digest = ?",
                                 (digest,)).fetchone():
                conn.execute("ROLLBACK")
                return None
            row = conn.execute(
                "SELECT worker, expires_unix, attempts FROM claims "
                "WHERE digest = ?", (digest,)).fetchone()
            if row is None:
                attempts = 1
                conn.execute(
                    "INSERT INTO claims (digest, worker, expires_unix, "
                    "attempts) VALUES (?, ?, ?, ?)",
                    (digest, worker, now + ttl_s, attempts))
            else:
                old_worker, expires, attempts = row
                if old_worker and expires > now:
                    conn.execute("ROLLBACK")
                    return None
                attempts = int(attempts) + 1
                conn.execute(
                    "UPDATE claims SET worker = ?, expires_unix = ?, "
                    "attempts = ? WHERE digest = ?",
                    (worker, now + ttl_s, attempts, digest))
                if old_worker:  # expired live lease, not a clean release
                    conn.execute(
                        "INSERT INTO counters (key, value) VALUES "
                        "('reclaims', 1) ON CONFLICT(key) DO UPDATE SET "
                        "value = value + 1")
            conn.execute("COMMIT")
        except sqlite3.Error:
            try:
                conn.execute("ROLLBACK")
            except sqlite3.Error:
                pass
            return None
        return LeaseClaim(digest, worker, now + ttl_s, attempts)

    def renew(self, digest: str, worker: str, ttl_s: float) -> bool:
        """Extend a held lease; ``False`` when the lease was lost."""
        with self._conn() as conn:
            cursor = conn.execute(
                "UPDATE claims SET expires_unix = ? WHERE digest = ? "
                "AND worker = ?", (time.time() + ttl_s, digest, worker))
            return cursor.rowcount > 0

    def release(self, digest: str, worker: str) -> None:
        """Drop a held lease (attempt count is preserved).

        Raises:
            LeaseError: when another worker holds the lease.
        """
        with self._conn() as conn:
            row = conn.execute(
                "SELECT worker FROM claims WHERE digest = ?",
                (digest,)).fetchone()
            if row is None:
                return
            if row[0] is not None and row[0] != worker:
                raise LeaseError(
                    f"release of lease on {digest[:12]} by {worker!r}, "
                    f"held by {row[0]!r}")
            conn.execute(
                "UPDATE claims SET worker = NULL, expires_unix = 0 "
                "WHERE digest = ?", (digest,))

    def claim_info(self, digest: str) -> Optional[LeaseClaim]:
        """The current claim row (live, expired, or released), if any."""
        row = self._conn().execute(
            "SELECT worker, expires_unix, attempts FROM claims "
            "WHERE digest = ?", (digest,)).fetchone()
        if row is None:
            return None
        return LeaseClaim(digest, row[0] or "", float(row[1]), int(row[2]))

    def live_claims(self) -> List[LeaseClaim]:
        """All unexpired leases (worker-liveness signal)."""
        rows = self._conn().execute(
            "SELECT digest, worker, expires_unix, attempts FROM claims "
            "WHERE worker IS NOT NULL AND expires_unix > ?",
            (time.time(),)).fetchall()
        return [LeaseClaim(d, w, float(e), int(a)) for d, w, e, a in rows]

    def reclaim_count(self) -> int:
        """Cumulative count of expired-lease reclamations in this store."""
        row = self._conn().execute(
            "SELECT value FROM counters WHERE key = 'reclaims'").fetchone()
        return int(row[0]) if row else 0

    def mark_failed(self, digest: str, error: str, attempts: int) -> None:
        """Write a terminal failure tombstone for ``digest``."""
        with self._conn() as conn:
            conn.execute(
                "INSERT OR REPLACE INTO failures (digest, error, attempts) "
                "VALUES (?, ?, ?)", (digest, error, attempts))

    def get_failure(self, digest: str) -> Optional[Dict]:
        row = self._conn().execute(
            "SELECT error, attempts FROM failures WHERE digest = ?",
            (digest,)).fetchone()
        if row is None:
            return None
        return {"error": row[0], "attempts": int(row[1])}

    def failures_among(self, digests: Iterable[str]) -> Set[str]:
        """The members of ``digests`` that have a failure tombstone."""
        return {row[0] for row in self._select_among(
            "SELECT digest FROM failures", digests)}

    def record_completion(self, digest: str, worker: str,
                          duration_s: float, attempts: int) -> None:
        """Log one finished execution (telemetry, not result identity)."""
        with self._conn() as conn:
            conn.execute(
                "INSERT INTO completions (digest, worker, duration_s, "
                "attempts, finished_unix) VALUES (?, ?, ?, ?, ?)",
                (digest, worker, duration_s, attempts, time.time()))

    def completions(self, digests: Optional[Iterable[str]] = None
                    ) -> List[Dict]:
        """Completion log entries: all of them, or only those of
        ``digests``."""
        query = ("SELECT digest, worker, duration_s, attempts, "
                 "finished_unix FROM completions")
        if digests is None:
            rows = self._conn().execute(
                f"{query} ORDER BY finished_unix").fetchall()
        else:
            rows = self._select_among(query, digests)
        return [{"digest": d, "worker": w, "duration_s": s,
                 "attempts": int(a), "finished_unix": f}
                for d, w, s, a, f in rows]


def open_store(spec: Union[str, "os.PathLike[str]", ResultStore]
               ) -> ResultStore:
    """Open a result store from its spec (or pass an open one through).

    A spec is the store file's path, bare or as ``sqlite://<path>``.

    Raises:
        SweepError: when the spec names an existing directory (a store
            of the removed directory layout).
    """
    if isinstance(spec, ResultStore):
        return spec
    path = os.fspath(spec)
    if path.startswith("sqlite://"):
        path = path[len("sqlite://"):]
    return ResultStore(path)


def job_meta(spec: JobSpec) -> Dict:
    """Human-auditable job header stored alongside each result row."""
    return {
        "app": spec.app,
        "scheme": spec.scheme,
        "requests": spec.requests,
        "seed": spec.seed,
        "digest": spec.digest(),
        "trace_id": spec.trace_id,
    }
