"""Pluggable storage backends for the sweep result store.

:class:`~repro.sweep.store.ResultStore` is a thin manager (serialization,
digests, trace generation) over one of the backends registered here; the
backend owns persistence and the concurrency-sensitive primitives.  Two
implementations ship:

* :class:`DirStorageBackend` — the original JSON-directory layout
  (``results/``, ``traces/``, ``obs/``, ``manifest.json``), bit-compatible
  with stores written before this abstraction existed.  Work-queue state
  (``queue/``, ``claims/``, ...) is created lazily, so stores that never
  run a distributed sweep keep the exact pre-existing layout.
* :class:`SqliteStorageBackend` — a single SQLite file in WAL mode, safe
  for many concurrent worker processes (including other hosts sharing the
  file over a lock-honouring filesystem).  Traces are stored as blobs and
  materialized into a local sidecar cache directory on demand, because the
  simulation engine's trace reader wants a file path.

Beyond the blob surface (results, obs reports, traces, manifest), backends
implement the lease/claims protocol the distributed
:class:`~repro.sweep.backends.WorkQueueBackend` is built on:

* ``claim(digest, worker, ttl)`` atomically acquires a lease keyed on the
  job's content-hash digest — at most one live lease per digest, and a
  digest that already has a result (or a failure tombstone) is never
  claimable, which is the exactly-once argument's first half.
* ``renew`` heartbeats the lease; a worker that dies (SIGKILL, host loss)
  simply stops renewing, and after expiry the next ``claim`` *reclaims*
  the lease (recorded in a persistent reclaim counter).  Because every job
  is deterministic and result rows are written atomically, the rare
  double-execution race (an owner whose heartbeat stalls past the TTL
  while a reclaimer runs the same job) produces byte-identical rows — the
  protocol guarantees exactly-once *effect*, at-least-once execution.
* ``attempts`` ride inside the claim row and survive release/reclaim, so
  a poison job (one that keeps killing its workers) exhausts its retry
  budget instead of looping forever.

Durability: directory-backend writes go through
:func:`fsync_atomic_write` — the temp file is fsynced before the atomic
``os.replace`` and the containing directory after it — so a crashed
worker can never leave a torn result row for the lease reclaimer to
trust.  SQLite's WAL journal gives the same guarantee transactionally.
"""

from __future__ import annotations

import abc
import io
import json
import os
import sqlite3
import tempfile
import threading
import time
import uuid
from dataclasses import dataclass
from pathlib import Path
from typing import (
    Callable,
    ClassVar,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Set,
    Type,
    Union,
)

from ..common.atomic import fsync_atomic_write
from ..common.errors import LeaseError, UnknownBackendError

__all__ = [
    "DirStorageBackend",
    "LeaseClaim",
    "SqliteStorageBackend",
    "StorageBackend",
    "fsync_atomic_write",
    "make_storage_backend",
    "parse_store_spec",
    "storage_backend_names",
]


# Atomic durable replacement now lives in repro.common.atomic (trace
# captures and checkpoints share it); re-exported here for compatibility.


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


class StorageBackend(abc.ABC):
    """Persistence contract behind :class:`~repro.sweep.store.ResultStore`.

    All payloads cross this interface as already-serialized text (or raw
    bytes for traces): the manager owns JSON encoding, the backend owns
    durability and atomicity.  Keeping the boundary byte-oriented is what
    makes dir↔sqlite migration a byte-identical copy.
    """

    #: Registry key (``--storage`` value); subclasses override.
    name: ClassVar[str] = "abstract"

    # -- identity ------------------------------------------------------

    @property
    @abc.abstractmethod
    def spec(self) -> str:
        """A string from which another process can reopen this store."""

    # -- result rows ---------------------------------------------------

    @abc.abstractmethod
    def read_result(self, digest: str) -> Optional[str]:
        """Raw result-row text, or ``None`` on a miss."""

    @abc.abstractmethod
    def write_result(self, digest: str, text: str) -> None:
        """Atomically persist one result row."""

    @abc.abstractmethod
    def iter_result_digests(self) -> Iterator[str]:
        """All stored digests in sorted order."""

    def has_result(self, digest: str) -> bool:
        return self.read_result(digest) is not None

    def results_among(self, digests: Iterable[str]) -> Set[str]:
        """The members of ``digests`` that have a result row.  The cost
        grows with ``digests``, not with the number of rows stored."""
        return {digest for digest in digests if self.has_result(digest)}

    # -- observability reports ----------------------------------------

    @abc.abstractmethod
    def read_obs(self, digest: str) -> Optional[str]: ...

    @abc.abstractmethod
    def write_obs(self, digest: str, text: str) -> None: ...

    # -- manifest ------------------------------------------------------

    @abc.abstractmethod
    def read_manifest(self) -> Optional[str]: ...

    @abc.abstractmethod
    def write_manifest(self, text: str) -> None: ...

    # -- shared traces -------------------------------------------------

    @abc.abstractmethod
    def has_trace(self, trace_id: str) -> bool: ...

    @abc.abstractmethod
    def ensure_trace(self, trace_id: str,
                     writer: Callable[[io.BufferedIOBase], None]) -> Path:
        """Persist the trace if missing; return a local file path to it."""

    @abc.abstractmethod
    def trace_local_path(self, trace_id: str) -> Path:
        """A local file path for a stored trace (materializing if needed).

        Raises:
            FileNotFoundError: when the trace is not in the store.
        """

    # -- work queue ----------------------------------------------------

    @abc.abstractmethod
    def enqueue(self, digest: str, payload: str) -> None:
        """Idempotently add one job to the shared work queue."""

    @abc.abstractmethod
    def queue_payload(self, digest: str) -> Optional[str]: ...

    @abc.abstractmethod
    def iter_queue(self) -> List[str]:
        """Digests of every enqueued job (terminal or not), sorted."""

    @abc.abstractmethod
    def claim(self, digest: str, worker: str,
              ttl_s: float) -> Optional[LeaseClaim]:
        """Atomically acquire (or reclaim an expired) lease on ``digest``.

        Returns ``None`` when the digest already has a result or failure
        tombstone, or when another worker holds a live lease.
        """

    @abc.abstractmethod
    def renew(self, digest: str, worker: str, ttl_s: float) -> bool:
        """Extend a held lease; ``False`` when the lease was lost."""

    @abc.abstractmethod
    def release(self, digest: str, worker: str) -> None:
        """Drop a held lease (attempt count is preserved)."""

    @abc.abstractmethod
    def claim_info(self, digest: str) -> Optional[LeaseClaim]:
        """The current claim row (live, expired, or released), if any."""

    @abc.abstractmethod
    def live_claims(self, now: Optional[float] = None) -> List[LeaseClaim]:
        """All unexpired leases (worker-liveness signal)."""

    @abc.abstractmethod
    def reclaim_count(self) -> int:
        """Cumulative count of expired-lease reclamations in this store."""

    @abc.abstractmethod
    def mark_failed(self, digest: str, error: str, attempts: int) -> None:
        """Write a terminal failure tombstone for ``digest``."""

    @abc.abstractmethod
    def get_failure(self, digest: str) -> Optional[Dict]: ...

    @abc.abstractmethod
    def failures_among(self, digests: Iterable[str]) -> Set[str]:
        """The members of ``digests`` that have a failure tombstone."""

    @abc.abstractmethod
    def record_completion(self, digest: str, worker: str,
                          duration_s: float, attempts: int) -> None:
        """Log one finished execution (telemetry, not result identity)."""

    @abc.abstractmethod
    def completions(self, digests: Optional[Iterable[str]] = None
                    ) -> List[Dict]:
        """Completion log entries (unordered): all of them, or only those
        of ``digests``."""

    # -- lifecycle -----------------------------------------------------

    def close(self) -> None:
        """Release backend resources (connections); idempotent."""


# ----------------------------------------------------------------------
# Directory backend
# ----------------------------------------------------------------------

class DirStorageBackend(StorageBackend):
    """The original JSON-directory layout, now with a claims protocol.

    Queue state lives in lazily created subdirectories (``queue/``,
    ``claims/``, ``failed/``, ``completions/``, ``reclaims/``) so a store
    that never runs a distributed sweep keeps the pre-backend layout
    byte-for-byte.  Lease atomicity rests on two POSIX primitives that
    are atomic even on shared filesystems: ``O_CREAT | O_EXCL`` for
    acquisition (exactly one creator wins) and ``os.rename`` for
    reclaiming an expired lease (exactly one renamer succeeds; the losers
    get ``FileNotFoundError``).
    """

    name = "dir"

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)
        self.results_dir = self.root / "results"
        self.traces_dir = self.root / "traces"
        #: Created lazily by :meth:`write_obs` — stores from sweeps that
        #: never enable observability keep the pre-obs layout.
        self.obs_dir = self.root / "obs"
        self.queue_dir = self.root / "queue"
        self.claims_dir = self.root / "claims"
        self.failed_dir = self.root / "failed"
        self.completions_dir = self.root / "completions"
        self.reclaims_dir = self.root / "reclaims"
        self.results_dir.mkdir(parents=True, exist_ok=True)
        self.traces_dir.mkdir(parents=True, exist_ok=True)

    @property
    def spec(self) -> str:
        return str(self.root)

    # -- results -------------------------------------------------------

    def result_path(self, digest: str) -> Path:
        return self.results_dir / f"{digest}.json"

    def read_result(self, digest: str) -> Optional[str]:
        try:
            return self.result_path(digest).read_text()
        except FileNotFoundError:
            return None

    def write_result(self, digest: str, text: str) -> None:
        fsync_atomic_write(self.result_path(digest), text)

    def iter_result_digests(self) -> Iterator[str]:
        for path in sorted(self.results_dir.glob("*.json")):
            yield path.stem

    def has_result(self, digest: str) -> bool:
        return self.result_path(digest).exists()

    # -- obs -----------------------------------------------------------

    def obs_path(self, digest: str) -> Path:
        return self.obs_dir / f"{digest}.json"

    def read_obs(self, digest: str) -> Optional[str]:
        try:
            return self.obs_path(digest).read_text()
        except FileNotFoundError:
            return None

    def write_obs(self, digest: str, text: str) -> None:
        self.obs_dir.mkdir(parents=True, exist_ok=True)
        fsync_atomic_write(self.obs_path(digest), text)

    # -- manifest ------------------------------------------------------

    @property
    def manifest_path(self) -> Path:
        return self.root / "manifest.json"

    def read_manifest(self) -> Optional[str]:
        try:
            return self.manifest_path.read_text()
        except FileNotFoundError:
            return None

    def write_manifest(self, text: str) -> None:
        fsync_atomic_write(self.manifest_path, text)

    # -- traces --------------------------------------------------------

    def trace_path(self, trace_id: str) -> Path:
        return self.traces_dir / f"{trace_id}.esdtrace"

    def has_trace(self, trace_id: str) -> bool:
        return self.trace_path(trace_id).exists()

    def ensure_trace(self, trace_id: str,
                     writer: Callable[[io.BufferedIOBase], None]) -> Path:
        path = self.trace_path(trace_id)
        if path.exists():
            return path
        fd, tmp = tempfile.mkstemp(dir=str(path.parent),
                                   prefix=f".{path.name}.", suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                writer(fh)
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        return path

    def trace_local_path(self, trace_id: str) -> Path:
        path = self.trace_path(trace_id)
        if not path.exists():
            raise FileNotFoundError(f"trace {trace_id!r} not in store")
        return path

    # -- work queue ----------------------------------------------------

    def _queue_path(self, digest: str) -> Path:
        return self.queue_dir / f"{digest}.json"

    def _claim_path(self, digest: str) -> Path:
        return self.claims_dir / f"{digest}.json"

    def _failed_path(self, digest: str) -> Path:
        return self.failed_dir / f"{digest}.json"

    def enqueue(self, digest: str, payload: str) -> None:
        self.queue_dir.mkdir(parents=True, exist_ok=True)
        path = self._queue_path(digest)
        if not path.exists():
            fsync_atomic_write(path, payload)

    def queue_payload(self, digest: str) -> Optional[str]:
        try:
            return self._queue_path(digest).read_text()
        except FileNotFoundError:
            return None

    def iter_queue(self) -> List[str]:
        if not self.queue_dir.exists():
            return []
        return sorted(p.stem for p in self.queue_dir.glob("*.json"))

    def _read_claim(self, digest: str) -> Optional[Dict]:
        try:
            payload = json.loads(self._claim_path(digest).read_text())
        except (FileNotFoundError, ValueError):
            return None
        return payload if isinstance(payload, dict) else None

    def claim(self, digest: str, worker: str,
              ttl_s: float) -> Optional[LeaseClaim]:
        if self.has_result(digest) or self.get_failure(digest) is not None:
            return None
        self.claims_dir.mkdir(parents=True, exist_ok=True)
        path = self._claim_path(digest)
        now = time.time()
        prior = self._read_claim(digest)
        prior_attempts = int(prior.get("attempts", 0)) if prior else 0
        try:
            fd = os.open(str(path), os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            existing = self._read_claim(digest)
            if existing is None:
                # Mid-replace or corrupt: treat as live and retry later.
                return None
            if existing.get("worker") and \
                    float(existing.get("expires_unix", 0.0)) > now:
                return None  # live lease held by someone else
            # Expired (or released): exactly one reclaimer wins the rename.
            stale = self.claims_dir / f".{digest}.stale.{uuid.uuid4().hex}"
            try:
                os.rename(path, stale)
            except OSError:
                return None  # another reclaimer won
            try:
                os.unlink(stale)
            except OSError:
                pass
            if existing.get("worker"):
                self._log_reclaim(digest, existing["worker"], worker)
            prior_attempts = int(existing.get("attempts", 0))
            try:
                fd = os.open(str(path),
                             os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            except FileExistsError:
                return None  # raced with a fresh claimant
        attempts = prior_attempts + 1
        record = {"worker": worker, "expires_unix": now + ttl_s,
                  "attempts": attempts}
        with os.fdopen(fd, "w") as fh:
            fh.write(json.dumps(record))
            fh.flush()
            os.fsync(fh.fileno())
        return LeaseClaim(digest, worker, record["expires_unix"], attempts)

    def renew(self, digest: str, worker: str, ttl_s: float) -> bool:
        existing = self._read_claim(digest)
        if existing is None or existing.get("worker") != worker:
            return False
        existing["expires_unix"] = time.time() + ttl_s
        fsync_atomic_write(self._claim_path(digest), json.dumps(existing))
        return True

    def release(self, digest: str, worker: str) -> None:
        existing = self._read_claim(digest)
        if existing is None:
            return
        if existing.get("worker") != worker:
            raise LeaseError(
                f"release of lease on {digest[:12]} by {worker!r}, held "
                f"by {existing.get('worker')!r}")
        # Keep the attempt count, drop ownership: a released claim is
        # immediately re-claimable without counting as a reclaim.
        existing["worker"] = None
        existing["expires_unix"] = 0.0
        fsync_atomic_write(self._claim_path(digest), json.dumps(existing))

    def claim_info(self, digest: str) -> Optional[LeaseClaim]:
        existing = self._read_claim(digest)
        if existing is None:
            return None
        return LeaseClaim(digest, existing.get("worker") or "",
                          float(existing.get("expires_unix", 0.0)),
                          int(existing.get("attempts", 0)))

    def live_claims(self, now: Optional[float] = None) -> List[LeaseClaim]:
        now = time.time() if now is None else now
        out = []
        if not self.claims_dir.exists():
            return out
        for path in self.claims_dir.glob("*.json"):
            info = self.claim_info(path.stem)
            if info is not None and info.worker and info.expires_unix > now:
                out.append(info)
        return out

    def _log_reclaim(self, digest: str, old_worker: str,
                     new_worker: str) -> None:
        self.reclaims_dir.mkdir(parents=True, exist_ok=True)
        fsync_atomic_write(
            self.reclaims_dir / f"{uuid.uuid4().hex}.json",
            json.dumps({"digest": digest, "from": old_worker,
                        "to": new_worker, "at_unix": time.time()}))

    def reclaim_count(self) -> int:
        if not self.reclaims_dir.exists():
            return 0
        return sum(1 for _ in self.reclaims_dir.glob("*.json"))

    def mark_failed(self, digest: str, error: str, attempts: int) -> None:
        self.failed_dir.mkdir(parents=True, exist_ok=True)
        fsync_atomic_write(
            self._failed_path(digest),
            json.dumps({"error": error, "attempts": attempts}))

    def get_failure(self, digest: str) -> Optional[Dict]:
        try:
            payload = json.loads(self._failed_path(digest).read_text())
        except (FileNotFoundError, ValueError):
            return None
        return payload if isinstance(payload, dict) else None

    def failures_among(self, digests: Iterable[str]) -> Set[str]:
        if not self.failed_dir.exists():
            return set()
        return {digest for digest in digests
                if self._failed_path(digest).exists()}

    def record_completion(self, digest: str, worker: str,
                          duration_s: float, attempts: int) -> None:
        self.completions_dir.mkdir(parents=True, exist_ok=True)
        fsync_atomic_write(
            self.completions_dir / f"{digest}.{uuid.uuid4().hex[:8]}.json",
            json.dumps({"digest": digest, "worker": worker,
                        "duration_s": duration_s, "attempts": attempts,
                        "finished_unix": time.time()}))

    def completions(self, digests: Optional[Iterable[str]] = None
                    ) -> List[Dict]:
        out = []
        if not self.completions_dir.exists():
            return out
        wanted = None if digests is None else set(digests)
        for path in sorted(self.completions_dir.glob("*.json")):
            # File names are ``<digest>.<nonce>.json``: only the wanted
            # rows are read.
            if wanted is not None \
                    and path.name.split(".", 1)[0] not in wanted:
                continue
            try:
                payload = json.loads(path.read_text())
            except (OSError, ValueError):
                continue
            if isinstance(payload, dict):
                out.append(payload)
        return out


# ----------------------------------------------------------------------
# SQLite backend
# ----------------------------------------------------------------------

_SQLITE_SCHEMA = """
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


class SqliteStorageBackend(StorageBackend):
    """Single-file store: WAL journal, concurrent-worker-safe claims.

    Every lease transition runs inside ``BEGIN IMMEDIATE``, so claim /
    renew / release / reclaim are serialized by SQLite's write lock —
    the textbook claims-table design.  Connections are per-thread (the
    heartbeat thread gets its own), and worker processes reopen the
    store from its spec string rather than inheriting a connection.
    """

    name = "sqlite"

    #: How long a writer waits on a contended database lock.
    BUSY_TIMEOUT_MS = 30_000

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        #: Local sidecar cache where trace blobs are materialized for the
        #: file-based trace reader; not part of the authoritative store.
        self.trace_cache_dir = Path(f"{self.path}.traces")
        self._local = threading.local()
        self._conns: List[sqlite3.Connection] = []
        self._conns_lock = threading.Lock()
        with self._conn() as conn:
            conn.executescript(_SQLITE_SCHEMA)

    @property
    def spec(self) -> str:
        return f"sqlite://{self.path}"

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
        with self._conns_lock:
            conns, self._conns = self._conns, []
        for conn in conns:
            try:
                conn.close()
            except sqlite3.Error:
                pass
        self._local = threading.local()

    # -- results -------------------------------------------------------

    def read_result(self, digest: str) -> Optional[str]:
        row = self._conn().execute(
            "SELECT payload FROM results WHERE digest = ?",
            (digest,)).fetchone()
        return row[0] if row else None

    def write_result(self, digest: str, text: str) -> None:
        with self._conn() as conn:
            conn.execute(
                "INSERT OR REPLACE INTO results (digest, payload) "
                "VALUES (?, ?)", (digest, text))

    def iter_result_digests(self) -> Iterator[str]:
        rows = self._conn().execute(
            "SELECT digest FROM results ORDER BY digest").fetchall()
        for (digest,) in rows:
            yield digest

    def has_result(self, digest: str) -> bool:
        return self._conn().execute(
            "SELECT 1 FROM results WHERE digest = ?",
            (digest,)).fetchone() is not None

    def results_among(self, digests: Iterable[str]) -> Set[str]:
        return {row[0] for row in self._select_among(
            "SELECT digest FROM results", digests)}

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

    # -- obs -----------------------------------------------------------

    def read_obs(self, digest: str) -> Optional[str]:
        row = self._conn().execute(
            "SELECT payload FROM obs WHERE digest = ?", (digest,)).fetchone()
        return row[0] if row else None

    def write_obs(self, digest: str, text: str) -> None:
        with self._conn() as conn:
            conn.execute(
                "INSERT OR REPLACE INTO obs (digest, payload) VALUES (?, ?)",
                (digest, text))

    # -- manifest ------------------------------------------------------

    def read_manifest(self) -> Optional[str]:
        row = self._conn().execute(
            "SELECT payload FROM manifest WHERE id = 1").fetchone()
        return row[0] if row else None

    def write_manifest(self, text: str) -> None:
        with self._conn() as conn:
            conn.execute(
                "INSERT OR REPLACE INTO manifest (id, payload) "
                "VALUES (1, ?)", (text,))

    # -- traces --------------------------------------------------------

    def has_trace(self, trace_id: str) -> bool:
        return self._conn().execute(
            "SELECT 1 FROM traces WHERE trace_id = ?",
            (trace_id,)).fetchone() is not None

    def _cache_path(self, trace_id: str) -> Path:
        return self.trace_cache_dir / f"{trace_id}.esdtrace"

    def ensure_trace(self, trace_id: str,
                     writer: Callable[[io.BufferedIOBase], None]) -> Path:
        if not self.has_trace(trace_id):
            buffer = io.BytesIO()
            writer(buffer)
            with self._conn() as conn:
                # OR IGNORE: a concurrent generator of the same trace id
                # wrote identical bytes (deterministic generation).
                conn.execute(
                    "INSERT OR IGNORE INTO traces (trace_id, data) "
                    "VALUES (?, ?)", (trace_id, buffer.getvalue()))
        return self.trace_local_path(trace_id)

    def trace_local_path(self, trace_id: str) -> Path:
        cached = self._cache_path(trace_id)
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

    # -- work queue ----------------------------------------------------

    def enqueue(self, digest: str, payload: str) -> None:
        with self._conn() as conn:
            conn.execute(
                "INSERT OR IGNORE INTO queue (digest, payload) "
                "VALUES (?, ?)", (digest, payload))

    def queue_payload(self, digest: str) -> Optional[str]:
        row = self._conn().execute(
            "SELECT payload FROM queue WHERE digest = ?",
            (digest,)).fetchone()
        return row[0] if row else None

    def iter_queue(self) -> List[str]:
        rows = self._conn().execute(
            "SELECT digest FROM queue ORDER BY digest").fetchall()
        return [digest for (digest,) in rows]

    def claim(self, digest: str, worker: str,
              ttl_s: float) -> Optional[LeaseClaim]:
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
        with self._conn() as conn:
            cursor = conn.execute(
                "UPDATE claims SET expires_unix = ? WHERE digest = ? "
                "AND worker = ?", (time.time() + ttl_s, digest, worker))
            return cursor.rowcount > 0

    def release(self, digest: str, worker: str) -> None:
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
        row = self._conn().execute(
            "SELECT worker, expires_unix, attempts FROM claims "
            "WHERE digest = ?", (digest,)).fetchone()
        if row is None:
            return None
        return LeaseClaim(digest, row[0] or "", float(row[1]), int(row[2]))

    def live_claims(self, now: Optional[float] = None) -> List[LeaseClaim]:
        now = time.time() if now is None else now
        rows = self._conn().execute(
            "SELECT digest, worker, expires_unix, attempts FROM claims "
            "WHERE worker IS NOT NULL AND expires_unix > ?",
            (now,)).fetchall()
        return [LeaseClaim(d, w, float(e), int(a)) for d, w, e, a in rows]

    def reclaim_count(self) -> int:
        row = self._conn().execute(
            "SELECT value FROM counters WHERE key = 'reclaims'").fetchone()
        return int(row[0]) if row else 0

    def mark_failed(self, digest: str, error: str, attempts: int) -> None:
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
        return {row[0] for row in self._select_among(
            "SELECT digest FROM failures", digests)}

    def record_completion(self, digest: str, worker: str,
                          duration_s: float, attempts: int) -> None:
        with self._conn() as conn:
            conn.execute(
                "INSERT INTO completions (digest, worker, duration_s, "
                "attempts, finished_unix) VALUES (?, ?, ?, ?, ?)",
                (digest, worker, duration_s, attempts, time.time()))

    def completions(self, digests: Optional[Iterable[str]] = None
                    ) -> List[Dict]:
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


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------

#: Registered storage backends, keyed by their ``--storage`` name.
STORAGE_BACKENDS: Dict[str, Type[StorageBackend]] = {
    DirStorageBackend.name: DirStorageBackend,
    SqliteStorageBackend.name: SqliteStorageBackend,
}


def storage_backend_names() -> List[str]:
    """Registered storage backend names, sorted."""
    return sorted(STORAGE_BACKENDS)


def make_storage_backend(name: str,
                         path: Union[str, Path]) -> StorageBackend:
    """Instantiate a registered storage backend by name.

    Raises:
        UnknownBackendError: listing the registered names, mirroring the
            scheme registry's unknown-scheme error.
    """
    try:
        cls = STORAGE_BACKENDS[name]
    except KeyError:
        raise UnknownBackendError(
            f"unknown storage backend {name!r}; registered backends: "
            f"{', '.join(storage_backend_names())}") from None
    return cls(path)


def parse_store_spec(spec: str,
                     storage: Optional[str] = None) -> StorageBackend:
    """Open a storage backend from a CLI-style store spec.

    ``sqlite://<path>`` forces the SQLite backend; otherwise ``storage``
    picks the backend explicitly, and when that is ``None`` the choice is
    inferred: paths ending in ``.sqlite``/``.sqlite3``/``.db`` (or naming
    an existing regular file) open as SQLite, everything else as the
    default directory layout — so every pre-existing store spec keeps
    meaning exactly what it meant before.
    """
    spec = str(spec)
    if spec.startswith("sqlite://"):
        path = spec[len("sqlite://"):]
        if storage not in (None, SqliteStorageBackend.name):
            raise UnknownBackendError(
                f"store spec {spec!r} is sqlite but --storage is "
                f"{storage!r}")
        return SqliteStorageBackend(path)
    if storage is not None:
        return make_storage_backend(storage, spec)
    path = Path(spec)
    if path.suffix in (".sqlite", ".sqlite3", ".db") or path.is_file():
        return SqliteStorageBackend(path)
    return DirStorageBackend(path)
