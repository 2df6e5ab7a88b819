"""Content-addressed store for sweep results, as a manager over a backend.

:class:`ResultStore` owns serialization policy (what a result row, obs
report, or manifest looks like as text) and delegates persistence to a
pluggable :class:`~repro.sweep.storage.StorageBackend` — the
manager-over-backend split.  The default backend is the original
JSON-directory layout (bit-compatible with stores written before the
split)::

    results/<job-digest>.json   one simulated cell, full-fidelity state
    traces/<trace-id>.esdtrace  shared per-application request stream
    obs/<job-digest>.json       observability report (only when the sweep
                                ran with observability enabled)
    manifest.json               machine-readable record of the last sweep

plus, only when a distributed sweep runs, work-queue state (``queue/``,
``claims/``, ``failed/``, ``completions/``, ``reclaims/``).  The SQLite
backend packs the same store into one WAL-mode file safe for concurrent
workers.

Result rows are written atomically and durably (temp file + fsync +
``os.replace`` + directory fsync), so a sweep killed mid-run leaves only
complete rows behind and a re-invocation resumes exactly at the first
unfinished cell.  Rows carry the full internal state of a
:class:`~repro.sim.metrics.SimulationResult`
(:func:`repro.sim.export.result_to_state`), so a cache hit is
byte-identical to a fresh simulation.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import (Callable, Dict, Iterable, Iterator, List, Optional,
                    Set, Union)

from ..common.types import MemoryRequest
from ..sim.export import result_from_state, result_to_state
from ..sim.metrics import SimulationResult
from ..workloads.trace import read_trace_list, write_trace
from .job import JobSpec
from .storage import (
    DirStorageBackend,
    LeaseClaim,
    StorageBackend,
    parse_store_spec,
)

__all__ = ["ResultStore", "job_meta", "migrate_store", "open_store"]


class ResultStore:
    """Persists simulation results keyed by job content hash.

    Args:
        root: directory for the default :class:`DirStorageBackend`
            layout; mutually exclusive with ``backend``.
        backend: an explicit storage backend (directory, SQLite, ...).
    """

    def __init__(self, root: Union[str, Path, None] = None, *,
                 backend: Optional[StorageBackend] = None) -> None:
        if (root is None) == (backend is None):
            raise ValueError("pass exactly one of root or backend")
        self.backend = backend if backend is not None \
            else DirStorageBackend(Path(root))

    # ------------------------------------------------------------------
    # Directory-layout accessors (delegate to the dir backend; absent on
    # backends without a per-row filesystem layout)
    # ------------------------------------------------------------------

    @property
    def root(self) -> Path:
        return self.backend.root  # type: ignore[attr-defined]

    @property
    def results_dir(self) -> Path:
        return self.backend.results_dir  # type: ignore[attr-defined]

    @property
    def traces_dir(self) -> Path:
        return self.backend.traces_dir  # type: ignore[attr-defined]

    @property
    def obs_dir(self) -> Path:
        return self.backend.obs_dir  # type: ignore[attr-defined]

    @property
    def manifest_path(self) -> Path:
        return self.backend.manifest_path  # type: ignore[attr-defined]

    def result_path(self, digest: str) -> Path:
        return self.backend.result_path(digest)  # type: ignore[attr-defined]

    def obs_path(self, digest: str) -> Path:
        return self.backend.obs_path(digest)  # type: ignore[attr-defined]

    @property
    def spec(self) -> str:
        """A string from which another process can reopen this store."""
        return self.backend.spec

    def close(self) -> None:
        self.backend.close()

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------

    def __contains__(self, digest: str) -> bool:
        return self.backend.has_result(digest)

    def __len__(self) -> int:
        return sum(1 for _ in self.iter_digests())

    def iter_digests(self) -> Iterator[str]:
        return self.backend.iter_result_digests()

    def results_among(self, digests: Iterable[str]) -> Set[str]:
        """The members of ``digests`` that have a result row."""
        return self.backend.results_among(digests)

    def get(self, digest: str) -> Optional[SimulationResult]:
        """The stored result for ``digest``, or ``None`` on a miss.

        Corrupt or version-incompatible rows (e.g. a row written by a
        future schema, or a partial file from a non-atomic writer) read as
        misses rather than errors: the scheduler simply re-simulates the
        cell and overwrites the bad row.
        """
        text = self.backend.read_result(digest)
        if text is None:
            return None
        try:
            payload = json.loads(text)
            return result_from_state(payload["result"])
        except (ValueError, KeyError, TypeError):
            return None

    def put(self, digest: str, result: SimulationResult,
            job: Optional[Dict] = None):
        """Atomically persist one result row; returns its backend ref.

        With the directory backend the returned reference is the row's
        :class:`~pathlib.Path` (the historical contract); other backends
        return an opaque reference.
        """
        payload = {"job": job or {}, "result": result_to_state(result)}
        # No sort_keys: dict insertion order must survive the round trip —
        # derived sums (e.g. total_energy_nj) iterate the energy dict, and
        # float addition is not associative, so reordering keys would make
        # cached cells differ from fresh ones in the last ulp.
        self.backend.write_result(digest, json.dumps(payload))
        result_path = getattr(self.backend, "result_path", None)
        return result_path(digest) if result_path is not None else digest

    # ------------------------------------------------------------------
    # Observability reports
    # ------------------------------------------------------------------

    def put_obs(self, digest: str, report: Dict):
        """Atomically persist one observability report.

        Reports are stored beside — not inside — the result rows: a
        result row's digest (and therefore cache identity) must not
        depend on whether its run happened to carry instrumentation.
        """
        self.backend.write_obs(digest, json.dumps(report, sort_keys=True))
        obs_path = getattr(self.backend, "obs_path", None)
        return obs_path(digest) if obs_path is not None else digest

    def get_obs(self, digest: str) -> Optional[Dict]:
        """The stored observability report, or ``None`` on a miss."""
        text = self.backend.read_obs(digest)
        if text is None:
            return None
        try:
            payload = json.loads(text)
        except ValueError:
            return None
        return payload if isinstance(payload, dict) else None

    # ------------------------------------------------------------------
    # Shared traces
    # ------------------------------------------------------------------

    def trace_path(self, trace_id: str) -> Path:
        """The local path a stored trace is (or would be) served from."""
        trace_path = getattr(self.backend, "trace_path", None)
        if trace_path is not None:
            return trace_path(trace_id)
        return self.backend.trace_local_path(trace_id)

    def has_trace(self, trace_id: str) -> bool:
        return self.backend.has_trace(trace_id)

    def ensure_trace(self, trace_id: str,
                     generate: Callable[[], List[MemoryRequest]]) -> Path:
        """Return a local file for ``trace_id``, generating it on miss.

        The trace is written atomically so concurrent sweeps sharing one
        store never observe a truncated file.
        """
        return self.backend.ensure_trace(
            trace_id, lambda fh: write_trace(generate(), fh))

    def load_trace(self, trace_id: str) -> List[MemoryRequest]:
        return read_trace_list(self.backend.trace_local_path(trace_id))

    # ------------------------------------------------------------------
    # Manifest
    # ------------------------------------------------------------------

    def write_manifest(self, manifest: Dict):
        self.backend.write_manifest(
            json.dumps(manifest, indent=2, sort_keys=True))
        manifest_path = getattr(self.backend, "manifest_path", None)
        return manifest_path

    def read_manifest(self) -> Optional[Dict]:
        text = self.backend.read_manifest()
        if text is None:
            return None
        try:
            return json.loads(text)
        except ValueError:
            return None

    # ------------------------------------------------------------------
    # Work queue (lease-based distributed execution)
    # ------------------------------------------------------------------

    def enqueue(self, digest: str, payload: Dict) -> None:
        """Idempotently publish one job for workers to claim."""
        self.backend.enqueue(digest, json.dumps(payload, sort_keys=True))

    def queue_payload(self, digest: str) -> Optional[Dict]:
        text = self.backend.queue_payload(digest)
        if text is None:
            return None
        try:
            payload = json.loads(text)
        except ValueError:
            return None
        return payload if isinstance(payload, dict) else None

    def iter_queue(self) -> List[str]:
        return self.backend.iter_queue()

    def claim(self, digest: str, worker: str,
              ttl_s: float) -> Optional[LeaseClaim]:
        return self.backend.claim(digest, worker, ttl_s)

    def renew(self, digest: str, worker: str, ttl_s: float) -> bool:
        return self.backend.renew(digest, worker, ttl_s)

    def release(self, digest: str, worker: str) -> None:
        self.backend.release(digest, worker)

    def claim_info(self, digest: str) -> Optional[LeaseClaim]:
        return self.backend.claim_info(digest)

    def live_claims(self) -> List[LeaseClaim]:
        return self.backend.live_claims()

    def reclaim_count(self) -> int:
        return self.backend.reclaim_count()

    def mark_failed(self, digest: str, error: str, attempts: int) -> None:
        self.backend.mark_failed(digest, error, attempts)

    def get_failure(self, digest: str) -> Optional[Dict]:
        return self.backend.get_failure(digest)

    def failures_among(self, digests: Iterable[str]) -> Set[str]:
        return self.backend.failures_among(digests)

    def record_completion(self, digest: str, worker: str,
                          duration_s: float, attempts: int) -> None:
        self.backend.record_completion(digest, worker, duration_s, attempts)

    def completions(self, digests: Optional[Iterable[str]] = None
                    ) -> List[Dict]:
        return self.backend.completions(digests)


def open_store(spec: Union[str, Path, "ResultStore"],
               storage: Optional[str] = None) -> "ResultStore":
    """Open a result store from a path / URL spec (or pass one through).

    Accepts a directory path (default layout), ``sqlite://<path>``, a
    ``.sqlite``/``.db`` path, or an explicit ``storage`` backend name;
    see :func:`repro.sweep.storage.parse_store_spec` for the rules.
    """
    if isinstance(spec, ResultStore):
        return spec
    return ResultStore(backend=parse_store_spec(str(spec), storage))


def migrate_store(src: "ResultStore", dst: "ResultStore") -> Dict[str, int]:
    """Copy every row of ``src`` into ``dst``, byte-identically.

    Result rows, obs reports, traces, and the manifest cross as raw
    text/bytes — never re-parsed — so a dir→sqlite→dir round trip
    reproduces the original rows exactly (the migration test's
    invariant).  Work-queue state (claims, completions) is deliberately
    not migrated: leases are meaningful only to the store they were
    acquired in.

    Returns a count per migrated kind.
    """
    counts = {"results": 0, "obs": 0, "traces": 0, "manifest": 0}
    for digest in src.backend.iter_result_digests():
        text = src.backend.read_result(digest)
        if text is not None:
            dst.backend.write_result(digest, text)
            counts["results"] += 1
        obs_text = src.backend.read_obs(digest)
        if obs_text is not None:
            dst.backend.write_obs(digest, obs_text)
            counts["obs"] += 1
    # Traces: enumerate via the backend layout (dir glob / sqlite table).
    for trace_id in _trace_ids(src.backend):
        data = src.backend.trace_local_path(trace_id).read_bytes()
        dst.backend.ensure_trace(trace_id, lambda fh, d=data: fh.write(d))
        counts["traces"] += 1
    manifest_text = src.backend.read_manifest()
    if manifest_text is not None:
        dst.backend.write_manifest(manifest_text)
        counts["manifest"] += 1
    return counts


def _trace_ids(backend: StorageBackend) -> List[str]:
    traces_dir = getattr(backend, "traces_dir", None)
    if traces_dir is not None:
        return sorted(p.stem for p in Path(traces_dir).glob("*.esdtrace"))
    rows = backend._conn().execute(  # type: ignore[attr-defined]
        "SELECT trace_id FROM traces ORDER BY trace_id").fetchall()
    return [trace_id for (trace_id,) in rows]


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
