"""Mid-run simulation checkpoints: interrupt-and-resume, bit-exact.

A long streaming run must survive host restarts.  The session API
(:mod:`repro.sim.session`) carries *all* run state on objects — the
scheme graph (controller, banks, stores, timelines, and the memo caches
its engines and ESD own), the recorders, the core-timing model and the
integrity shadow — so a checkpoint is one pickle of the session graph.

Why this is bit-exact (the property the CI ``trace-resume`` job gates):

* Every accumulator that orders float arithmetic lives on the session
  (``_stall_cycles``, the recorders' running state) and pickle restores
  floats, deques, ``OrderedDict`` order, and ``np.random.Generator``
  state exactly.
* The memo caches pickle by value with the graph, entry order and
  counters included, so cache-stat extras match an uninterrupted run.
* A session holds no request it has not processed, so the resume offset
  is :attr:`~repro.sim.session.Session.processed`: skip that many
  source-stream records, then feed the rest.

File format: a fixed header — magic ``b"ESDCKPT1"``, u16 version, u16
reserved, u32 CRC-32 of the payload, u64 payload length — followed by
the pickled payload.  Writes go through
:func:`repro.common.atomic.fsync_atomic_write`, so a checkpoint file
can never be seen torn; the CRC catches bit rot and truncation on read.

Checkpoints are pickles: load them only from sources you trust, same as
any pickle.  They are also process-private state — restore on the same
interpreter/library versions that wrote them (the header version and the
pickled payload's own version field gate incompatible layouts).
"""

from __future__ import annotations

import pickle
import struct
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Any, BinaryIO, Dict, TYPE_CHECKING, Union

from ..common.atomic import fsync_atomic_write
from ..common.errors import CheckpointError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .session import Session

__all__ = [
    "CHECKPOINT_MAGIC",
    "CHECKPOINT_VERSION",
    "RestoredCheckpoint",
    "checkpoint_bytes",
    "load_checkpoint",
    "write_checkpoint",
]

CHECKPOINT_MAGIC = b"ESDCKPT1"
#: v9: the counter-mode engine keeps one pad slot per line (``line ->
#: (counter, pad int)``) and rebuilds its key's hash state on unpickle,
#: the mapping-cache and LRCU entries are slotted classes, and ESD-Delta's
#: word index is keyed by one int per (position, byte); a v8 payload
#: would restore ``(line, counter) -> pad bytes`` entries the engine
#: misreads, so v8 is rejected at the header, naming its version.  (v8
#: moved the memo caches into the scheme graph; a v7 payload pickles each
#: cache as a call to the removed process-global registry.  v7 dropped
#: the LRCU decay mode; v6 dropped the session's epoch buffer and the
#: meta's ``consumed`` offset; v5 dropped the PCM device's per-frame
#: write counts and the config's core count and cache geometry; v4 added
#: the observation binding, ``_obs`` on the scheme graph, which v3
#: lacks.)
CHECKPOINT_VERSION = 9

_HEADER = struct.Struct("<8sHHIQ")


@dataclass(frozen=True)
class RestoredCheckpoint:
    """A loaded checkpoint: the live session plus resume bookkeeping."""

    #: The restored, open session — skip its ``processed`` records of the
    #: source stream, then feed it the rest.
    session: "Session"
    #: Identifying metadata captured at checkpoint time (app, scheme,
    #: counts) for resume-time validation.
    meta: Dict[str, Any]


def checkpoint_bytes(session: "Session") -> bytes:
    """Serialize an open session to bytes.

    Raises:
        SessionError: when the session is not open (a finalized or failed
            run has nothing meaningful to resume).
    """
    session._require_open("checkpoint")
    meta: Dict[str, Any] = {
        "app": session.app,
        "scheme": session.scheme.name,
        "processed": session.processed,
    }
    payload = pickle.dumps(
        {
            "version": CHECKPOINT_VERSION,
            "meta": meta,
            "session": session,
        },
        protocol=pickle.HIGHEST_PROTOCOL)
    header = _HEADER.pack(CHECKPOINT_MAGIC, CHECKPOINT_VERSION, 0,
                          zlib.crc32(payload), len(payload))
    return header + payload


def write_checkpoint(session: "Session",
                     path: Union[str, Path]) -> int:
    """Atomically write a session checkpoint; returns bytes written.

    The file appears under ``path`` only after the full payload is
    fsynced (temp-file + rename discipline), so an interrupted write
    leaves the previous checkpoint — or nothing — never a torn file.
    """
    data = checkpoint_bytes(session)
    fsync_atomic_write(Path(path), data)
    return len(data)


def _read_source(source: Union[str, Path, bytes, BinaryIO]) -> bytes:
    if isinstance(source, bytes):
        return source
    if isinstance(source, (str, Path)):
        return Path(source).read_bytes()
    return source.read()


def load_checkpoint(
        source: Union[str, Path, bytes, BinaryIO]) -> RestoredCheckpoint:
    """Load a checkpoint and return its live session.

    Validates magic, version, payload length, and CRC before unpickling.

    Raises:
        CheckpointError: on a corrupt, truncated, or incompatible file.
    """
    data = _read_source(source)
    if len(data) < _HEADER.size:
        raise CheckpointError(
            f"truncated checkpoint: {len(data)} bytes is shorter than the "
            f"{_HEADER.size}-byte header")
    magic, version, _, crc, length = _HEADER.unpack_from(data)
    if magic != CHECKPOINT_MAGIC:
        raise CheckpointError(f"bad checkpoint magic {magic!r}")
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(f"unsupported checkpoint version {version}")
    payload = data[_HEADER.size:]
    if len(payload) != length:
        raise CheckpointError(
            f"truncated checkpoint payload: header declares {length} bytes, "
            f"found {len(payload)}")
    if zlib.crc32(payload) != crc:
        raise CheckpointError("checkpoint CRC mismatch (corrupt payload)")
    try:
        state = pickle.loads(payload)
    except Exception as exc:
        raise CheckpointError(f"unreadable checkpoint payload: {exc}") from exc
    if not isinstance(state, dict) \
            or state.get("version") != CHECKPOINT_VERSION:
        raise CheckpointError("malformed checkpoint payload")
    session: "Session" = state["session"]
    if session.state != "open":
        raise CheckpointError(
            f"checkpoint holds a {session.state} session; only open "
            f"sessions can resume")
    return RestoredCheckpoint(session=session, meta=state["meta"])
