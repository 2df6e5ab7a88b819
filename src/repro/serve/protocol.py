"""Wire protocol of the dedup-as-a-service front end (protocol 2).

Newline-delimited JSON over a byte stream: every message is one JSON
object on one line (LF-terminated, UTF-8).  The framing needs nothing
beyond the stdlib, works over asyncio streams and plain sockets alike,
and keeps the protocol greppable on the wire.

Client → server messages carry a ``verb``:

``hello``
    Open a session.  Fields: ``protocol`` (required, must equal
    :data:`PROTOCOL_VERSION`; anything else gets a ``protocol`` error
    naming the supported version), ``scheme`` (any token
    :func:`repro.registry.resolve_scheme_name` accepts), optional
    ``tenant`` label, ``app``, ``total_hint`` (``null`` or an integer
    >= 0), and ``options`` — a flat dotted-path mapping applied to the
    base system configuration via
    :meth:`~repro.common.config.SystemConfig.with_options` (the
    per-tenant configuration surface).  Reply: ``{"ok": true, "session":
    id, "protocol": 2, "credits": n, "batch_hint": m}``.
``batch``
    Feed requests: ``{"verb": "batch", "session": id, "count": n,
    "records": "<base64>"}``.  ``records`` is ``n`` trace records in the
    layout of :mod:`repro.workloads.trace` (packed by
    :func:`~repro.workloads.trace.pack_records`, parsed by
    :func:`~repro.workloads.trace.parse_records`), base64-encoded, so a
    served batch and a trace-file chunk share one codec.  Bad base64, a
    ``count`` the records disagree with, or any record the decoder
    rejects (the first fault in record order) answers ``bad_request``
    and enqueues nothing.  Reply: an ack
    with the remaining queue ``credits``, or a backpressure rejection
    ``{"ok": false, "error": "backpressure", "retry_after_ms": m}`` —
    nothing from the rejected batch is enqueued; the client waits and
    resends.
``finalize``
    Drain the session's queue, finalize the engine session, reply with
    ``{"ok": true, "summary": {...}, "state": {...}}`` where ``state``
    is the lossless :func:`repro.sim.export.result_to_state` snapshot
    (the loopback parity gate reconstructs the full result from it).
``metrics``
    Snapshot of the server's obs registry (rows + flat view).
``schemes``
    Registered scheme names, for discovery.
``ping``
    Liveness check; replies ``{"ok": true}``.

Every reply carries ``"ok"``; failures add ``"error"`` (a machine code
from :data:`ERROR_CODES`) and a human ``"detail"``.
"""

from __future__ import annotations

import base64
import json
from typing import Any, Dict, Optional, Sequence, Tuple

from ..common.errors import ServeError, TraceFormatError
from ..common.types import MemoryRequest
from ..workloads.trace import pack_records

__all__ = [
    "ERROR_CODES",
    "MAX_LINE_BYTES",
    "PROTOCOL_VERSION",
    "decode_batch",
    "decode_message",
    "encode_batch",
    "encode_message",
    "error_reply",
    "ok_reply",
]

#: Bumped on incompatible wire changes; ``hello`` must carry it and its
#: reply echoes it.  Version 2: ``batch`` frames carry trace records.
PROTOCOL_VERSION = 2

#: Upper bound on one NDJSON line.  The dominant message is a ``batch``
#: (base64 records: 32 characters a read, 120 a write); 8 MiB admits
#: tens of thousands of requests per batch while bounding a hostile or
#: corrupt peer's memory demand.
MAX_LINE_BYTES = 8 * 1024 * 1024

#: Machine-readable error codes a reply's ``error`` field may carry.
ERROR_CODES = (
    "backpressure",      # session ingest queue full; retry after delay
    "bad_request",       # malformed message or batch records
    "protocol",          # framing violation or unsupported version
    "unknown_scheme",    # hello named an unregistered scheme
    "unknown_session",   # verb referenced a session this server lacks
    "session_limit",     # max concurrent sessions reached
    "shutting_down",     # server is draining; no new sessions
    "failed",            # engine-side failure (e.g. IntegrityError)
    "worker_crash",      # the session's engine worker process died
    "internal",          # unexpected server error
)

def encode_batch(sid: str,
                 requests: Sequence[MemoryRequest]) -> Dict[str, Any]:
    """The ``batch`` message of one request batch (client side).

    Raises:
        ServeError: (code ``bad_request``) when a request does not fit
            a record (see :func:`~repro.workloads.trace.pack_records`),
            the same code the server answers a bad record with.
    """
    try:
        records, count = pack_records(requests)
    except TraceFormatError as exc:
        raise ServeError(f"request cannot be sent: {exc}",
                         code="bad_request") from exc
    return {"verb": "batch", "session": sid, "count": count,
            "records": base64.b64encode(records).decode("ascii")}


def decode_batch(message: Dict[str, Any]) -> Tuple[bytes, int]:
    """The record bytes and declared record count of a ``batch``.

    Only the envelope is checked here; the records themselves are
    checked when the session admits them.

    Raises:
        ServeError: (code ``bad_request``) when ``count`` is not an
            integer >= 0 or ``records`` is not a base64 string.
    """
    count = message.get("count")
    if type(count) is not int or count < 0:
        raise ServeError(f"batch count must be an integer >= 0, got "
                         f"{count!r}", code="bad_request")
    records = message.get("records")
    if not isinstance(records, str):
        raise ServeError("batch requires a base64 records string",
                         code="bad_request")
    try:
        return base64.b64decode(records, validate=True), count
    except ValueError as exc:
        raise ServeError(f"batch records are not valid base64: {exc}",
                         code="bad_request") from exc


def encode_message(message: Dict[str, Any]) -> bytes:
    """One NDJSON frame: compact JSON + LF."""
    return json.dumps(message, separators=(",", ":")).encode("utf-8") + b"\n"


def decode_message(line: bytes) -> Dict[str, Any]:
    """Parse one received frame.

    Raises:
        ServeError: (code ``protocol``) when the line is not a JSON
            object.
    """
    try:
        message = json.loads(line)
    except (ValueError, RecursionError) as exc:
        # RecursionError: nesting deeper than the parser's stack.
        raise ServeError(f"frame is not valid JSON: {exc}",
                         code="protocol") from exc
    if not isinstance(message, dict):
        raise ServeError("frame must be a JSON object",
                         code="protocol")
    return message


def ok_reply(**fields: Any) -> Dict[str, Any]:
    """A success reply with extra fields."""
    reply: Dict[str, Any] = {"ok": True}
    reply.update(fields)
    return reply


def error_reply(code: str, detail: str,
                **fields: Any) -> Dict[str, Any]:
    """A failure reply; ``code`` must come from :data:`ERROR_CODES`."""
    assert code in ERROR_CODES, code
    reply: Dict[str, Any] = {"ok": False, "error": code, "detail": detail}
    reply.update(fields)
    return reply


class WireReader:
    """Incremental NDJSON splitter for blocking (socket-file) readers.

    The asyncio server and client read lines from their
    ``StreamReader`` directly; the sync client shares this helper to
    enforce the same :data:`MAX_LINE_BYTES` bound.
    """

    def __init__(self, fh: Any) -> None:
        self._fh = fh

    def read_message(self) -> Optional[Dict[str, Any]]:
        """Next message, or ``None`` at EOF.

        Raises:
            ServeError: (code ``protocol``) on an overlong or non-JSON
                line.
        """
        line = self._fh.readline(MAX_LINE_BYTES + 1)
        if not line:
            return None
        if len(line) > MAX_LINE_BYTES:
            raise ServeError(
                f"frame exceeds {MAX_LINE_BYTES} bytes", code="protocol")
        return decode_message(line)
