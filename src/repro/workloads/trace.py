"""Trace record serialization.

Traces can be generated on the fly (the common path), but persisting them
lets experiments replay byte-identical request streams across schemes and
sessions — the artifact-appendix workflow of the paper ("users can generate
other corresponding traces ... kept in the same regulation format").

Record encoding (shared by both container versions), little-endian:

============  =======================================================
Record        u8 kind (0=read, 1=write), u8 core, u16 reserved,
              u32 seq, u64 address, f64 issue_time_ns,
              64-byte payload (writes only)
============  =======================================================

Container **version 1** (legacy, still read bit-exactly): a 20-byte
header — magic ``b"ESDTRACE"``, u16 version, u16 reserved, u64 record
count — followed by all records inline.  Writing it materializes the
whole payload, so it is only suitable for traces that fit in memory.

Container **version 2** (the default): the same 20-byte header (u16
flags replaces the reserved field, bit 0 = zlib-compressed chunks; the
u64 count field is reserved/zero — the authoritative count lives in the
footer, so the writer never needs to seek) followed by a sequence of
chunk frames::

    u32 record_count, u32 raw_len, u32 stored_len, stored bytes

and terminated by an end-of-trace marker frame with ``record_count ==
0`` whose 8 stored bytes are the u64 total record count.  The writer
packs ``chunk_records`` records at a time straight from the source
iterator, so a generator streams to disk in bounded memory; the reader
decodes chunk by chunk the same way.  A file that is missing its marker
frame (a capture killed mid-write) never parses as complete, and bytes
after the marker raise — concatenation or header corruption cannot
silently drop records.

The record encoding is public — :func:`pack_records` and
:func:`parse_records` — because it is also the serve wire format: a
``batch`` frame of :mod:`repro.serve.protocol` carries the same records
base64-encoded, so trace files and served batches share one codec.

Record deserialization runs batched: the parser finds the record offsets
with one cheap scan, gathers the fixed fields of all records with one
structured-array gather, checks every request invariant with numpy, and
only then builds requests through trusted construction (see
:func:`repro.common.types.request_unchecked`).  The byte format — and
every error raised on malformed records — is identical to the scalar
parser's (:func:`_parse_records`), which remains the batched parser's
exact-error fallback and the reference the tests compare it against.
:func:`check_records` runs the same checks without building requests.

The *writer* stays scalar: packing was prototyped as a
numpy structured-array fill plus fancy-indexed scatter and measured
~10% slower than the ``struct.pack`` loop — gathering six attributes
from every Python request object dominates, and no array math removes
that.  Deserialization wins (~1.3x) because the fixed fields decode in
one gather; its floor is likewise per-object work (one ``__new__`` plus
one ``__dict__`` display per request).
"""

from __future__ import annotations

import gc
import io
import operator
import struct
import zlib
from itertools import islice
from pathlib import Path
from typing import (BinaryIO, Iterable, Iterator, List, Optional, Tuple,
                    Union)

import numpy as np

from ..common.atomic import atomic_binary_writer
from ..common.errors import TraceFormatError
from ..common.types import CACHE_LINE_SIZE, AccessType, MemoryRequest

MAGIC = b"ESDTRACE"
VERSION = 1
VERSION_V2 = 2
DEFAULT_VERSION = VERSION_V2

#: Version-2 header flag bit: chunk payloads are zlib-compressed.
FLAG_ZLIB = 0x0001
_KNOWN_FLAGS = FLAG_ZLIB

#: Records per version-2 chunk frame.  Bounds writer and reader memory to
#: ~``chunk_records``  x 88 bytes (plus the boxed request objects of one
#: chunk) regardless of trace length.
DEFAULT_CHUNK_RECORDS = 16384

_HEADER = struct.Struct("<8sHHQ")
_RECORD_FIXED = struct.Struct("<BBHIQd")
_CHUNK_FRAME = struct.Struct("<III")
_FOOTER = struct.Struct("<Q")

#: Numpy mirror of ``_RECORD_FIXED`` (packed little-endian, 24 bytes).
_FIXED_DTYPE = np.dtype([("kind", "u1"), ("core", "u1"), ("reserved", "<u2"),
                         ("seq", "<u4"), ("address", "<u8"),
                         ("issue", "<f8")])
assert _FIXED_DTYPE.itemsize == _RECORD_FIXED.size

_FIXED_COLS = np.arange(_RECORD_FIXED.size)

#: Records per decode/construction chunk of the batched parser.  The
#: decoded field lists hold one boxed Python object per field per record;
#: chunking bounds that transient population (5 x chunk) so the garbage
#: collector's pauses stay flat on 10^5+-record traces.
_PARSE_CHUNK = 1 << 15

def _unpackable(request: MemoryRequest) -> TraceFormatError:
    """The typed error for a request whose fields do not fit a record."""
    for name, bits in (("core", 8), ("seq", 32), ("address", 64)):
        value = getattr(request, name)
        try:
            fits = 0 <= operator.index(value) < 1 << bits
        except TypeError:
            fits = False
        if not fits:
            return TraceFormatError(
                f"request seq={request.seq!r}: {name} {value!r} does not "
                f"fit the record's u{bits} field")
    return TraceFormatError(
        f"request seq={request.seq!r}: issue_time_ns "
        f"{request.issue_time_ns!r} is not a float")


def pack_records(requests: Iterable[MemoryRequest]) -> Tuple[bytes, int]:
    """Pack requests as records; returns the bytes and the record count.

    The one record encoder: trace containers store its output, and the
    serve wire carries it in ``batch`` frames.  One ``struct.pack`` per
    record — see the module docstring for why a batched numpy packer
    measured slower.

    Raises:
        TraceFormatError: when a write request carries no 64-byte payload
            or a read request carries one, or a field does not fit its
            record slot (core u8, seq u32, address u64) — a malformed
            request must fail loudly here, not as an opaque ``TypeError``
            or ``struct.error`` (and must keep failing under ``python
            -O``, which strips ``assert``).
    """
    pack_record = _RECORD_FIXED.pack
    chunks = []
    append = chunks.append
    count = 0
    for req in requests:
        data = req.data
        if req.is_write:
            if not isinstance(data, (bytes, bytearray)) \
                    or len(data) != CACHE_LINE_SIZE:
                raise TraceFormatError(
                    f"write request seq={req.seq} has no "
                    f"{CACHE_LINE_SIZE}-byte payload")
            kind = 1
        elif data is not None:
            raise TraceFormatError(
                f"read request seq={req.seq} carries a payload")
        else:
            kind = 0
        try:
            append(pack_record(kind, req.core, 0, req.seq, req.address,
                               req.issue_time_ns))
        except struct.error as exc:
            raise _unpackable(req) from exc
        if kind:
            append(bytes(data))
        count += 1
    return b"".join(chunks), count


def _write_trace_v1(requests: Iterable[MemoryRequest], fh: BinaryIO) -> int:
    """Legacy single-buffer writer: header with final count, then records."""
    payload, count = pack_records(requests)
    fh.write(_HEADER.pack(MAGIC, VERSION, 0, count))
    fh.write(payload)
    return count


def _write_trace_v2(requests: Iterable[MemoryRequest], fh: BinaryIO, *,
                    compress: bool, chunk_records: int) -> int:
    """Streaming chunked writer: bounded memory from any iterator."""
    if chunk_records <= 0:
        raise TraceFormatError(
            f"chunk_records must be positive, got {chunk_records}")
    flags = FLAG_ZLIB if compress else 0
    fh.write(_HEADER.pack(MAGIC, VERSION_V2, flags, 0))
    source = iter(requests)
    total = 0
    while True:
        payload, count = pack_records(islice(source, chunk_records))
        if count == 0:
            break
        stored = zlib.compress(payload, 6) if compress else payload
        fh.write(_CHUNK_FRAME.pack(count, len(payload), len(stored)))
        fh.write(stored)
        total += count
    fh.write(_CHUNK_FRAME.pack(0, 0, _FOOTER.size))
    fh.write(_FOOTER.pack(total))
    return total


def write_trace(requests: Iterable[MemoryRequest],
                destination: Union[str, Path, BinaryIO], *,
                version: int = DEFAULT_VERSION,
                compress: bool = False,
                chunk_records: int = DEFAULT_CHUNK_RECORDS) -> int:
    """Serialize a request stream; returns the record count written.

    With ``version=2`` (the default) records stream to the destination in
    ``chunk_records``-sized frames, so any iterator — including a live
    generator — serializes in bounded memory; ``compress=True`` zlib-
    compresses each frame.  ``version=1`` writes the legacy single-buffer
    format (whole payload materialized; no compression).

    Raises:
        TraceFormatError: on an unsupported version, compression on a v1
            container, or a malformed request in the stream.
    """
    if version not in (VERSION, VERSION_V2):
        raise TraceFormatError(f"unsupported version {version}")
    if compress and version != VERSION_V2:
        raise TraceFormatError("compression requires trace format v2")
    own = isinstance(destination, (str, Path))
    fh: BinaryIO = open(destination, "wb") if own else destination  # type: ignore[arg-type]
    try:
        if version == VERSION:
            return _write_trace_v1(requests, fh)
        return _write_trace_v2(requests, fh, compress=compress,
                               chunk_records=chunk_records)
    finally:
        if own:
            fh.close()


def capture_trace(requests: Iterable[MemoryRequest],
                  path: Union[str, Path], *,
                  version: int = DEFAULT_VERSION,
                  compress: bool = False,
                  chunk_records: int = DEFAULT_CHUNK_RECORDS) -> int:
    """Stream a request iterator into an atomically-finalized trace file.

    The capture writes through a same-directory temp file and only
    renames it onto ``path`` (fsync before and after) once the end-of-
    trace marker is on disk — a capture killed mid-write leaves either no
    file or the previous complete file at ``path``, never a torn trace
    that parses as complete.  Returns the record count captured.
    """
    path = Path(path)
    with atomic_binary_writer(path) as fh:
        count = write_trace(requests, fh, version=version,
                            compress=compress, chunk_records=chunk_records)
    return count


def _parse_records(buf: bytes, count: int) -> Iterator[MemoryRequest]:
    """Reference record parser: ``unpack_from`` offsets, one per record."""
    unpack_from = _RECORD_FIXED.unpack_from
    fixed_size = _RECORD_FIXED.size
    total = len(buf)
    offset = 0
    for i in range(count):
        if offset + fixed_size > total:
            raise TraceFormatError(f"truncated record {i}")
        kind, core, _, seq, address, issue = unpack_from(buf, offset)
        offset += fixed_size
        if kind == 1:
            end = offset + CACHE_LINE_SIZE
            if end > total:
                raise TraceFormatError(f"truncated payload in record {i}")
            payload = buf[offset:end]
            offset = end
            yield MemoryRequest(address=address, access=AccessType.WRITE,
                                data=payload, issue_time_ns=issue,
                                core=core, seq=seq)
        elif kind == 0:
            yield MemoryRequest(address=address, access=AccessType.READ,
                                issue_time_ns=issue, core=core, seq=seq)
        else:
            raise TraceFormatError(f"unknown record kind {kind}")
    if offset != total:
        raise TraceFormatError(
            f"trailing bytes: {total - offset} after {count} records")


def _scan_records(buf: bytes, count: int) -> List[int]:
    """Record offsets; raises the reference parser's structural errors.

    Record offsets depend on every preceding record's kind (records are
    variable-length), so this cheap sequential walk over the kind bytes
    comes first — raising the same :class:`TraceFormatError` at the same
    record as :func:`_parse_records` for a truncated record or payload,
    an unknown kind, or trailing bytes.
    """
    total = len(buf)
    fixed_size = _RECORD_FIXED.size
    record_size = fixed_size + CACHE_LINE_SIZE
    offsets: List[int] = []
    append = offsets.append
    offset = 0
    for i in range(count):
        if offset + fixed_size > total:
            raise TraceFormatError(f"truncated record {i}")
        kind = buf[offset]
        append(offset)
        if kind == 1:
            offset += record_size
            if offset > total:
                raise TraceFormatError(f"truncated payload in record {i}")
        elif kind == 0:
            offset += fixed_size
        else:
            raise TraceFormatError(f"unknown record kind {kind}")
    if offset != total:
        raise TraceFormatError(
            f"trailing bytes: {total - offset} after {count} records")
    return offsets


def _checked_fields(buf: bytes, offsets: List[int]) -> Optional[np.ndarray]:
    """The fixed fields of every record, or ``None`` if one breaks an
    invariant of :class:`MemoryRequest`.

    One structured-array gather decodes all records; the batched builder
    bypasses dataclass validation via trusted construction, so the full
    invariant set — alignment, address sign, a finite non-negative issue
    time — must hold for the whole batch first.  (The offset scan already
    pinned kinds to {0, 1} and payload lengths to 64 bytes.)  ``None``
    sends the caller to the reference parser, which raises the exact
    per-record error.
    """
    offs = np.asarray(offsets, dtype=np.int64)
    arr = np.frombuffer(buf, dtype=np.uint8)
    rec = arr[offs[:, None] + _FIXED_COLS].reshape(-1).view(_FIXED_DTYPE)
    address = rec["address"]
    if np.any(address % CACHE_LINE_SIZE):
        return None
    # u64 addresses >= 2**63 read back as huge Python ints the dataclass
    # would accept, but keep the trusted path conservative: anything that
    # looks negative in a signed view goes through the reference parser.
    if np.any(address.astype(np.int64, copy=False) < 0):
        return None
    issue = rec["issue"]
    if not np.all((issue >= 0.0) & (issue < np.inf)):
        return None
    return rec


def _build_requests(buf: bytes, rec: np.ndarray,
                    offsets: List[int]) -> List[MemoryRequest]:
    """Trusted construction of records :func:`_checked_fields` passed."""
    fixed_size = _RECORD_FIXED.size
    payload_end = fixed_size + CACHE_LINE_SIZE
    read_access = AccessType.READ
    write_access = AccessType.WRITE
    new = MemoryRequest.__new__
    cls = MemoryRequest
    requests = [None] * len(offsets)
    index = 0
    # Defer garbage collection across the bulk construction: tens of
    # thousands of container allocations in a tight loop otherwise trigger
    # repeated young-generation passes over objects that are all live,
    # which costs more than the decode itself on 10^5+-record traces.
    gc_was_enabled = gc.isenabled()
    if gc_was_enabled:
        gc.disable()
    try:
        # Inlined trusted construction (the loop body of
        # request_unchecked): one __new__ plus one dict display per record
        # is the pure-Python floor for building the objects.
        for kind, core, seq, address, issue, offset in zip(
                rec["kind"].tolist(), rec["core"].tolist(),
                rec["seq"].tolist(), rec["address"].tolist(),
                rec["issue"].tolist(), offsets):
            if kind:
                data = buf[offset + fixed_size:offset + payload_end]
                access = write_access
            else:
                data = None
                access = read_access
            request = new(cls)
            request.__dict__ = {"address": address, "access": access,
                                "data": data, "issue_time_ns": issue,
                                "core": core, "seq": seq}
            requests[index] = request
            index += 1
    finally:
        if gc_was_enabled:
            gc.enable()
    return requests


def _stream_records(buf: bytes, count: int) -> Iterator[MemoryRequest]:
    """Batched parse of a whole v1 record buffer, streamed in chunks.

    Requests are built at most ``_PARSE_CHUNK`` at a time, which bounds
    the transient decoded field lists (5 x chunk boxed objects) and hands
    each chunk to the consumer before the next is built.  Every check
    runs before the first chunk; on a record that breaks an invariant the
    reference parser streams the records before it, then raises its
    exact error (or, for a u64 address past 2**63, streams the requests
    the constructor accepts).
    """
    offsets = _scan_records(buf, count)
    rec = _checked_fields(buf, offsets)
    if rec is None:
        yield from _parse_records(buf, count)
        return
    for start in range(0, count, _PARSE_CHUNK):
        stop = start + _PARSE_CHUNK
        yield from _build_requests(buf, rec[start:stop], offsets[start:stop])


def parse_records(buf: bytes, count: int) -> List[MemoryRequest]:
    """Parse ``count`` records packed by :func:`pack_records`.

    The one record decoder: the trace readers parse each container chunk
    with it and the serve server parses each ``batch`` frame with it.
    Batched: an offset scan, one structured numpy gather and invariant
    check, then trusted construction, ``_PARSE_CHUNK`` requests at a
    time.  Every error — type, message and failing record — is the
    reference parser's (:func:`_parse_records`), which stays its
    exact-error fallback.

    Raises:
        TraceFormatError: on a truncated record, an unknown record kind,
            or trailing bytes.
        ValueError: on a record that breaks a :class:`MemoryRequest`
            invariant (misaligned address, bad issue time).
    """
    offsets = _scan_records(buf, count)
    rec = _checked_fields(buf, offsets)
    if rec is None:
        return list(_parse_records(buf, count))
    if count <= _PARSE_CHUNK:
        return _build_requests(buf, rec, offsets)
    requests: List[MemoryRequest] = []
    for start in range(0, count, _PARSE_CHUNK):
        stop = start + _PARSE_CHUNK
        requests += _build_requests(buf, rec[start:stop], offsets[start:stop])
    return requests


def check_records(buf: bytes, count: int) -> List[int]:
    """Validate records as :func:`parse_records` would, building no
    requests; returns each record's byte offset.

    For callers that forward record bytes instead of parsing them (the
    serve pool's parent process): the offsets let them cut a batch at
    any record boundary.  Raises exactly what :func:`parse_records`
    raises.
    """
    offsets = _scan_records(buf, count)
    if _checked_fields(buf, offsets) is None:
        for _ in _parse_records(buf, count):
            pass
    return offsets


def _read_records_v2(fh: BinaryIO, flags: int) -> Iterator[MemoryRequest]:
    """Chunk-by-chunk v2 decoder; validates the marker frame and footer."""
    if flags & ~_KNOWN_FLAGS:
        raise TraceFormatError(f"unknown trace flags {flags:#06x}")
    compressed = bool(flags & FLAG_ZLIB)
    total = 0
    chunk_index = 0
    while True:
        frame = fh.read(_CHUNK_FRAME.size)
        if len(frame) != _CHUNK_FRAME.size:
            raise TraceFormatError(
                f"truncated chunk frame {chunk_index} (missing end-of-trace "
                f"marker after {total} records)")
        count, raw_len, stored_len = _CHUNK_FRAME.unpack(frame)
        stored = fh.read(stored_len)
        if len(stored) != stored_len:
            raise TraceFormatError(f"truncated chunk {chunk_index}")
        if count == 0:
            if raw_len != 0 or stored_len != _FOOTER.size:
                raise TraceFormatError("malformed end-of-trace marker")
            (declared,) = _FOOTER.unpack(stored)
            if declared != total:
                raise TraceFormatError(
                    f"record count mismatch: marker declares {declared}, "
                    f"chunks held {total}")
            if fh.read(1):
                raise TraceFormatError(
                    "trailing bytes: data after end-of-trace marker")
            return
        if compressed:
            try:
                payload = zlib.decompress(stored)
            except zlib.error as exc:
                raise TraceFormatError(
                    f"corrupt compressed chunk {chunk_index}: {exc}") from exc
        else:
            payload = stored
        if len(payload) != raw_len:
            raise TraceFormatError(
                f"chunk {chunk_index} length mismatch: frame declares "
                f"{raw_len} bytes, stored payload is {len(payload)}")
        yield from parse_records(payload, count)
        total += count
        chunk_index += 1


def read_trace(source: Union[str, Path, BinaryIO]) -> Iterator[MemoryRequest]:
    """Deserialize a trace, yielding requests in order.

    Version-1 files are read into memory with one ``read`` and decoded
    by the batched numpy parser.  Version-2 files decode chunk by chunk
    in bounded memory (the same parser per chunk).  Like the
    per-record reader both replaced, this is a generator: nothing is read
    until the first request is drawn, and the file handle stays open only
    while the generator is live.

    Raises:
        TraceFormatError: on bad magic, version, flags, truncated or
            trailing records, or a missing end-of-trace marker (v2).
    """
    own = isinstance(source, (str, Path))
    fh: BinaryIO = open(source, "rb") if own else source  # type: ignore[arg-type]
    try:
        header = fh.read(_HEADER.size)
        if len(header) != _HEADER.size:
            raise TraceFormatError("truncated header")
        magic, version, flags, count = _HEADER.unpack(header)
        if magic != MAGIC:
            raise TraceFormatError(f"bad magic {magic!r}")
        if version == VERSION:
            buf = fh.read()
            yield from _stream_records(buf, count)
        elif version == VERSION_V2:
            yield from _read_records_v2(fh, flags)
        else:
            raise TraceFormatError(f"unsupported version {version}")
    finally:
        if own:
            fh.close()


def read_trace_list(source: Union[str, Path, BinaryIO]) -> List[MemoryRequest]:
    """Deserialize a whole trace into a list."""
    return list(read_trace(source))


def trace_record_count(source: Union[str, Path, BinaryIO]) -> int:
    """Return a trace file's record count without decoding records.

    v1 stores the count in the header; v2 walks the chunk frames
    (seeking over the stored bytes) and cross-checks the footer, so a
    truncated capture raises instead of reporting a partial count.
    """
    own = isinstance(source, (str, Path))
    fh: BinaryIO = open(source, "rb") if own else source  # type: ignore[arg-type]
    try:
        header = fh.read(_HEADER.size)
        if len(header) != _HEADER.size:
            raise TraceFormatError("truncated header")
        magic, version, _, count = _HEADER.unpack(header)
        if magic != MAGIC:
            raise TraceFormatError(f"bad magic {magic!r}")
        if version == VERSION:
            return count
        if version != VERSION_V2:
            raise TraceFormatError(f"unsupported version {version}")
        total = 0
        chunk_index = 0
        while True:
            frame = fh.read(_CHUNK_FRAME.size)
            if len(frame) != _CHUNK_FRAME.size:
                raise TraceFormatError(
                    f"truncated chunk frame {chunk_index} (missing "
                    f"end-of-trace marker after {total} records)")
            records, raw_len, stored_len = _CHUNK_FRAME.unpack(frame)
            if records == 0:
                stored = fh.read(stored_len)
                if raw_len != 0 or stored_len != _FOOTER.size \
                        or len(stored) != stored_len:
                    raise TraceFormatError("malformed end-of-trace marker")
                (declared,) = _FOOTER.unpack(stored)
                if declared != total:
                    raise TraceFormatError(
                        f"record count mismatch: marker declares {declared}, "
                        f"chunks held {total}")
                if fh.read(1):
                    raise TraceFormatError(
                        "trailing bytes: data after end-of-trace marker")
                return total
            if fh.seekable():
                fh.seek(stored_len, io.SEEK_CUR)
            elif len(fh.read(stored_len)) != stored_len:
                raise TraceFormatError(f"truncated chunk {chunk_index}")
            total += records
            chunk_index += 1
    finally:
        if own:
            fh.close()


def roundtrip_bytes(requests: List[MemoryRequest], *,
                    version: int = DEFAULT_VERSION,
                    compress: bool = False) -> List[MemoryRequest]:
    """Serialize to memory and read back (testing helper)."""
    buf = io.BytesIO()
    write_trace(requests, buf, version=version, compress=compress)
    buf.seek(0)
    return read_trace_list(buf)
