"""Trace record serialization.

Traces can be generated on the fly (the common path), but persisting them
lets experiments replay byte-identical request streams across schemes and
sessions — the artifact-appendix workflow of the paper ("users can generate
other corresponding traces ... kept in the same regulation format").

Record encoding, little-endian:

============  =======================================================
Record        u8 kind (0=read, 1=write), u8 core, u16 reserved,
              u32 seq, u64 address, f64 issue_time_ns,
              64-byte payload (writes only)
============  =======================================================

Container (version 2): a 20-byte header — magic ``b"ESDTRACE"``, u16
version, u16 flags (bit 0 = zlib-compressed chunks), u64 reserved/zero
(the authoritative count lives in the footer, so the writer never needs
to seek) — followed by a sequence of chunk frames::

    u32 record_count, u32 raw_len, u32 stored_len, stored bytes

and terminated by an end-of-trace marker frame with ``record_count ==
0`` whose 8 stored bytes are the u64 total record count.  The writer
packs ``chunk_records`` records at a time straight from the source
iterator, so a generator streams to disk in bounded memory; the reader
decodes chunk by chunk the same way.  A file that is missing its marker
frame (a capture killed mid-write) never parses as complete, and bytes
after the marker raise — concatenation or header corruption cannot
silently drop records.  The flat version-1 container is no longer read:
its header fails with a :class:`TraceFormatError` naming the version.

The record encoding is public — :func:`pack_records` and
:func:`parse_records` — because it is also the serve wire format: a
``batch`` frame of :mod:`repro.serve.protocol` carries the same records
base64-encoded, so trace files and served batches share one codec.

Both directions are scalar loops.  The decoder (:func:`_decode`) walks
the records with one ``unpack_from`` each and builds a request through
trusted construction (one ``__new__`` plus one ``__dict__`` display, see
:func:`repro.common.types.request_unchecked`) whenever the record's
fields already satisfy every :class:`MemoryRequest` invariant; any other
record goes through the validating constructor, which raises its exact
error.  :func:`check_records` runs the same loop without building
requests, so the two raise the same first error in record order.  A
numpy batched decoder measured no faster than this loop on the batch
shapes the workloads use, and the writer stays ``struct.pack`` for the
same reason — per-object work on Python request objects dominates, and
no array math removes that (timings in DESIGN.md §10).
"""

from __future__ import annotations

import gc
import io
import operator
import struct
import zlib
from itertools import islice
from pathlib import Path
from typing import BinaryIO, Iterable, Iterator, List, Tuple, Union

from ..common.atomic import atomic_binary_writer
from ..common.errors import TraceFormatError
from ..common.types import CACHE_LINE_SIZE, AccessType, MemoryRequest

MAGIC = b"ESDTRACE"
VERSION_V2 = 2

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

#: Addresses at or past this bound skip trusted construction (a u64 the
#: validating constructor accepts, kept off the trusted path).
_ADDRESS_SIGN_BIT = 1 << 63
_INF = float("inf")


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


def write_trace(requests: Iterable[MemoryRequest],
                destination: Union[str, Path, BinaryIO], *,
                compress: bool = False,
                chunk_records: int = DEFAULT_CHUNK_RECORDS) -> int:
    """Serialize a request stream; returns the record count written.

    Records stream to the destination in ``chunk_records``-sized frames,
    so any iterator — including a live generator — serializes in bounded
    memory; ``compress=True`` zlib-compresses each frame.

    Raises:
        TraceFormatError: on a non-positive ``chunk_records`` or a
            malformed request in the stream.
    """
    if chunk_records <= 0:
        raise TraceFormatError(
            f"chunk_records must be positive, got {chunk_records}")
    own = isinstance(destination, (str, Path))
    fh: BinaryIO = open(destination, "wb") if own else destination  # type: ignore[arg-type]
    try:
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
    finally:
        if own:
            fh.close()


def capture_trace(requests: Iterable[MemoryRequest],
                  path: Union[str, Path], *,
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
        count = write_trace(requests, fh, compress=compress,
                            chunk_records=chunk_records)
    return count


def _decode(buf: bytes, count: int, build: bool) -> list:
    """Walk ``count`` records of ``buf``: their requests when ``build``,
    else their byte offsets.

    The one decode loop behind :func:`parse_records` and
    :func:`check_records`, so both raise the same first error in record
    order.  A record whose address is aligned and below 2**63 and whose
    issue time is finite and non-negative is built through trusted
    construction (the loop body of ``request_unchecked``); any other
    goes through the validating constructor, which raises its exact
    ``ValueError`` — or accepts a u64 address past 2**63.
    """
    unpack_from = _RECORD_FIXED.unpack_from
    fixed_size = _RECORD_FIXED.size
    total = len(buf)
    read_access = AccessType.READ
    write_access = AccessType.WRITE
    new = MemoryRequest.__new__
    cls = MemoryRequest
    line_mask = CACHE_LINE_SIZE - 1
    sign_bit = _ADDRESS_SIGN_BIT
    inf = _INF
    out: list = []
    append = out.append
    offset = 0
    # Defer garbage collection across the loop: tens of thousands of
    # container allocations otherwise trigger repeated young-generation
    # passes over objects that are all live.  The loop never yields, so
    # the collector is never held off across a consumer's code.
    gc_was_enabled = gc.isenabled()
    if gc_was_enabled:
        gc.disable()
    try:
        for i in range(count):
            start = offset
            offset += fixed_size
            if offset > total:
                raise TraceFormatError(f"truncated record {i}")
            kind, core, _, seq, address, issue = unpack_from(buf, start)
            if kind == 1:
                offset += CACHE_LINE_SIZE
                if offset > total:
                    raise TraceFormatError(
                        f"truncated payload in record {i}")
                access = write_access
            elif kind == 0:
                access = read_access
            else:
                raise TraceFormatError(f"unknown record kind {kind}")
            if address & line_mask or address >= sign_bit \
                    or not 0.0 <= issue < inf:
                request = cls(address, access,
                              buf[start + fixed_size:offset] if kind
                              else None, issue, core, seq)
                append(request if build else start)
            elif build:
                request = new(cls)
                request.__dict__ = {
                    "address": address, "access": access,
                    "data": buf[start + fixed_size:offset] if kind else None,
                    "issue_time_ns": issue, "core": core, "seq": seq}
                append(request)
            else:
                append(start)
    finally:
        if gc_was_enabled:
            gc.enable()
    if offset != total:
        raise TraceFormatError(
            f"trailing bytes: {total - offset} after {count} records")
    return out


def parse_records(buf: bytes, count: int) -> List[MemoryRequest]:
    """Parse ``count`` records packed by :func:`pack_records`.

    The one record decoder: the trace reader parses each container chunk
    with it and the serve server parses each ``batch`` frame with it.

    Raises:
        TraceFormatError: on a truncated record, an unknown record kind,
            or trailing bytes.
        ValueError: on a record that breaks a :class:`MemoryRequest`
            invariant (misaligned address, bad issue time).
    """
    return _decode(buf, count, True)


def check_records(buf: bytes, count: int) -> List[int]:
    """Validate records as :func:`parse_records` would, building no
    requests; returns each record's byte offset.

    For callers that forward record bytes instead of parsing them (the
    serve pool's parent process): the offsets let them cut a batch at
    any record boundary.  Raises exactly what :func:`parse_records`
    raises — both run :func:`_decode`.
    """
    return _decode(buf, count, False)


def _read_records_v2(fh: BinaryIO, flags: int) -> Iterator[MemoryRequest]:
    """Chunk-by-chunk v2 decoder; validates the marker frame and footer."""
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


def _read_header(fh: BinaryIO) -> int:
    """Check a trace header; returns its flags."""
    header = fh.read(_HEADER.size)
    if len(header) != _HEADER.size:
        raise TraceFormatError("truncated header")
    magic, version, flags, _ = _HEADER.unpack(header)
    if magic != MAGIC:
        raise TraceFormatError(f"bad magic {magic!r}")
    if version != VERSION_V2:
        raise TraceFormatError(f"unsupported version {version} (this "
                               f"build reads version {VERSION_V2} only)")
    if flags & ~_KNOWN_FLAGS:
        raise TraceFormatError(f"unknown trace flags {flags:#06x}")
    return flags


def read_trace(source: Union[str, Path, BinaryIO]) -> Iterator[MemoryRequest]:
    """Deserialize a trace, yielding requests in order.

    Decodes chunk by chunk in bounded memory.  This is a generator:
    nothing is read until the first request is drawn, and the file
    handle stays open only while the generator is live.

    Raises:
        TraceFormatError: on bad magic, version, flags, truncated or
            trailing records, or a missing end-of-trace marker.
    """
    own = isinstance(source, (str, Path))
    fh: BinaryIO = open(source, "rb") if own else source  # type: ignore[arg-type]
    try:
        yield from _read_records_v2(fh, _read_header(fh))
    finally:
        if own:
            fh.close()


def read_trace_list(source: Union[str, Path, BinaryIO]) -> List[MemoryRequest]:
    """Deserialize a whole trace into a list."""
    return list(read_trace(source))


def trace_record_count(source: Union[str, Path, BinaryIO]) -> int:
    """Return a trace file's record count without decoding records.

    Walks the chunk frames (seeking over the stored bytes) and
    cross-checks the footer, so a truncated capture raises instead of
    reporting a partial count.
    """
    own = isinstance(source, (str, Path))
    fh: BinaryIO = open(source, "rb") if own else source  # type: ignore[arg-type]
    try:
        _read_header(fh)
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
                    compress: bool = False) -> List[MemoryRequest]:
    """Serialize to memory and read back (testing helper)."""
    buf = io.BytesIO()
    write_trace(requests, buf, compress=compress)
    buf.seek(0)
    return read_trace_list(buf)
