"""Tests for trace serialization.

The record decoder (``parse_records`` and ``check_records``) is checked
against ``_parse_records`` below, a reference parser kept here as the
oracle: it builds every request through the validating constructor, so
it raises the first fault in record order by construction.
"""

import gc
import io
import random
import struct
from typing import Iterator

import pytest

from repro.common.errors import TraceFormatError
from repro.common.types import (
    CACHE_LINE_SIZE,
    AccessType,
    MemoryRequest,
    request_unchecked,
)
from repro.workloads.generator import TraceGenerator
from repro.workloads.trace import (
    DEFAULT_CHUNK_RECORDS,
    MAGIC,
    _HEADER,
    _RECORD_FIXED,
    capture_trace,
    check_records,
    pack_records,
    parse_records,
    read_trace,
    read_trace_list,
    roundtrip_bytes,
    trace_record_count,
    write_trace,
)


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


def sample_requests():
    return [
        MemoryRequest(address=0, access=AccessType.WRITE,
                      data=bytes(range(64)), issue_time_ns=1.5, core=2, seq=1),
        MemoryRequest(address=128, access=AccessType.READ,
                      issue_time_ns=3.25, core=0, seq=2),
    ]


class TestRoundtrip:
    def test_simple_roundtrip(self):
        original = sample_requests()
        restored = roundtrip_bytes(original)
        assert len(restored) == 2
        for a, b in zip(original, restored):
            assert a.address == b.address
            assert a.access == b.access
            assert a.data == b.data
            assert a.issue_time_ns == b.issue_time_ns
            assert a.core == b.core
            assert a.seq == b.seq

    def test_generated_trace_roundtrip(self):
        original = TraceGenerator("gcc", seed=3).generate_list(400)
        restored = roundtrip_bytes(original)
        assert [(r.address, r.access, r.data, r.seq) for r in original] == \
               [(r.address, r.access, r.data, r.seq) for r in restored]

    def test_file_roundtrip(self, tmp_path):
        path = tmp_path / "trace.esd"
        original = TraceGenerator("x264", seed=3).generate_list(100)
        count = write_trace(original, path)
        assert count == 100
        restored = read_trace_list(path)
        assert len(restored) == 100
        assert restored[0].address == original[0].address

    def test_empty_trace(self):
        assert roundtrip_bytes([]) == []


class TestFormatErrors:
    def test_bad_magic(self):
        buf = io.BytesIO(b"NOTATRACE" + bytes(32))
        with pytest.raises(TraceFormatError):
            read_trace_list(buf)

    def test_truncated_header(self):
        buf = io.BytesIO(MAGIC)
        with pytest.raises(TraceFormatError):
            read_trace_list(buf)

    def test_truncated_record(self):
        buf = io.BytesIO()
        write_trace(sample_requests(), buf)
        data = buf.getvalue()[:-10]
        with pytest.raises(TraceFormatError):
            read_trace_list(io.BytesIO(data))

    def test_bad_version(self):
        buf = io.BytesIO()
        write_trace([], buf)
        raw = bytearray(buf.getvalue())
        raw[8] = 99  # version field
        with pytest.raises(TraceFormatError):
            read_trace_list(io.BytesIO(bytes(raw)))

    def test_v1_header_rejected(self):
        """The flat v1 container (header, then every record inline) is
        no longer read: it fails typed, naming version 1."""
        payload, count = pack_records(sample_requests())
        blob = _HEADER.pack(MAGIC, 1, 0, count) + payload
        with pytest.raises(TraceFormatError, match="version 1"):
            read_trace_list(io.BytesIO(blob))


def _keys(requests):
    return [(r.address, r.access, r.data, r.issue_time_ns, r.core, r.seq)
            for r in requests]


def _v2_blob(requests, **kwargs):
    buf = io.BytesIO()
    write_trace(requests, buf, **kwargs)
    return buf.getvalue()


class TestV2Container:
    """The chunked (optionally compressed) version-2 container."""

    @pytest.mark.parametrize("compress", [False, True])
    def test_trace_longer_than_one_chunk_roundtrips(self, compress):
        original = TraceGenerator("gcc", seed=3).generate_list(20_000)
        assert len(original) > DEFAULT_CHUNK_RECORDS
        assert roundtrip_bytes(original, compress=compress) == original

    def test_chunks_before_a_bad_one_reach_the_consumer(self):
        """Chunks decode one at a time: the requests of every chunk
        before the one holding a bad record reach the consumer before
        its error."""
        original = TraceGenerator("gcc", seed=3).generate_list(50)
        original[45] = request_unchecked(
            original[45].address + 1, original[45].access,
            original[45].data, original[45].issue_time_ns,
            original[45].core, original[45].seq)
        got = []
        with pytest.raises(ValueError, match="aligned"):
            for request in read_trace(io.BytesIO(
                    _v2_blob(original, chunk_records=10))):
                got.append(request)
        assert _keys(got) == _keys(original[:40])

    def test_compressed_roundtrip_smaller(self):
        original = TraceGenerator("deepsjeng", seed=5).generate_list(800)
        plain = _v2_blob(original)
        packed = _v2_blob(original, compress=True)
        assert len(packed) < len(plain)
        assert _keys(read_trace_list(io.BytesIO(packed))) == _keys(original)

    @pytest.mark.parametrize("chunk_records", [1, 7, 100, 101, 4096])
    def test_chunk_boundaries(self, chunk_records):
        """Framing changes with chunk size; decoded requests never do."""
        original = TraceGenerator("lbm", seed=7).generate_list(101)
        blob = _v2_blob(original, chunk_records=chunk_records)
        assert _keys(read_trace_list(io.BytesIO(blob))) == _keys(original)

    @pytest.mark.parametrize("compress", [False, True])
    def test_empty_trace(self, compress):
        blob = _v2_blob([], compress=compress)
        assert read_trace_list(io.BytesIO(blob)) == []
        assert trace_record_count(io.BytesIO(blob)) == 0

    def test_streaming_writer_takes_iterator(self, tmp_path):
        """write_trace must accept a generator (no len, one pass)."""
        path = tmp_path / "stream.esdtrace"
        count = write_trace(TraceGenerator("x264", seed=9).generate(300),
                            path, chunk_records=64)
        assert count == 300
        assert trace_record_count(path) == 300

    @pytest.mark.parametrize("decoder", [False, True])
    def test_parser_parity_across_modes(self, decoder):
        original = TraceGenerator("gcc", seed=11).generate_list(257)
        blob = _v2_blob(original, compress=True, chunk_records=50)
        assert _keys(read_trace_list(io.BytesIO(blob))) == _keys(original)
        parse = parse_records if decoder else _parse_records
        payload, count = pack_records(original)
        assert _keys(parse(payload, count)) == _keys(original)

    def test_bad_chunk_records(self):
        with pytest.raises(TraceFormatError):
            write_trace([], io.BytesIO(), chunk_records=0)


class TestTraceRecordCount:
    def test_v1(self):
        payload, count = pack_records(sample_requests())
        buf = io.BytesIO(_HEADER.pack(MAGIC, 1, 0, count) + payload)
        with pytest.raises(TraceFormatError, match="version 1"):
            trace_record_count(buf)

    def test_v2_multi_chunk(self):
        original = TraceGenerator("gcc", seed=3).generate_list(130)
        blob = _v2_blob(original, chunk_records=32)
        assert trace_record_count(io.BytesIO(blob)) == 130

    def test_truncated_v2_raises(self):
        blob = _v2_blob(sample_requests())
        with pytest.raises(TraceFormatError, match="end-of-trace"):
            trace_record_count(io.BytesIO(blob[:-20]))

    def test_footer_mismatch_raises(self):
        blob = bytearray(_v2_blob(sample_requests()))
        struct.pack_into("<Q", blob, len(blob) - 8, 99)
        with pytest.raises(TraceFormatError, match="count mismatch"):
            trace_record_count(io.BytesIO(bytes(blob)))


class TestCaptureTrace:
    def test_capture_and_read(self, tmp_path):
        path = tmp_path / "cap.esdtrace"
        original = TraceGenerator("gcc", seed=3).generate_list(64)
        assert capture_trace(iter(original), path, compress=True) == 64
        assert _keys(read_trace_list(path)) == _keys(original)
        # No temp litter once the capture finalized.
        assert [p.name for p in tmp_path.iterdir()] == ["cap.esdtrace"]

    def test_failed_capture_leaves_no_file(self, tmp_path):
        path = tmp_path / "cap.esdtrace"

        def exploding():
            yield from sample_requests()
            raise RuntimeError("source died")

        with pytest.raises(RuntimeError):
            capture_trace(exploding(), path)
        assert list(tmp_path.iterdir()) == []


class TestPackRecordErrors:
    """Satellite 1: the packer raises typed errors, not bare asserts."""

    def test_write_without_payload(self):
        bad = request_unchecked(0, AccessType.WRITE, None, 1.0, 0, 1)
        with pytest.raises(TraceFormatError, match="no 64-byte payload"):
            pack_records([bad])

    def test_write_with_short_payload(self):
        bad = request_unchecked(0, AccessType.WRITE, b"\x01" * 8, 1.0, 0, 1)
        with pytest.raises(TraceFormatError, match="no 64-byte payload"):
            pack_records([bad])

    def test_read_with_payload(self):
        bad = request_unchecked(0, AccessType.READ, bytes(64), 1.0, 0, 1)
        with pytest.raises(TraceFormatError, match="carries a payload"):
            pack_records([bad])

    def test_surfaces_through_write_trace(self):
        bad = request_unchecked(0, AccessType.WRITE, None, 1.0, 0, 1)
        with pytest.raises(TraceFormatError):
            write_trace([bad], io.BytesIO())

    def test_runs_under_optimized_mode(self):
        """The check must survive ``python -O`` (it is not an assert)."""
        import subprocess
        import sys
        code = ("from repro.common.types import AccessType, "
                "request_unchecked\n"
                "from repro.common.errors import TraceFormatError\n"
                "from repro.workloads.trace import pack_records\n"
                "bad = request_unchecked(0, AccessType.WRITE, None, "
                "1.0, 0, 1)\n"
                "try:\n"
                "    pack_records([bad])\n"
                "except TraceFormatError:\n"
                "    raise SystemExit(0)\n"
                "raise SystemExit(1)\n")
        proc = subprocess.run([sys.executable, "-O", "-c", code])
        assert proc.returncode == 0


class TestFieldRanges:
    """Record fields the format cannot hold fail typed, naming the field;
    issue times the engine cannot schedule never read back."""

    @pytest.mark.parametrize("field, value, width", [
        ("core", 300, "u8"),
        ("core", -1, "u8"),
        ("seq", 2 ** 32, "u32"),
        ("seq", -1, "u32"),
        ("address", 2 ** 64, "u64"),
    ])
    def test_unpackable_field(self, field, value, width):
        request = sample_requests()[1]
        setattr(request, field, value)
        with pytest.raises(TraceFormatError) as excinfo:
            write_trace([request], io.BytesIO())
        message = str(excinfo.value)
        assert f"seq={request.seq}" in message
        assert f"{field} {value}" in message and width in message

    @staticmethod
    def _gcc_with_issue(issue):
        trace = TraceGenerator("gcc", seed=3).generate_list(3000)
        request = trace[1500]
        trace[1500] = request_unchecked(
            request.address, request.access, request.data, issue,
            request.core, request.seq)
        return trace

    @pytest.mark.parametrize("issue", [float("nan"), float("inf"), -5.0])
    def test_unschedulable_issue_time_never_reads_back(self, issue):
        trace = self._gcc_with_issue(issue)
        with pytest.raises(ValueError, match="issue_time_ns"):
            roundtrip_bytes(trace)

    @pytest.mark.parametrize("issue", [float("nan"), float("inf"), -5.0])
    def test_decoders_raise_the_oracle_error(self, issue):
        payload, count = pack_records(self._gcc_with_issue(issue))
        errors = []
        for parse in (_parse_records, parse_records, check_records):
            with pytest.raises(ValueError) as excinfo:
                list(parse(payload, count))
            errors.append(str(excinfo.value))
        assert errors[0] == errors[1] == errors[2]

    def test_high_address_reads_back(self):
        """A u64 address past 2**63 skips trusted construction; the
        validating constructor accepts it, as the oracle does."""
        requests = [MemoryRequest(address=64 * i, access=AccessType.READ,
                                  issue_time_ns=float(i), seq=i)
                    for i in range(10)]
        requests[4] = MemoryRequest(address=2 ** 63, access=AccessType.READ,
                                    issue_time_ns=1.0, seq=4)
        requests[7] = MemoryRequest(address=2 ** 64 - 64,
                                    access=AccessType.WRITE,
                                    data=bytes(range(64)), seq=7)
        payload, count = pack_records(requests)
        assert parse_records(payload, count) == requests
        assert list(_parse_records(payload, count)) == requests
        assert check_records(payload, count) == [
            0, 24, 48, 72, 96, 120, 144, 168, 256, 280]
        assert roundtrip_bytes(requests) == requests


class TestTwoFaultPayloads:
    """A payload with two faults fails at the first in record order, in
    both decoders, with the oracle's error."""

    @staticmethod
    def _payload():
        requests = TraceGenerator("gcc", seed=3).generate_list(20)
        payload, count = pack_records(requests)
        return bytearray(payload), count, check_records(payload, count)

    @staticmethod
    def _misalign(payload, offset):
        (address,) = struct.unpack_from("<Q", payload, offset + 8)
        struct.pack_into("<Q", payload, offset + 8, address + 1)

    def _misaligned_then_truncated(self):
        payload, count, offsets = self._payload()
        self._misalign(payload, offsets[0])
        return bytes(payload[:-10]), count

    def _nan_issue_then_trailing(self):
        payload, count, offsets = self._payload()
        struct.pack_into("<d", payload, offsets[3] + 16, float("nan"))
        return bytes(payload) + b"\x00\x00", count

    def _misaligned_then_unknown_kind(self):
        payload, count, offsets = self._payload()
        self._misalign(payload, offsets[2])
        payload[offsets[10]] = 9
        return bytes(payload), count

    @pytest.mark.parametrize("build, first_fault", [
        ("_misaligned_then_truncated", "aligned"),
        ("_nan_issue_then_trailing", "issue_time_ns"),
        ("_misaligned_then_unknown_kind", "aligned"),
    ])
    def test_first_fault_wins(self, build, first_fault):
        payload, count = getattr(self, build)()
        with pytest.raises(ValueError, match=first_fault) as oracle:
            list(_parse_records(payload, count))
        for decode in (parse_records, check_records):
            with pytest.raises(ValueError) as excinfo:
                decode(payload, count)
            assert str(excinfo.value) == str(oracle.value)


class TestDecodeLoopGC:
    """The decode loop defers garbage collection only while it runs."""

    @pytest.mark.parametrize("decode", [parse_records, check_records])
    def test_collector_state_restored(self, decode):
        payload, count = pack_records(sample_requests())
        assert gc.isenabled()
        decode(payload, count)
        assert gc.isenabled()
        with pytest.raises(TraceFormatError):
            decode(payload + b"\x00", count)
        assert gc.isenabled()
        gc.disable()
        try:
            decode(payload, count)
            assert not gc.isenabled()
        finally:
            gc.enable()


class TestCheckRecords:
    """The build-free check raises exactly what the parser raises."""

    def test_offsets(self):
        requests = sample_requests() * 3
        payload, count = pack_records(requests)
        offsets = check_records(payload, count)
        assert offsets == [0, 88, 112, 200, 224, 312]
        assert [payload[o] for o in offsets] == [1, 0, 1, 0, 1, 0]

    def test_agrees_with_parser_on_corruptions(self):
        payload, count = pack_records(
            TraceGenerator("gcc", seed=3).generate_list(40))
        rng = random.Random(7)
        for pos in rng.sample(range(len(payload)), 120):
            mutated = bytearray(payload)
            mutated[pos] ^= 0xFF
            outcomes = []
            for check in (parse_records, check_records):
                try:
                    check(bytes(mutated), count)
                    outcomes.append(None)
                except (TraceFormatError, ValueError) as exc:
                    outcomes.append((type(exc), str(exc)))
            assert outcomes[0] == outcomes[1], pos


class TestTrailingBytes:
    """Satellite 2: stray bytes past the declared records must raise."""

    def test_error_parity_between_parsers(self):
        payload, count = pack_records(sample_requests())
        blob = payload + b"\xff" * 3
        with pytest.raises(TraceFormatError) as oracle_err:
            list(_parse_records(blob, count))
        with pytest.raises(TraceFormatError) as decoder_err:
            parse_records(blob, count)
        assert str(oracle_err.value) == str(decoder_err.value)

    @pytest.mark.parametrize("decoder", [False, True])
    def test_v2_trailing_bytes(self, decoder):
        # Past the end-of-trace marker (the container's check) and inside
        # a chunk payload (the parser's).
        blob = _v2_blob(sample_requests()) + b"junk"
        with pytest.raises(TraceFormatError, match="trailing bytes"):
            read_trace_list(io.BytesIO(blob))
        parse = parse_records if decoder else _parse_records
        payload, count = pack_records(sample_requests())
        with pytest.raises(TraceFormatError, match="trailing bytes"):
            list(parse(payload + b"junk", count))


class TestV2FormatErrors:
    def test_missing_end_marker(self):
        blob = _v2_blob(sample_requests())
        with pytest.raises(TraceFormatError, match="end-of-trace"):
            read_trace_list(io.BytesIO(blob[:-20]))

    def test_unknown_flags(self):
        blob = bytearray(_v2_blob(sample_requests()))
        struct.pack_into("<H", blob, 10, 0x8000)  # header flags field
        with pytest.raises(TraceFormatError, match="unknown trace flags"):
            read_trace_list(io.BytesIO(bytes(blob)))
        with pytest.raises(TraceFormatError, match="unknown trace flags"):
            trace_record_count(io.BytesIO(bytes(blob)))

    def test_footer_count_mismatch(self):
        blob = bytearray(_v2_blob(sample_requests()))
        struct.pack_into("<Q", blob, len(blob) - 8, 7)
        with pytest.raises(TraceFormatError, match="count mismatch"):
            read_trace_list(io.BytesIO(bytes(blob)))

    def test_corrupt_compressed_chunk(self):
        blob = bytearray(_v2_blob(sample_requests(), compress=True))
        # Header is 20 bytes, the chunk frame 12; the zlib stream starts
        # at 32.  Flip a byte in its middle.
        _, _, stored_len = struct.unpack_from("<III", blob, 20)
        blob[32 + stored_len // 2] ^= 0xFF
        with pytest.raises(TraceFormatError,
                           match="corrupt compressed chunk"):
            read_trace_list(io.BytesIO(bytes(blob)))

    def test_chunk_length_mismatch(self):
        blob = bytearray(_v2_blob(sample_requests()))
        # First chunk frame starts right after the 20-byte header:
        # (count, raw_len, stored_len).  Lie about raw_len.
        count, raw_len, stored_len = struct.unpack_from("<III", blob, 20)
        struct.pack_into("<III", blob, 20, count, raw_len + 1, stored_len)
        with pytest.raises(TraceFormatError, match="length mismatch"):
            read_trace_list(io.BytesIO(bytes(blob)))


class TestMalformedRecordFuzz:
    """The decoder gives the oracle's outcome on every corrupted payload:
    the same records, or the same first error."""

    def _outcome(self, parser, payload, count):
        try:
            return ("ok", _keys(parser(payload, count)))
        except (TraceFormatError, ValueError) as exc:
            return ("err", type(exc).__name__, str(exc))

    def test_single_byte_corruptions_agree(self):
        original = TraceGenerator("gcc", seed=3).generate_list(40)
        payload, count = pack_records(original)
        rng = random.Random(20230)
        positions = rng.sample(range(len(payload)), 120)
        for pos in positions:
            mutated = bytearray(payload)
            mutated[pos] ^= 0xFF
            mutated = bytes(mutated)
            oracle = self._outcome(_parse_records, mutated, count)
            decoded = self._outcome(parse_records, mutated, count)
            assert oracle == decoded, (
                f"decoder diverges at byte {pos}: {oracle} != {decoded}")

    def test_truncations_agree(self):
        original = TraceGenerator("lbm", seed=5).generate_list(12)
        payload, count = pack_records(original)
        for cut in range(0, len(payload), 41):
            mutated = payload[:cut]
            oracle = self._outcome(_parse_records, mutated, count)
            decoded = self._outcome(parse_records, mutated, count)
            assert oracle == decoded, f"divergence at truncation {cut}"


class TestDecoderAgainstOracle:
    """The record decoder (``parse_records``) against the reference
    oracle (``_parse_records``): identical requests, identical errors on
    malformed streams."""

    def _requests(self, count=800):
        return TraceGenerator("gcc", seed=9).generate_list(count)

    def test_roundtrip_byte_identical_both_modes(self):
        requests = self._requests()
        payload, count = pack_records(requests)
        assert list(_parse_records(payload, count)) == requests
        assert parse_records(payload, count) == requests

    def test_cross_mode_roundtrip(self):
        # The file reader's decode equals the oracle's decode of the same
        # records.
        requests = self._requests(200)
        buffer = io.BytesIO()
        write_trace(requests, buffer)
        buffer.seek(0)
        payload, count = pack_records(requests)
        assert read_trace_list(buffer) == list(_parse_records(payload,
                                                              count))

    def _blob(self, requests):
        """The packed records of ``requests``."""
        return pack_records(requests)[0]

    def _error(self, payload, count):
        outcomes = []
        for parse in (_parse_records, parse_records):
            try:
                list(parse(payload, count))
                outcomes.append(None)
            except Exception as exc:  # noqa: BLE001 - parity capture
                outcomes.append((type(exc), str(exc)))
        return outcomes

    def test_error_parity_truncated_payload(self):
        blob = self._blob(self._requests(50))
        ref, dec = self._error(blob[:-10], 50)
        assert ref == dec and ref is not None
        assert "truncated" in ref[1]

    def test_error_parity_unknown_kind(self):
        blob = bytearray(self._blob(self._requests(50)))
        blob[0] = 9  # first record's kind byte
        ref, dec = self._error(bytes(blob), 50)
        assert ref == dec and ref is not None
        assert "unknown record kind 9" in ref[1]

    def test_error_parity_misaligned_address(self):
        blob = bytearray(self._blob(self._requests(50)))
        struct.pack_into("<Q", blob, 8, 65)  # unaligned address
        ref, dec = self._error(bytes(blob), 50)
        assert ref == dec and ref is not None
        assert ref[0] is ValueError

    def test_empty_trace(self):
        assert list(_parse_records(b"", 0)) == []
        assert parse_records(b"", 0) == []
        assert check_records(b"", 0) == []
        buffer = io.BytesIO()
        assert write_trace([], buffer) == 0
        buffer.seek(0)
        assert read_trace_list(buffer) == []
