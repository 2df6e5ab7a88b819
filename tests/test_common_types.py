"""Tests for repro.common.types."""

import dataclasses
import hashlib
import pickle

import pytest

from repro.common.types import (
    CACHE_LINE_SIZE,
    WORDS_PER_LINE,
    ZERO_LINE,
    AccessType,
    LatencyBreakdown,
    MemoryRequest,
    OperationCost,
    PhysicalAddress,
    WritePathStage,
    is_zero_line,
    line_words,
    request_unchecked,
    validate_line,
)


class TestValidateLine:
    def test_accepts_exact_size(self):
        data = bytes(CACHE_LINE_SIZE)
        assert validate_line(data) == data

    def test_converts_bytearray(self):
        out = validate_line(bytearray(CACHE_LINE_SIZE))
        assert isinstance(out, bytes)

    def test_rejects_short(self):
        with pytest.raises(ValueError):
            validate_line(b"x" * 63)

    def test_rejects_long(self):
        with pytest.raises(ValueError):
            validate_line(b"x" * 65)

    def test_rejects_non_bytes(self):
        with pytest.raises(ValueError):
            validate_line("x" * 64)


class TestZeroLine:
    def test_zero_line_is_zero(self):
        assert is_zero_line(ZERO_LINE)

    def test_nonzero_line(self):
        assert not is_zero_line(b"\x01" + bytes(63))


class TestLineWords:
    def test_splits_into_eight_words(self):
        data = bytes(range(64))
        words = line_words(data)
        assert len(words) == WORDS_PER_LINE
        assert words[0] == bytes(range(8))
        assert words[7] == bytes(range(56, 64))

    def test_words_reassemble(self):
        data = bytes(range(64))
        assert b"".join(line_words(data)) == data


class TestMemoryRequest:
    def test_write_requires_data(self):
        with pytest.raises(ValueError):
            MemoryRequest(address=0, access=AccessType.WRITE)

    def test_read_rejects_data(self):
        with pytest.raises(ValueError):
            MemoryRequest(address=0, access=AccessType.READ, data=ZERO_LINE)

    def test_alignment_enforced(self):
        with pytest.raises(ValueError):
            MemoryRequest(address=13, access=AccessType.READ)

    def test_negative_address_rejected(self):
        with pytest.raises(ValueError):
            MemoryRequest(address=-64, access=AccessType.READ)

    @pytest.mark.parametrize("issue", [float("nan"), float("inf"), -5.0])
    def test_unschedulable_issue_time_rejected(self, issue):
        with pytest.raises(ValueError, match="issue_time_ns"):
            MemoryRequest(address=0, access=AccessType.READ,
                          issue_time_ns=issue)

    def test_line_index(self):
        req = MemoryRequest(address=640, access=AccessType.READ)
        assert req.line_index == 10

    def test_flags(self):
        r = MemoryRequest(address=0, access=AccessType.READ)
        w = MemoryRequest(address=0, access=AccessType.WRITE, data=ZERO_LINE)
        assert r.is_read and not r.is_write
        assert w.is_write and not w.is_read


def _write(**changes):
    fields = dict(address=128, access=AccessType.WRITE,
                  data=bytes(range(64)), issue_time_ns=1.5, core=2, seq=3)
    fields.update(changes)
    return MemoryRequest(**fields)


class TestMemoryRequestConstruction:
    """How a request is built and checked: messages, check order, field
    storage, ``dataclasses.replace``, equality, repr and pickling."""

    @pytest.mark.parametrize("data, message", [
        (b"x" * 63, "cache line must be 64 bytes, got 63"),
        (b"x" * 65, "cache line must be 64 bytes, got 65"),
        ("x" * 64, "cache line must be bytes, got str"),
        (None, "write request requires data"),
    ])
    def test_bad_write_payload_messages(self, data, message):
        with pytest.raises(ValueError) as info:
            _write(data=data)
        assert str(info.value) == message

    def test_read_with_payload_message(self):
        with pytest.raises(ValueError) as info:
            MemoryRequest(address=0, access=AccessType.READ, data=ZERO_LINE)
        assert str(info.value) == "read request must not carry data"

    @pytest.mark.parametrize("changes, message", [
        (dict(address=-64), "address must be non-negative, got -64"),
        (dict(address=13), "address 0xd is not 64-byte aligned"),
        (dict(issue_time_ns=-1.0),
         "issue_time_ns must be finite and non-negative, got -1.0"),
    ])
    def test_field_messages(self, changes, message):
        with pytest.raises(ValueError) as info:
            _write(**changes)
        assert str(info.value) == message

    def test_checks_run_in_order(self):
        # Address before alignment before issue time before payload.
        cases = [
            (dict(address=-13, issue_time_ns=-1.0, data=None), "non-negative"),
            (dict(address=13, issue_time_ns=-1.0, data=None), "aligned"),
            (dict(issue_time_ns=float("nan"), data=None), "issue_time_ns"),
        ]
        for changes, fragment in cases:
            with pytest.raises(ValueError, match=fragment):
                _write(**changes)

    def test_bytearray_payload_stored_as_bytes(self):
        req = _write(data=bytearray(range(64)))
        assert type(req.data) is bytes
        assert req.data == bytes(range(64))

    def test_bytes_payload_kept(self):
        data = bytes(range(64))
        assert _write(data=data).data is data

    def test_positional_and_default_fields(self):
        req = MemoryRequest(64, AccessType.READ)
        assert (req.address, req.access, req.data, req.issue_time_ns,
                req.core, req.seq) == (64, AccessType.READ, None, 0.0, 0, 0)

    def test_replace_revalidates(self):
        req = _write()
        with pytest.raises(ValueError, match="got 63"):
            dataclasses.replace(req, data=bytes(63))
        with pytest.raises(ValueError, match="aligned"):
            dataclasses.replace(req, address=13)
        copy = dataclasses.replace(req, issue_time_ns=9.0)
        assert copy.issue_time_ns == 9.0 and copy.data == req.data

    def test_field_order_and_equality(self):
        req = _write()
        assert list(vars(req)) == [f.name for f in
                                   dataclasses.fields(MemoryRequest)]
        assert req == _write()
        assert req != _write(seq=4)

    def test_repr(self):
        assert repr(MemoryRequest(address=64, access=AccessType.READ)) == (
            "MemoryRequest(address=64, access=<AccessType.READ: 'read'>, "
            "data=None, issue_time_ns=0.0, core=0, seq=0)")
        assert repr(_write()).startswith(
            "MemoryRequest(address=128, access=<AccessType.WRITE: 'write'>, "
            "data=b'\\x00\\x01")
        assert repr(_write()).endswith("issue_time_ns=1.5, core=2, seq=3)")

    def test_pickle_round_trip(self):
        req = _write()
        assert pickle.loads(pickle.dumps(req)) == req
        # The pickled form is the instance dict in field order.
        assert hashlib.sha256(pickle.dumps(req, protocol=4)).hexdigest() == (
            "24711f5f59fbd07f53da4b18577b8b436366ef3b86fb871430ece852dcc17b9b")


class TestRequestUnchecked:
    def test_equals_validated_constructor(self):
        data = bytes(range(64))
        checked = MemoryRequest(address=128, access=AccessType.WRITE,
                                data=data, issue_time_ns=5.0, core=1, seq=7)
        trusted = request_unchecked(128, AccessType.WRITE, data, 5.0, 1, 7)
        assert trusted == checked
        assert trusted.is_write and trusted.line_index == 2

    def test_read_request(self):
        trusted = request_unchecked(0, AccessType.READ, None, 0.0, 0, 0)
        assert trusted == MemoryRequest(address=0, access=AccessType.READ)


class TestPhysicalAddress:
    def test_roundtrip(self):
        pa = PhysicalAddress.from_line_number(0x12345678AB)
        assert pa.line_number == 0x12345678AB

    def test_base_offset_packing(self):
        pa = PhysicalAddress.from_line_number(0x1FF)
        assert pa.base == 1
        assert pa.offset == 0xFF

    def test_byte_address(self):
        pa = PhysicalAddress.from_line_number(10)
        assert pa.byte_address == 640

    def test_forty_bit_limit(self):
        PhysicalAddress.from_line_number((1 << 40) - 1)
        with pytest.raises(ValueError):
            PhysicalAddress.from_line_number(1 << 40)

    def test_component_range_checks(self):
        with pytest.raises(ValueError):
            PhysicalAddress(base=1 << 32, offset=0)
        with pytest.raises(ValueError):
            PhysicalAddress(base=0, offset=256)

    def test_packed_size_is_five_bytes(self):
        # 4-byte Addr_base + 1-byte Addr_offsets, per the paper.
        assert PhysicalAddress.PACKED_SIZE == 5

    def test_addressable_space_is_64_tib(self):
        max_lines = 1 << (PhysicalAddress.BASE_BITS
                          + PhysicalAddress.OFFSET_BITS)
        assert max_lines * CACHE_LINE_SIZE == 64 * (1024 ** 4)


class TestOperationCost:
    def test_add(self):
        total = OperationCost(1.0, 2.0) + OperationCost(3.0, 4.0)
        assert total.latency_ns == 4.0
        assert total.energy_nj == 6.0

    def test_iadd(self):
        cost = OperationCost(1.0, 1.0)
        cost += OperationCost(2.0, 3.0)
        assert cost.latency_ns == 3.0
        assert cost.energy_nj == 4.0


class TestLatencyBreakdown:
    def test_accumulates(self):
        bd = LatencyBreakdown()
        bd.add(WritePathStage.ENCRYPTION, 10.0)
        bd.add(WritePathStage.ENCRYPTION, 5.0)
        bd.add(WritePathStage.WRITE_UNIQUE, 85.0)
        assert bd.total() == 100.0
        assert bd.fraction(WritePathStage.ENCRYPTION) == pytest.approx(0.15)

    def test_fractions_sum_to_one(self):
        bd = LatencyBreakdown()
        bd.add(WritePathStage.ENCRYPTION, 30.0)
        bd.add(WritePathStage.METADATA, 70.0)
        assert sum(bd.as_fractions().values()) == pytest.approx(1.0)

    def test_empty_breakdown(self):
        bd = LatencyBreakdown()
        assert bd.total() == 0.0
        assert bd.fraction(WritePathStage.ENCRYPTION) == 0.0
        assert bd.as_fractions() == {}

    def test_rejects_negative(self):
        bd = LatencyBreakdown()
        with pytest.raises(ValueError):
            bd.add(WritePathStage.ENCRYPTION, -1.0)
