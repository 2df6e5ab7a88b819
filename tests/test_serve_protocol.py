"""Wire-protocol robustness of the serving front end (protocol 2).

Malformed frames, hello validation and fuzzers, driven over raw sockets
at both engine back ends (in-process and a 2-worker pool).  Each
malformed frame must get its typed error code, enqueue nothing, and leave
the connection serving: the same connection then admits a valid batch,
answers a ``ping``, and finalizes bit-identical to a direct run of just
the valid batches.  The fuzzers (batch records, whole frames, hello
fields, session ids) require every reply to be ``ok`` or to carry a
typed code other than ``internal``, on a connection that still answers
``ping`` afterwards.
"""

import base64
import dataclasses
import json
import math
import socket
import struct

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.common.config import MAX_NUM_BANKS, MAX_PREDICTOR_ENTRIES
from repro.common.errors import ServeError
from repro.common.types import AccessType, MemoryRequest
from repro.registry import make_scheme
from repro.serve import BackgroundServer, ServeClient, ServeConfig
from repro.serve.pool import RecordSpan
from repro.serve.protocol import ERROR_CODES, MAX_LINE_BYTES, PROTOCOL_VERSION
from repro.sim.engine import EngineConfig, SimulationEngine
from repro.sim.export import result_to_state
from repro.sim.runner import scaled_system_config
from repro.workloads.generator import TraceGenerator
from repro.workloads.trace import pack_records, parse_records

#: The valid batch every case sends: 48 gcc requests (reads and writes).
TRACE = TraceGenerator("gcc", seed=29).generate_list(48)
RECORDS, COUNT = pack_records(TRACE)


def _b64(records: bytes) -> str:
    return base64.b64encode(records).decode("ascii")


def _direct_state(requests):
    engine = SimulationEngine(
        make_scheme("ESD", scaled_system_config()), EngineConfig())
    return result_to_state(engine.run(iter(requests), app="gcc"))


class _Wire:
    """A raw NDJSON connection: frames in, reply objects out."""

    def __init__(self, port: int) -> None:
        self._sock = socket.create_connection(("127.0.0.1", port),
                                              timeout=120)
        self._fh = self._sock.makefile("rwb")

    def call(self, frame):
        line = frame if isinstance(frame, bytes) else json.dumps(
            frame).encode("utf-8")
        self._fh.write(line + b"\n")
        self._fh.flush()
        return json.loads(self._fh.readline())

    def hello(self, **fields):
        message = {"verb": "hello", "protocol": PROTOCOL_VERSION,
                   "scheme": "ESD", "app": "gcc"}
        message.update(fields)
        return self.call(message)

    def batch(self, sid, records=RECORDS, count=COUNT):
        return self.call({"verb": "batch", "session": sid, "count": count,
                          "records": _b64(records)})

    def close(self) -> None:
        self._fh.close()
        self._sock.close()


@pytest.fixture(scope="module", params=[1, 2], ids=["workers1", "workers2"])
def server(request):
    with BackgroundServer(ServeConfig(workers=request.param,
                                      max_sessions=64)) as served:
        yield served


@pytest.fixture
def wire(server):
    conn = _Wire(server.port)
    yield conn
    conn.close()


def _patched(offset: int, fmt: str, value) -> bytes:
    """The valid records with one field of the first record overwritten
    (record layout: u8 kind, u8 core, u16, u32 seq, u64 address @8,
    f64 issue time @16)."""
    blob = bytearray(RECORDS)
    struct.pack_into(fmt, blob, offset, value)
    return bytes(blob)


def _batch_frame(records: bytes, count: int = COUNT):
    return lambda sid: {"verb": "batch", "session": sid, "count": count,
                        "records": _b64(records)}


#: (row id, frame builder taking the session id, expected error code).
MALFORMED = [
    ("bad_base64", lambda sid: {"verb": "batch", "session": sid,
                                "count": COUNT, "records": "@@not base64"},
     "bad_request"),
    ("records_not_a_string", lambda sid: {"verb": "batch", "session": sid,
                                          "count": COUNT, "records": 7},
     "bad_request"),
    ("count_not_an_int", lambda sid: {"verb": "batch", "session": sid,
                                      "count": "48",
                                      "records": _b64(RECORDS)},
     "bad_request"),
    ("negative_count", _batch_frame(RECORDS, -1), "bad_request"),
    ("count_above_records", _batch_frame(RECORDS, COUNT + 1),
     "bad_request"),
    ("count_below_records", _batch_frame(RECORDS, COUNT - 1),
     "bad_request"),
    ("truncated_record", _batch_frame(RECORDS[:-30]), "bad_request"),
    ("unknown_record_kind", _batch_frame(_patched(0, "<B", 7)),
     "bad_request"),
    ("misaligned_address", _batch_frame(_patched(8, "<Q", 65)),
     "bad_request"),
    ("nan_issue_time", _batch_frame(_patched(16, "<d", math.nan)),
     "bad_request"),
    ("inf_issue_time", _batch_frame(_patched(16, "<d", math.inf)),
     "bad_request"),
    ("negative_issue_time", _batch_frame(_patched(16, "<d", -5.0)),
     "bad_request"),
    ("missing_session", lambda sid: {"verb": "batch", "count": COUNT,
                                     "records": _b64(RECORDS)},
     "unknown_session"),
    ("unknown_session", lambda sid: {"verb": "batch", "session": "nope",
                                     "count": COUNT,
                                     "records": _b64(RECORDS)},
     "unknown_session"),
    ("non_json_line", lambda sid: b'{"verb": "batch", ', "protocol"),
    ("json_array", lambda sid: b'["batch", 1]', "protocol"),
    ("overlong_line", lambda sid: b"x" * (MAX_LINE_BYTES + 4096),
     "protocol"),
    # Nesting past the JSON parser's recursion limit (found by fuzzing).
    ("deeply_nested_json", lambda sid: b"[" * 100_000, "protocol"),
]


@pytest.mark.parametrize("build, code", [(row[1], row[2])
                                         for row in MALFORMED],
                         ids=[row[0] for row in MALFORMED])
def test_malformed_frame_gets_typed_code(wire, build, code):
    hello = wire.hello(tenant=f"malformed-{code}")
    assert hello["ok"] and hello["protocol"] == PROTOCOL_VERSION
    sid = hello["session"]
    reply = wire.call(build(sid))
    assert reply["ok"] is False
    assert reply["error"] == code, reply
    # The same connection keeps serving, and the rejected frame left
    # nothing in the session's queue.
    accepted = wire.batch(sid)
    assert accepted == {"ok": True, "accepted": COUNT,
                        "credits": accepted["credits"]}
    assert wire.call({"verb": "ping"})["ok"] is True
    final = wire.call({"verb": "finalize", "session": sid})
    assert final["ok"] is True
    assert final["state"] == _direct_state(TRACE)


#: (row id, tenant options, expected error code) of hellos whose options
#: must be refused.
BAD_OPTIONS = [
    # A section set to a value, and a float field set to a non-finite
    # value or an int past the float range (found by fuzzing; these
    # failed the run at finalize or at open).
    ("section_set_to_a_value", {"metadata_cache": 3}, "bad_request"),
    ("infinite_clock", {"processor.clock_ghz": math.inf}, "bad_request"),
    ("nan_latency", {"pcm.read_latency_ns": math.nan}, "bad_request"),
    ("int_beyond_float_range", {"pcm.read_latency_ns": 10 ** 400},
     "bad_request"),
    # A value of another kind than the field holds.
    ("string_for_int", {"seed": "7"}, "bad_request"),
    ("float_for_int", {"metadata_cache.efit_bytes": 1.5}, "bad_request"),
    ("bool_for_int", {"esd.decay_period": True}, "bad_request"),
    ("string_for_bool", {"verify_integrity": "yes"}, "bad_request"),
    ("list_for_int", {"seed": [[7]]}, "bad_request"),
    # A size option past its bound: each would allocate a table eagerly.
    ("too_many_banks", {"pcm.num_banks": 2 * MAX_NUM_BANKS}, "bad_request"),
    ("oversized_predictor_table",
     {"dewrite.predictor_entries": MAX_PREDICTOR_ENTRIES + 1}, "bad_request"),
    # Found by the unbounded integer fuzzing: a trace capacity past a C
    # ssize_t overflowed at open.
    ("trace_capacity_past_ssize_t",
     {"observability.enabled": True, "observability.trace_capacity": 2 ** 63},
     "bad_request"),
    # The PCM line size is not a setting: every scheme addresses 64-byte
    # lines.
    ("removed_line_size", {"pcm.line_size": 64}, "bad_request"),
    # The LRCU decay epoch counts every operation; there is no mode.
    ("removed_decay_mode", {"esd.decay_on": "ops"}, "bad_request"),
]


@pytest.mark.parametrize("options, code", [(row[1], row[2])
                                           for row in BAD_OPTIONS],
                         ids=[row[0] for row in BAD_OPTIONS])
def test_hello_rejects_bad_options(wire, options, code):
    reply = wire.hello(options=options)
    assert reply["ok"] is False and reply["error"] == code, reply
    assert wire.call({"verb": "ping"})["ok"] is True


@pytest.mark.parametrize("version", [None, 1, 3, "2", 2.5, True])
def test_hello_needs_this_protocol_version(wire, version):
    fields = {} if version is None else {"protocol": version}
    message = {"verb": "hello", "scheme": "ESD", **fields}
    reply = wire.call(message)
    assert reply["ok"] is False and reply["error"] == "protocol"
    assert f"protocol {PROTOCOL_VERSION}" in reply["detail"]
    assert wire.call({"verb": "ping"})["ok"] is True


def test_sdk_hello_speaks_the_protocol(server):
    with ServeClient("127.0.0.1", server.port) as client:
        sid = client.open_session("ESD", tenant="sdk", app="gcc")
        assert sid
        client.send(TRACE)
        assert client.finalize()["state"] == _direct_state(TRACE)


def test_batch_over_one_epoch_splits_bit_exact(server):
    """One 3,000-request batch is fed as 1,024 + 1,024 + 952: the drain
    splits the queued batch at the epoch cap (a list slice in-process,
    a record-offset byte slice in the pool)."""
    trace = TraceGenerator("lbm", seed=31).generate_list(3000)
    with ServeClient("127.0.0.1", server.port) as client:
        client.open_session("ESD", tenant="one-big-batch", app="gcc")
        client.send(trace)
        assert client.finalize()["state"] == _direct_state(trace)


def test_record_span_slices_at_record_offsets():
    requests = TraceGenerator("gcc", seed=37).generate_list(300)
    records, count = pack_records(requests)
    span = RecordSpan.checked(records, count)
    head, tail = span[:128], span[128:]
    assert (len(head), len(tail)) == (128, 172)
    assert head.payload() == pack_records(requests[:128])[0]
    assert tail[:100].payload() == pack_records(requests[128:228])[0]
    assert tail[100:].payload() == pack_records(requests[228:])[0]
    assert span.payload() is records


@pytest.mark.parametrize("hint", ["abc", [1], -5, True, 2.5])
def test_hello_rejects_bad_total_hint(wire, hint):
    reply = wire.hello(total_hint=hint)
    assert reply["ok"] is False
    assert reply["error"] == "bad_request"
    assert "total_hint" in reply["detail"]


def test_hello_accepts_null_or_natural_total_hint(wire):
    for hint in (None, 0, COUNT):
        reply = wire.hello(total_hint=hint)
        assert reply["ok"] is True
        assert wire.call({"verb": "finalize",
                          "session": reply["session"]})["ok"] is True


@pytest.mark.parametrize("field, value", [("core", 300), ("seq", 2 ** 32),
                                          ("seq", -1)])
def test_sdk_rejects_unpackable_request(server, field, value):
    bad = MemoryRequest(address=64, access=AccessType.READ, seq=1)
    setattr(bad, field, value)
    with ServeClient("127.0.0.1", server.port) as client:
        client.open_session("ESD", tenant="sdk-bad", app="gcc")
        with pytest.raises(ServeError) as excinfo:
            client.send([bad])
        assert excinfo.value.code == "bad_request"
        assert field in str(excinfo.value)
        client.send(TRACE)
        assert client.finalize()["state"] == _direct_state(TRACE)


#: A byte-level edit of the valid records: flip one byte, truncate,
#: or append bytes.
_EDITS = st.one_of(
    st.tuples(st.just("flip"), st.integers(0, len(RECORDS) - 1),
              st.integers(1, 255)),
    st.tuples(st.just("truncate"), st.integers(0, len(RECORDS) - 1)),
    st.tuples(st.just("extend"), st.binary(min_size=1, max_size=96)),
)


def _edit(records: bytes, edit) -> bytes:
    if edit[0] == "flip":
        if not records:
            return records
        blob = bytearray(records)
        blob[edit[1] % len(blob)] ^= edit[2]
        return bytes(blob)
    if edit[0] == "truncate":
        return records[:edit[1]]
    return records + edit[1]


def test_fuzzed_records_answer_ok_or_bad_request(wire):
    """Every reply to an edited blob is ``ok`` or ``bad_request`` —
    never ``internal`` — and the session, having admitted only batches
    that parse, finalizes bit-identical to a direct run of them."""
    sid = wire.hello(tenant="fuzz")["session"]
    admitted = []

    @settings(max_examples=60, deadline=None, database=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(edits=st.lists(_EDITS, min_size=1, max_size=3),
           count_delta=st.sampled_from([0, 0, 0, -1, 1]))
    def send_edited(edits, count_delta):
        records = RECORDS
        for edit in edits:
            records = _edit(records, edit)
        count = COUNT + count_delta
        reply = wire.batch(sid, records, count)
        if reply["ok"]:
            admitted.extend(parse_records(records, count))
        else:
            assert reply["error"] == "bad_request", reply

    send_edited()
    assert wire.batch(sid)["ok"] is True
    admitted.extend(TRACE)
    final = wire.call({"verb": "finalize", "session": sid})
    assert final["ok"] is True
    assert final["state"] == _direct_state(admitted)


#: Every reply code a fuzzed input may get.
TYPED_CODES = set(ERROR_CODES) - {"internal"}


def _assert_typed(reply):
    assert reply["ok"] is True or reply["error"] in TYPED_CODES, reply


_FUZZ_SETTINGS = settings(max_examples=60, deadline=None, database=None,
                          suppress_health_check=[HealthCheck.too_slow])

#: JSON documents that are not objects.
_NOT_OBJECTS = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=4), max_leaves=8)

#: Whole frames: arbitrary bytes, bytes that are not UTF-8 (0xFF occurs
#: in no UTF-8 text), and JSON that is not an object.  A frame is one
#: line, so LF bytes become spaces.
_FRAMES = st.one_of(
    st.binary(max_size=200),
    st.binary(max_size=64).map(lambda tail: b"\xff" + tail),
    _NOT_OBJECTS.map(lambda value: json.dumps(value).encode("utf-8")),
).map(lambda frame: frame.replace(b"\n", b" "))


def _option_paths(config, prefix=""):
    """Every dotted option path of ``config``, sections included."""
    for spec in dataclasses.fields(config):
        yield prefix + spec.name
        value = getattr(config, spec.name)
        if dataclasses.is_dataclass(value):
            yield from _option_paths(value, f"{prefix}{spec.name}.")


#: JSON scalars.  Integers are small (valid sizes, powers of two) or
#: unbounded: every size option that allocates eagerly is bounded.
_SCALARS = (st.none() | st.booleans() | st.integers(-2, 300)
            | st.integers() | st.floats() | st.text(max_size=8))
_VALUES = st.recursive(
    _SCALARS, lambda inner: (st.lists(inner, max_size=3)
                             | st.dictionaries(st.text(max_size=6), inner,
                                               max_size=3)),
    max_leaves=5)
_OPTION_PATHS = sorted(_option_paths(scaled_system_config()))
_HELLO_FIELDS = st.fixed_dictionaries({}, optional={
    "options": st.one_of(
        _VALUES,
        st.dictionaries(st.sampled_from(_OPTION_PATHS)
                        | st.text(max_size=10), _VALUES, max_size=3),
        st.dictionaries(st.sampled_from(_OPTION_PATHS), _SCALARS,
                        min_size=1, max_size=3)),
    "scheme": _VALUES | st.sampled_from(["ESD", "esd", "0", "3", "DaE"]),
    "tenant": _VALUES,
    "app": _VALUES,
})


def test_fuzzed_frames_get_typed_replies(wire):
    @_FUZZ_SETTINGS
    @given(frame=_FRAMES)
    def send(frame):
        _assert_typed(wire.call(frame))

    send()
    assert wire.call({"verb": "ping"})["ok"] is True


def test_fuzzed_hello_fields_get_typed_replies(wire):
    """A hello with mutated ``options``, ``scheme``, ``tenant`` and
    ``app`` gets a typed reply; a session it opens answers a batch and
    its finalize with typed replies too."""
    @_FUZZ_SETTINGS
    @given(fields=_HELLO_FIELDS)
    def open_session(fields):
        reply = wire.hello(**fields)
        _assert_typed(reply)
        if reply["ok"]:
            _assert_typed(wire.batch(reply["session"]))
            _assert_typed(wire.call({"verb": "finalize",
                                     "session": reply["session"]}))

    open_session()
    assert wire.call({"verb": "ping"})["ok"] is True


def test_fuzzed_session_ids_get_typed_replies(wire):
    """``batch`` and ``finalize`` naming mutated session ids — edits of
    a live id, other types, unknown strings — get typed replies."""
    sid = wire.hello(tenant="fuzz-session-ids")["session"]
    edits = st.one_of(
        st.text(max_size=4).map(lambda tail: sid + tail),
        st.integers(0, len(sid)).map(lambda cut: sid[:cut]),
        st.just(sid.upper()),
        st.text(max_size=6).map(lambda tail: "s" + tail),
        _VALUES)

    @_FUZZ_SETTINGS
    @given(verb=st.sampled_from(["batch", "finalize"]), session=edits)
    def send(verb, session):
        _assert_typed(wire.call({"verb": verb, "session": session,
                                 "count": COUNT, "records": _b64(RECORDS)}))

    send()
    assert wire.call({"verb": "ping"})["ok"] is True
    _assert_typed(wire.call({"verb": "finalize", "session": sid}))
