"""A write with a malformed payload fails typed, before any state changes.

``MemoryRequest`` rejects a payload-less write, and a payload that is not
64 bytes, at construction; but a request built unchecked (or mutated
afterwards) can still reach a scheme.  Every registered scheme's
``handle_write`` must then raise the same ``ValueError`` as the
constructor, leave its tallies, frame allocator and controller
untouched, and keep the never-written line reading as zeros.  The check
is not an ``assert``, so it holds under ``python -O`` too.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.common import small_test_config
from repro.common.types import AccessType, MemoryRequest, request_unchecked
from repro.registry import make_scheme, registered_scheme_names

SRC = Path(__file__).resolve().parent.parent / "src"

#: Malformed payloads by length, with the constructor's message for each.
WRONG_LENGTHS = {63: "cache line must be 64 bytes, got 63",
                 65: "cache line must be 64 bytes, got 65"}


def bad_write_outcome(name, payload):
    """What a write of ``payload`` does to a scheme that holds one line.

    Returns plain data rather than asserting, so the same observation
    can be made in a ``python -O`` subprocess, where asserts are gone.
    """
    scheme = make_scheme(name, small_test_config())
    scheme.handle_write(MemoryRequest(0, AccessType.WRITE,
                                      bytes(range(64)), 0.0))

    def state():
        return (dict(scheme.counters.values),
                scheme.allocator.allocated_count,
                dict(scheme.controller.counters.values))

    before = state()
    try:
        scheme.handle_write(request_unchecked(64, AccessType.WRITE, payload,
                                              10.0, 0, 1))
        error = None
    except Exception as exc:  # the outcome under test, whatever it is
        error = [type(exc).__name__, str(exc)]
    unchanged = state() == before
    read = scheme.handle_read(MemoryRequest(64, AccessType.READ, None, 20.0))
    return {"error": error, "unchanged": unchanged,
            "reads_zero": read.data == bytes(64)}


def payloadless_write_outcome(name):
    return bad_write_outcome(name, None)


def expected(message):
    return {"error": ["ValueError", message], "unchanged": True,
            "reads_zero": True}


EXPECTED = expected("write request requires data")


def _optimized_outcomes(call):
    """``{scheme: outcome}`` of ``call`` (an expression of ``name``)
    evaluated for every scheme in a ``python -O`` subprocess."""
    code = ("import json, sys\n"
            f"sys.path[:0] = [{str(SRC)!r}, {str(Path(__file__).parent)!r}]\n"
            "from repro.registry import registered_scheme_names\n"
            "from test_scheme_write_payload import *\n"
            f"print(json.dumps({{name: {call} "
            "for name in registered_scheme_names()}))\n")
    proc = subprocess.run([sys.executable, "-O", "-c", code],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    outcomes = json.loads(proc.stdout)
    assert set(outcomes) == set(registered_scheme_names())
    return outcomes


@pytest.mark.parametrize("name", registered_scheme_names())
def test_payloadless_write_rejected_before_state_changes(name):
    assert payloadless_write_outcome(name) == EXPECTED


def test_payloadless_write_rejected_under_optimized_mode():
    outcomes = _optimized_outcomes("payloadless_write_outcome(name)")
    for name, outcome in outcomes.items():
        assert outcome == EXPECTED, name


@pytest.mark.parametrize("length", sorted(WRONG_LENGTHS))
@pytest.mark.parametrize("name", registered_scheme_names())
def test_wrong_length_write_rejected_before_state_changes(name, length):
    outcome = bad_write_outcome(name, bytes(length))
    assert outcome == expected(WRONG_LENGTHS[length])


def test_wrong_length_write_rejected_under_optimized_mode():
    for length, message in WRONG_LENGTHS.items():
        outcomes = _optimized_outcomes(
            f"bad_write_outcome(name, bytes({length}))")
        for name, outcome in outcomes.items():
            assert outcome == expected(message), (name, length)
