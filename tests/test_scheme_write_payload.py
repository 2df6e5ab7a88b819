"""A write request without a payload fails typed, before any state changes.

``MemoryRequest`` rejects a payload-less write at construction, but a
request built unchecked (or mutated afterwards) can still reach a scheme.
Every registered scheme's ``handle_write`` must then raise the same
``ValueError`` as the constructor, leave its tallies, frame allocator and
controller untouched, and keep the never-written line reading as zeros.
The check is not an ``assert``, so it holds under ``python -O`` too.
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


def payloadless_write_outcome(name):
    """What a payload-less write does to a scheme that holds one line.

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
        scheme.handle_write(request_unchecked(64, AccessType.WRITE, None,
                                              10.0, 0, 1))
        error = None
    except Exception as exc:  # the outcome under test, whatever it is
        error = [type(exc).__name__, str(exc)]
    unchanged = state() == before
    read = scheme.handle_read(MemoryRequest(64, AccessType.READ, None, 20.0))
    return {"error": error, "unchanged": unchanged,
            "reads_zero": read.data == bytes(64)}


EXPECTED = {"error": ["ValueError", "write request requires data"],
            "unchanged": True, "reads_zero": True}


@pytest.mark.parametrize("name", registered_scheme_names())
def test_payloadless_write_rejected_before_state_changes(name):
    assert payloadless_write_outcome(name) == EXPECTED


def test_payloadless_write_rejected_under_optimized_mode():
    code = ("import json, sys\n"
            f"sys.path[:0] = [{str(SRC)!r}, {str(Path(__file__).parent)!r}]\n"
            "from repro.registry import registered_scheme_names\n"
            "from test_scheme_write_payload import "
            "payloadless_write_outcome\n"
            "print(json.dumps({name: payloadless_write_outcome(name) "
            "for name in registered_scheme_names()}))\n")
    proc = subprocess.run([sys.executable, "-O", "-c", code],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    outcomes = json.loads(proc.stdout)
    assert set(outcomes) == set(registered_scheme_names())
    for name, outcome in outcomes.items():
        assert outcome == EXPECTED, name
