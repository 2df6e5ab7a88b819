"""Parity gate for the incremental session API (ISSUE 7 tentpole).

``SimulationEngine.run`` is reimplemented on top of
``open_session``/``feed``/``finalize``; these tests prove the refactor's
contract: feeding a trace incrementally — any chunk size, including the
epoch boundary sizes — produces a ``SimulationResult`` bit-identical to
a one-shot ``run()`` of the same trace, for every registered scheme, on
the reference path and the fast path, with traces shorter than one
epoch and traces spanning several.

Bit-identical means the full lossless state snapshot
(:func:`repro.sim.export.result_to_state`) compares equal: every raw
latency sample, every float accumulator, every counter, every extra.
"""

from dataclasses import replace

import pytest

from repro.common.errors import SessionError
from repro.registry import make_scheme, registered_scheme_names
from repro.sim.engine import EngineConfig, SimulationEngine
from repro.sim.export import result_to_state
from repro.sim.runner import scaled_system_config
from repro.vec.epoch import EPOCH_SIZE
from repro.workloads.generator import TraceGenerator

#: (mode name, use_fastpath) — the two engine loops.
MODES = [
    ("reference", False),
    ("fast", True),
]

#: (case id, use_fastpath, trace length) for the chunked-feed parity
#: test.  The fast path buffers requests into ``EPOCH_SIZE`` epochs:
#: "fast" stays under one epoch, so finalize releases the whole trace as
#: the short tail; "vec" spans two full epochs plus a tail, so epochs are
#: released mid-feed with their boundaries inside the feed chunks.
FEED_CASES = [
    ("reference", False, 700),
    ("fast", True, 700),
    ("vec", True, 2600),
]


def _engine(scheme_name: str, fast: bool) -> SimulationEngine:
    config = replace(scaled_system_config(), use_fastpath=fast)
    return SimulationEngine(make_scheme(scheme_name, config),
                            EngineConfig())


def _trace(n: int, app: str = "gcc", seed: int = 31):
    return TraceGenerator(app, seed=seed).generate_list(n)


def _session_state(scheme_name: str, fast: bool, trace, chunk: int):
    """Run the trace through feed() in ``chunk``-sized pieces."""
    engine = _engine(scheme_name, fast)
    session = engine.open_session(app="gcc", total_hint=len(trace))
    for start in range(0, len(trace), chunk):
        session.feed(trace[start:start + chunk])
    return result_to_state(session.finalize()), session


def _run_state(scheme_name: str, fast: bool, trace):
    engine = _engine(scheme_name, fast)
    return result_to_state(engine.run(iter(trace), app="gcc",
                                      total_hint=len(trace)))


@pytest.mark.parametrize("mode,fast,n", FEED_CASES,
                         ids=[c[0] for c in FEED_CASES])
@pytest.mark.parametrize("scheme_name", registered_scheme_names())
def test_incremental_feed_matches_run(scheme_name, mode, fast, n):
    """All 8 schemes x every feed case: chunked feed == one-shot run."""
    trace = _trace(n)
    expected = _run_state(scheme_name, fast, trace)
    state, _ = _session_state(scheme_name, fast, trace, chunk=333)
    assert state == expected
    if fast:
        assert state["extras"]["vec_epochs"] == -(-n // EPOCH_SIZE)


@pytest.mark.parametrize("chunk", [1023, 1024, 1025],
                         ids=["epoch-1", "epoch", "epoch+1"])
@pytest.mark.parametrize("scheme_name", ["ESD", "Dedup_SHA1"])
def test_epoch_boundary_chunks(scheme_name, chunk):
    """Fast path: feed chunks straddling the epoch size must reproduce
    the one-shot run's epoch boundaries exactly (2.5+ epochs of trace)."""
    trace = _trace(2600, seed=7)
    expected = _run_state(scheme_name, True, trace)
    state, _ = _session_state(scheme_name, True, trace, chunk=chunk)
    assert state == expected


@pytest.mark.parametrize("chunk", [1, 64])
def test_tiny_chunks_reference_and_vec(chunk):
    """Degenerate chunk sizes (per-request feeding) stay bit-exact."""
    trace = _trace(300, seed=5)
    for _, fast in MODES:
        expected = _run_state("ESD", fast, trace)
        state, _ = _session_state("ESD", fast, trace, chunk=chunk)
        assert state == expected


def test_empty_session_matches_empty_run():
    trace = []
    for _, fast in MODES:
        engine = _engine("ESD", fast)
        session = engine.open_session(app="gcc", total_hint=0)
        state = result_to_state(session.finalize())
        assert state == _run_state("ESD", fast, trace)


def test_session_lifecycle_errors():
    engine = _engine("ESD", True)
    session = engine.open_session(app="gcc", total_hint=100)
    session.feed(_trace(10))
    session.finalize()
    assert session.state == "finalized"
    with pytest.raises(SessionError):
        session.feed(_trace(10))
    with pytest.raises(SessionError):
        session.finalize()


def test_closed_session_rejects_feed():
    engine = _engine("ESD", True)
    session = engine.open_session(app="gcc")
    session.close()
    assert session.state == "closed"
    with pytest.raises(SessionError):
        session.feed(_trace(5))
    # close() is idempotent and leaves terminal states alone.
    session.close()
    assert session.state == "closed"


def test_vectorized_session_buffers_partial_epoch():
    """Sub-epoch feeds stay buffered until finalize releases the tail."""
    trace = _trace(600, seed=9)
    engine = _engine("ESD", True)
    session = engine.open_session(app="gcc", total_hint=len(trace))
    session.feed(trace)
    # 600 < epoch size (1024): everything is still pending.
    assert session.processed == 0
    assert session.pending == 600
    state = result_to_state(session.finalize())
    assert state == _run_state("ESD", True, trace)


def test_reference_session_never_buffers():
    """The reference loop processes every request as it is fed."""
    trace = _trace(600, seed=9)
    session = _engine("ESD", False).open_session(app="gcc",
                                                 total_hint=len(trace))
    for start in range(0, len(trace), 250):
        session.feed(trace[start:start + 250])
        assert session.pending == 0
        assert session.consumed == session.processed == \
            min(start + 250, len(trace))
    result = session.finalize()
    assert not [k for k in result.extras if k.startswith("vec_")]


def test_scope_restored_between_feeds():
    """The process-global switch is save/restored around each feed,
    so interleaved sessions with different switches don't bleed."""
    from repro.perf import memo as _memo

    trace = _trace(200, seed=3)
    before = _memo.ENABLED
    a = _engine("ESD", True).open_session(app="gcc")
    b = _engine("Baseline", False).open_session(app="gcc")
    a.feed(trace[:100])
    assert _memo.ENABLED == before
    b.feed(trace[:100])
    assert _memo.ENABLED == before
    a.feed(trace[100:])
    b.feed(trace[100:])
    ra = a.finalize()
    rb = b.finalize()
    assert _memo.ENABLED == before
    assert ra.extras["fastpath_enabled"] == 1.0
    assert rb.extras["fastpath_enabled"] == 0.0
