"""Parity gate for the incremental session API.

``SimulationEngine.run`` is reimplemented on top of
``open_session``/``feed``/``finalize``; these tests prove the refactor's
contract: feeding a trace incrementally — any chunk size, including
chunks around the serve micro-batch cap — produces a
``SimulationResult`` bit-identical to a one-shot ``run()`` of the same
trace, for every registered scheme.

Bit-identical means the full lossless state snapshot
(:func:`repro.sim.export.result_to_state`) compares equal: every raw
latency sample, every float accumulator, every counter, every extra.
"""

import sys
import threading
from dataclasses import replace

import pytest

from repro.common.config import ObservabilityConfig
from repro.common.errors import SessionError
from repro.registry import make_scheme, registered_scheme_names
from repro.sim.engine import EngineConfig, SimulationEngine
from repro.sim.export import result_to_state
from repro.sim.runner import scaled_system_config
from repro.workloads.generator import TraceGenerator

#: (case id, trace length) for the chunked-feed parity test: a trace
#: shorter than one serve micro-batch (1,024 requests) and one spanning
#: more than two, both fed in 333-request chunks.
FEED_CASES = [
    ("fast", 700),
    ("vec", 2600),
]


def _engine(scheme_name: str, config=None) -> SimulationEngine:
    return SimulationEngine(
        make_scheme(scheme_name, config or scaled_system_config()),
        EngineConfig())


def _trace(n: int, app: str = "gcc", seed: int = 31):
    return TraceGenerator(app, seed=seed).generate_list(n)


def _session_state(scheme_name: str, trace, chunk: int):
    """Run the trace through feed() in ``chunk``-sized pieces."""
    engine = _engine(scheme_name)
    session = engine.open_session(app="gcc", total_hint=len(trace))
    for start in range(0, len(trace), chunk):
        session.feed(trace[start:start + chunk])
    return result_to_state(session.finalize()), session


def _run_state(scheme_name: str, trace):
    engine = _engine(scheme_name)
    return result_to_state(engine.run(iter(trace), app="gcc",
                                      total_hint=len(trace)))


@pytest.mark.parametrize("mode,n", FEED_CASES,
                         ids=[c[0] for c in FEED_CASES])
@pytest.mark.parametrize("scheme_name", registered_scheme_names())
def test_incremental_feed_matches_run(scheme_name, mode, n):
    """All 8 schemes x every feed case: chunked feed == one-shot run."""
    trace = _trace(n)
    expected = _run_state(scheme_name, trace)
    state, _ = _session_state(scheme_name, trace, chunk=333)
    assert state == expected


@pytest.mark.parametrize("chunk", [1023, 1024, 1025],
                         ids=["epoch-1", "epoch", "epoch+1"])
@pytest.mark.parametrize("scheme_name", ["ESD", "Dedup_SHA1"])
def test_epoch_boundary_chunks(scheme_name, chunk):
    """Feed chunks around the serve micro-batch cap (1,024 requests) over
    2,600 requests reproduce the one-shot run."""
    trace = _trace(2600, seed=7)
    expected = _run_state(scheme_name, trace)
    state, _ = _session_state(scheme_name, trace, chunk=chunk)
    assert state == expected


@pytest.mark.parametrize("chunk", [1, 64])
def test_tiny_chunks_reference_and_vec(chunk):
    """Degenerate chunk sizes (per-request feeding) stay bit-exact."""
    trace = _trace(300, seed=5)
    expected = _run_state("ESD", trace)
    state, _ = _session_state("ESD", trace, chunk=chunk)
    assert state == expected


def test_empty_session_matches_empty_run():
    session = _engine("ESD").open_session(app="gcc", total_hint=0)
    state = result_to_state(session.finalize())
    assert state == _run_state("ESD", [])


def test_session_lifecycle_errors():
    engine = _engine("ESD")
    session = engine.open_session(app="gcc", total_hint=100)
    session.feed(_trace(10))
    session.finalize()
    assert session.state == "finalized"
    with pytest.raises(SessionError):
        session.feed(_trace(10))
    with pytest.raises(SessionError):
        session.finalize()


def test_closed_session_rejects_feed():
    engine = _engine("ESD")
    session = engine.open_session(app="gcc")
    session.close()
    assert session.state == "closed"
    with pytest.raises(SessionError):
        session.feed(_trace(5))
    # close() is idempotent and leaves terminal states alone.
    session.close()
    assert session.state == "closed"


def test_feed_processes_every_request():
    """A session holds nothing back: each feed runs every request it is
    given, so ``processed`` is the count fed so far."""
    trace = _trace(600, seed=9)
    engine = _engine("ESD")
    session = engine.open_session(app="gcc", total_hint=len(trace))
    assert session.feed(trace[:250]) == 250
    assert session.processed == 250
    assert session.feed(iter(trace[250:])) == 350
    assert session.processed == 600
    state = result_to_state(session.finalize())
    assert state == _run_state("ESD", trace)


def _observed_cells():
    """Two observed cells on different schemes and apps, each with its
    session factory and a 3,000-request trace."""
    config = replace(scaled_system_config(), observability=(
        ObservabilityConfig(enabled=True, sample_every=7)))
    cells = [("ESD", "gcc"), ("DeWrite", "lbm")]
    traces = [_trace(3000, app=app) for _, app in cells]

    def open_session(cell):
        scheme, app = cell
        return _engine(scheme, config).open_session(app=app, total_hint=3000)

    sequential = []
    for cell, trace in zip(cells, traces):
        session = open_session(cell)
        session.feed(trace)
        sequential.append(session.finalize())
    return cells, traces, open_session, sequential


def _assert_whole_results_equal(shared, sequential):
    for got, alone in zip(shared, sequential):
        assert alone.obs is not None
        assert result_to_state(got) == result_to_state(alone)
        assert got.obs == alone.obs


def test_interleaved_sessions_match_sequential():
    """Each session's scheme graph owns its observation scope and its
    memo caches, so two observed sessions fed alternately on one thread
    give the whole result states and obs reports they give run one after
    the other, ``memo_*`` series included."""
    cells, traces, open_session, sequential = _observed_cells()
    sessions = [open_session(cell) for cell in cells]
    for start in range(0, 3000, 256):
        for session, trace in zip(sessions, traces):
            session.feed(trace[start:start + 256])
    _assert_whole_results_equal(
        [session.finalize() for session in sessions], sequential)


def test_sessions_on_two_threads_match_sequential():
    """Two observed sessions fed in 64-request chunks from two threads,
    with no lock and a short switch interval so the threads interleave
    inside feeds, give their sequential whole results: sessions share no
    engine state."""
    cells, traces, open_session, sequential = _observed_cells()
    results = [None, None]
    errors = []
    barrier = threading.Barrier(2)

    def drive(index):
        try:
            session = open_session(cells[index])
            barrier.wait()
            trace = traces[index]
            for start in range(0, len(trace), 64):
                session.feed(trace[start:start + 64])
            results[index] = session.finalize()
        except Exception as exc:  # pragma: no cover - surfaced below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=drive, args=(i,))
                   for i in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=300)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors, errors
    _assert_whole_results_equal(results, sequential)
