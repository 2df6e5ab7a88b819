"""Tests for phased workloads."""

import pytest

from repro.workloads.phases import CANONICAL_PHASES, Phase, PhasedTraceGenerator


class TestPhase:
    def test_valid(self):
        Phase(app="gcc", requests=100)

    def test_unknown_app(self):
        with pytest.raises(KeyError):
            Phase(app="doom", requests=100)

    def test_nonpositive_length(self):
        with pytest.raises(ValueError):
            Phase(app="gcc", requests=0)


class TestPhasedTraceGenerator:
    def test_total_length(self):
        gen = PhasedTraceGenerator([("gcc", 300), ("lbm", 200)], seed=3)
        trace = gen.generate_list()
        assert len(trace) == 500
        assert gen.total_requests == 500

    def test_tuple_promotion(self):
        gen = PhasedTraceGenerator([("gcc", 10)])
        assert gen.phases[0] == Phase(app="gcc", requests=10)

    def test_monotonic_clock_across_phases(self):
        gen = PhasedTraceGenerator([("gcc", 300), ("deepsjeng", 300)], seed=3)
        times = [r.issue_time_ns for r in gen.generate()]
        assert times == sorted(times)

    def test_sequence_numbers_continuous(self):
        gen = PhasedTraceGenerator([("gcc", 100), ("lbm", 100)], seed=3)
        seqs = [r.seq for r in gen.generate()]
        assert seqs == list(range(1, 201))

    def test_phase_boundaries(self):
        gen = PhasedTraceGenerator([("gcc", 100), ("lbm", 50),
                                    ("namd", 25)], seed=3)
        assert gen.phase_boundaries() == [0, 100, 150]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            PhasedTraceGenerator([])

    def test_phase_statistics_shift(self):
        """The duplicate rate must actually change across phases."""
        from repro.workloads.analysis import duplicate_stats
        gen = PhasedTraceGenerator([("deepsjeng", 2_000), ("namd", 2_000)],
                                   seed=7)
        trace = gen.generate_list()
        first = duplicate_stats(trace[:2_000])
        second = duplicate_stats(trace[2_000:])
        assert first.duplicate_rate > 0.9
        assert second.duplicate_rate < 0.5

    def test_canonical_phases_runnable(self):
        gen = PhasedTraceGenerator(CANONICAL_PHASES, seed=5)
        assert gen.total_requests == 12_000


class TestPhasedThroughSchemes:
    def test_esd_adapts_across_phases(self, config):
        """Dedup effectiveness must track each phase's duplicate supply."""
        from repro.registry import make_scheme
        gen = PhasedTraceGenerator([("deepsjeng", 1_500), ("namd", 1_500)],
                                   seed=9)
        trace = gen.generate_list()
        scheme = make_scheme("ESD", config)
        phase_dedup = []
        for i, req in enumerate(trace):
            if req.is_write:
                scheme.handle_write(req)
            if i == 1_499:
                phase_dedup.append(scheme.counters.get("dedup_hits"))
        phase_dedup.append(scheme.counters.get("dedup_hits"))
        first_phase = phase_dedup[0]
        second_phase = phase_dedup[1] - phase_dedup[0]
        assert first_phase > second_phase  # zero-heavy phase dedups more

    def test_integrity_across_phase_shift(self, config):
        from repro.registry import make_scheme
        from repro.sim import SimulationEngine
        gen = PhasedTraceGenerator([("deepsjeng", 1_000), ("lbm", 1_000),
                                    ("namd", 1_000)], seed=11)
        trace = gen.generate_list()
        engine = SimulationEngine(make_scheme("ESD", config))
        engine.run(iter(trace), app="phased", total_hint=len(trace))

    def test_predictor_retrains_after_shift(self, config):
        """DeWrite's accuracy dips at the boundary, then recovers."""
        from repro.registry import make_scheme
        gen = PhasedTraceGenerator([("deepsjeng", 2_000), ("namd", 2_000)],
                                   seed=13)
        trace = gen.generate_list()
        scheme = make_scheme("DeWrite", config)
        for req in trace:
            if req.is_write:
                scheme.handle_write(req)
        # Across a hard behaviour shift the predictor still ends usefully
        # above chance.
        assert scheme.predictor.stats.accuracy > 0.55


class TestPhaseBoundaryContinuity:
    """Satellite: the rebased clock at phase seams (zero-gap ties too)."""

    def test_no_backwards_clock_at_boundary(self):
        gen = PhasedTraceGenerator([("deepsjeng", 400), ("namd", 400)],
                                   seed=21)
        trace = gen.generate_list()
        first_max = max(r.issue_time_ns for r in trace[:400])
        assert all(r.issue_time_ns >= first_max for r in trace[400:])

    def test_zero_interarrival_tie_carries_clock(self, monkeypatch):
        """A phase ending in zero-gap ties must not rewind the next one.

        The stub's second request issues at the same instant as an
        *earlier* peak (a tie after an out-of-order-looking burst); the
        next phase has to rebase off the phase's max issue time, not the
        last request's.
        """
        from repro.common.types import AccessType, request_unchecked
        from repro.workloads import phases as phases_mod

        class StubGenerator:
            def __init__(self, app, seed=0):
                self.app = app

            def generate(self, requests):
                times = [5.0, 5.0, 2.0][:requests]
                for i, t in enumerate(times):
                    yield request_unchecked(i * 64, AccessType.READ, None,
                                            t, 0, i + 1)

        monkeypatch.setattr(phases_mod, "TraceGenerator", StubGenerator)
        gen = PhasedTraceGenerator([("gcc", 3), ("lbm", 3)], seed=1)
        trace = gen.generate_list()
        times = [r.issue_time_ns for r in trace]
        # Phase 1 peaks at 5.0; phase 2 must start at 5.0 + its own
        # offsets, never below the peak.
        assert times[:3] == [5.0, 5.0, 2.0]
        assert times[3:] == [10.0, 10.0, 7.0]
        assert [r.seq for r in trace] == list(range(1, 7))

    def test_rebased_requests_preserve_payloads(self):
        """Trusted rebase must keep address/data/core bit-identical."""
        from repro.workloads.generator import TraceGenerator
        phase_len = 250
        gen = PhasedTraceGenerator([("gcc", phase_len)], seed=33)
        rebased = gen.generate_list()
        raw = list(TraceGenerator("gcc", seed=33 * 17).generate(phase_len))
        assert [(a.address, a.access, a.data, a.core) for a in rebased] == \
               [(b.address, b.access, b.data, b.core) for b in raw]
