"""Tests for the adversarial stress streams (dedup worst case,
fingerprint-collision pressure, and the phase-shifting mix)."""

import pytest

from repro.workloads.adversarial import (
    PHASE_SHIFT_NAME,
    PHASE_SHIFT_SCRIPT,
    adversarial_stream,
    adversarial_stream_names,
    phase_shift_phases,
    stream_instructions_per_access,
)
from repro.workloads.analysis import duplicate_stats
from repro.workloads.profiles import (
    ADVERSARIAL_PROFILES,
    adversarial_names,
    app_names,
    get_profile,
)


class TestRegistration:
    def test_roster_unchanged(self):
        """The paper's 20-app roster must not grow (figures iterate it)."""
        assert len(app_names()) == 20
        assert not any(a.startswith("adv-") for a in app_names())

    def test_adversarial_profiles_resolvable(self):
        for name in adversarial_names():
            assert get_profile(name).suite == "adversarial"

    def test_stream_names(self):
        names = adversarial_stream_names()
        assert set(adversarial_names()) < set(names)
        assert PHASE_SHIFT_NAME in names

    def test_unknown_stream_rejected(self):
        with pytest.raises(KeyError):
            list(adversarial_stream("adv-nope", 10))


class TestStreamProperties:
    @pytest.mark.parametrize("name", ["adv-dedup-worst",
                                      "adv-collision-heavy",
                                      PHASE_SHIFT_NAME])
    def test_length_and_determinism(self, name):
        a = list(adversarial_stream(name, 600, seed=7))
        b = list(adversarial_stream(name, 600, seed=7))
        assert len(a) == 600
        assert [r.seq for r in a] == list(range(1, 601))
        assert [(r.address, r.data, r.issue_time_ns) for r in a] == \
               [(r.address, r.data, r.issue_time_ns) for r in b]

    def test_dedup_worst_case_has_no_duplicate_supply(self):
        trace = list(adversarial_stream("adv-dedup-worst", 3_000))
        assert duplicate_stats(trace).duplicate_rate < 0.10

    def test_collision_heavy_is_duplicate_rich(self):
        trace = list(adversarial_stream("adv-collision-heavy", 3_000))
        assert duplicate_stats(trace).duplicate_rate > 0.80

    def test_phase_shift_spans_extremes(self):
        """The mix must swing the duplicate supply across phases."""
        requests = 4_000
        trace = list(adversarial_stream(PHASE_SHIFT_NAME, requests))
        assert len(trace) == requests
        bounds = [0]
        for phase in phase_shift_phases(requests):
            bounds.append(bounds[-1] + phase.requests)
        rates = [duplicate_stats(trace[lo:hi]).duplicate_rate
                 for lo, hi in zip(bounds, bounds[1:])]
        assert min(rates) < 0.15 and max(rates) > 0.75

    def test_phase_shift_split_covers_remainder(self):
        phases = phase_shift_phases(4_001)
        assert sum(p.requests for p in phases) == 4_001
        assert [p.app for p in phases] == list(PHASE_SHIFT_SCRIPT)

    def test_phase_shift_tiny_request_count(self):
        phases = phase_shift_phases(2)
        assert sum(p.requests for p in phases) == 2
        assert all(p.requests > 0 for p in phases)

    def test_instructions_per_access(self):
        for name in adversarial_stream_names():
            assert stream_instructions_per_access(name) > 0


class TestThroughEngine:
    @pytest.mark.parametrize("name", ["adv-dedup-worst", PHASE_SHIFT_NAME])
    def test_esd_runs_with_integrity(self, config, name):
        from repro.registry import make_scheme
        from repro.sim import SimulationEngine
        trace = list(adversarial_stream(name, 1_200))
        engine = SimulationEngine(make_scheme("ESD", config))
        result = engine.run(iter(trace), app=name, total_hint=len(trace))
        assert result.writes > 0

    def test_worst_case_defeats_dedup(self, config):
        """ESD on the worst case must eliminate almost nothing."""
        from repro.registry import make_scheme
        from repro.sim import SimulationEngine
        trace = list(adversarial_stream("adv-dedup-worst", 2_000))
        engine = SimulationEngine(make_scheme("ESD", config))
        result = engine.run(iter(trace), app="adv", total_hint=len(trace))
        assert result.write_reduction < 0.15
