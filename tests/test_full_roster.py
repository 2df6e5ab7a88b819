"""Roster-wide smoke: every application profile drives every scheme cleanly.

Short traces, full integrity verification — the broad net that catches
profile/scheme interactions the targeted tests miss.
"""

import pytest

from repro.common import small_test_config
from repro.registry import make_scheme, scheme_names
from repro.sim import EngineConfig, SimulationEngine
from repro.workloads import TraceGenerator, app_names, get_profile


@pytest.mark.parametrize("app", app_names())
def test_esd_runs_every_app(app):
    trace = TraceGenerator(app, seed=51).generate_list(1_200)
    engine = SimulationEngine(make_scheme("ESD", small_test_config()),
                              EngineConfig(warmup_fraction=0.0))
    result = engine.run(iter(trace), app=app, total_hint=len(trace))
    profile = get_profile(app)
    # Dedup effectiveness tracks the profile's duplicate rate loosely.
    assert result.write_reduction <= profile.duplicate_rate + 0.1
    if profile.duplicate_rate > 0.9:
        assert result.write_reduction > 0.6
    assert result.mean_write_latency_ns > 0


@pytest.mark.slow
@pytest.mark.parametrize("scheme_name", list(scheme_names()))
def test_every_scheme_survives_high_churn(scheme_name):
    """Tiny caches + tiny device => constant replacement and recycling."""
    from repro.common.config import (MetadataCacheConfig, PCMConfig,
                                     SystemConfig)
    from repro.common.units import kib, mib
    config = SystemConfig(
        pcm=PCMConfig(capacity_bytes=mib(2), num_banks=2),
        metadata_cache=MetadataCacheConfig(efit_bytes=512, amt_bytes=512))
    trace = TraceGenerator("mcf", seed=53).generate_list(3_000)
    engine = SimulationEngine(make_scheme(scheme_name, config),
                              EngineConfig(warmup_fraction=0.0))
    engine.run(iter(trace), app="mcf", total_hint=len(trace))
