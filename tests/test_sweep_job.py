"""Tests for sweep job specs and their content hashes."""

import subprocess
import sys
from dataclasses import replace

import pytest

from repro.common import SystemConfig, config_digest, small_test_config
from repro.sim.engine import EngineConfig
from repro.sim.runner import ExperimentConfig
from repro.sweep import SWEEP_SCHEMA_VERSION, JobSpec, jobs_from_experiment
from repro.workloads.trace import VERSION as TRACE_VERSION


def make_spec(**overrides):
    base = dict(app="gcc", scheme="ESD", requests=2_000, seed=7,
                system=small_test_config())
    base.update(overrides)
    return JobSpec(**base)


class TestJobSpec:
    def test_rejects_unknown_app(self):
        with pytest.raises(ValueError):
            make_spec(app="nosuchapp")

    def test_rejects_unknown_scheme(self):
        with pytest.raises(ValueError):
            make_spec(scheme="NoSuchScheme")

    def test_rejects_nonpositive_requests(self):
        with pytest.raises(ValueError):
            make_spec(requests=0)

    def test_key_and_trace_id(self):
        spec = make_spec()
        assert spec.key == ("gcc", "ESD")
        assert spec.trace_id.startswith("gcc-s7-n2000-v")
        # Paired traces: the scheme must not influence the trace identity.
        assert make_spec(scheme="Baseline").trace_id == spec.trace_id


class TestDigest:
    def test_digest_is_stable_within_process(self):
        assert make_spec().digest() == make_spec().digest()

    def test_digest_changes_with_every_input(self):
        base = make_spec().digest()
        assert make_spec(scheme="Baseline").digest() != base
        assert make_spec(app="lbm").digest() != base
        assert make_spec(requests=2_001).digest() != base
        assert make_spec(seed=8).digest() != base
        assert make_spec(system=small_test_config().with_seed(9)).digest() \
            != base
        assert make_spec(
            engine=EngineConfig(max_outstanding=32)).digest() != base

    def test_digest_stable_across_processes(self):
        """The cache key must be identical in a fresh interpreter."""
        spec = make_spec()
        script = (
            "import sys; sys.path.insert(0, 'src');"
            "from repro.common import small_test_config;"
            "from repro.sweep import JobSpec;"
            "spec = JobSpec(app='gcc', scheme='ESD', requests=2000, seed=7,"
            "               system=small_test_config());"
            "print(spec.digest())"
        )
        out = subprocess.run([sys.executable, "-c", script],
                             capture_output=True, text=True, check=True,
                             cwd=str(__import__('pathlib').Path(
                                 __file__).parent.parent))
        assert out.stdout.strip() == spec.digest()


def digest_of_parts(spec):
    """``config_digest`` of the parts a job digest covers."""
    return config_digest({
        "schema": SWEEP_SCHEMA_VERSION,
        "trace_version": TRACE_VERSION,
        "app": spec.app,
        "scheme": spec.scheme,
        "requests": spec.requests,
        "seed": spec.seed,
    }, spec.system, spec.engine, spec.costs)


class TestDigestIdentity:
    def test_digest_is_config_digest_of_its_parts(self):
        spec = make_spec()
        assert spec.digest() == digest_of_parts(spec)
        assert spec.digest() == spec.digest()

    def test_pinned_sweep_roster_digest(self):
        """A job of the benchmark's sweep (20 apps x 4 schemes, 1,000
        requests, seed 7) keeps the digest its stored rows carry.  Last
        re-pinned when the config lost ``pcm.line_size``,
        ``pcm.endurance_writes``, ``pcm.fail_on_endurance`` and
        ``processor.cores/l1/l2/l3``: the old build's canonical JSON of
        this spec, with those seven keys dropped, digests to this value."""
        spec = jobs_from_experiment(
            ExperimentConfig(requests_per_app=1_000, seed=7))[0]
        assert spec.key == ("cactuBSSN", "Baseline")
        assert spec.digest() == (
            "8156eb8f1617455cb01ebb0a42a374c5dad0195157fe1ca517d5e0d82a3fd2b6")

    def test_equal_configs_of_other_types_keep_their_digests(self):
        """An int field equals (and hashes like) its float value, but the
        two configs reduce to different text, so they digest apart even
        when digested one after the other."""
        system = SystemConfig()
        as_int = SystemConfig(pcm=replace(system.pcm, read_latency_ns=75))
        assert as_int == system and hash(as_int) == hash(system)
        floats, ints = make_spec(system=system), make_spec(system=as_int)
        assert floats.digest() != ints.digest()
        assert floats.digest() == digest_of_parts(floats)
        assert ints.digest() == digest_of_parts(ints)


class TestConfigDigest:
    def test_identical_configs_collide(self):
        assert config_digest(small_test_config()) \
            == config_digest(small_test_config())

    def test_different_classes_do_not_collide(self):
        # Structurally equal payloads from different classes must differ.
        from repro.common.config import MetadataCacheConfig
        a = MetadataCacheConfig(efit_bytes=1024, amt_bytes=1024)
        assert config_digest(a) != config_digest(
            {"efit_bytes": 1024, "amt_bytes": 1024, "probe_latency_ns": 1.0})

    def test_rejects_unserializable_values(self):
        from repro.common import ConfigError
        with pytest.raises(ConfigError):
            config_digest(object())


class TestJobsFromExperiment:
    def test_grid_expansion_order_matches_serial_runner(self):
        config = ExperimentConfig(apps=["gcc", "lbm"],
                                  schemes=["Baseline", "ESD"],
                                  requests_per_app=1_000,
                                  system=small_test_config())
        specs = jobs_from_experiment(config)
        assert [s.key for s in specs] == [
            ("gcc", "Baseline"), ("gcc", "ESD"),
            ("lbm", "Baseline"), ("lbm", "ESD")]
        assert all(s.requests == 1_000 for s in specs)
        assert len({s.digest() for s in specs}) == 4
