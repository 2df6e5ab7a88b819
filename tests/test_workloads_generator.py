"""Tests for the synthetic trace generator.

The stream oracle is pinned data: ``fixtures/pinned_traces.json`` holds
the SHA-256 of the packed records (``pack_records``) of every profile's
stream at seeds 7 and 2023, of the adversarial streams and of a trace
generated in two calls, taken at the commit it records.  There is no regenerate switch: on a
mismatch the tests print the table they computed, and re-pinning is a
deliberate edit of the fixture.
"""

import functools
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.types import CACHE_LINE_SIZE, AccessType
from repro.workloads import adversarial_stream, adversarial_stream_names
from repro.workloads.analysis import duplicate_stats
from repro.workloads.generator import TraceGenerator, ZipfSampler, _WordDraws
from repro.workloads.profiles import PROFILES, get_profile
from repro.workloads.trace import pack_records

PINNED_TRACES = Path(__file__).parent / "fixtures" / "pinned_traces.json"

#: Seeds and lengths of the pinned per-profile streams.
PIN_SEEDS = (7, 2023)
PIN_LENGTHS = (1, 37, 2_000)


class TestZipfSampler:
    def test_empty_sampler_rejects(self):
        s = ZipfSampler(1.0, np.random.default_rng(0))
        with pytest.raises(ValueError):
            s.sample()

    def test_add_returns_index(self):
        s = ZipfSampler(1.0, np.random.default_rng(0))
        assert s.add_item() == 0
        assert s.add_item() == 1
        assert len(s) == 2

    def test_skew_favours_early_items(self):
        rng = np.random.default_rng(0)
        s = ZipfSampler(1.2, rng)
        for _ in range(100):
            s.add_item()
        draws = [s.sample() for _ in range(5000)]
        first_half = sum(1 for d in draws if d < 50)
        assert first_half > len(draws) * 0.6

    def test_invalid_skew(self):
        with pytest.raises(ValueError):
            ZipfSampler(0.0, np.random.default_rng(0))


class TestTraceGenerator:
    def test_accepts_profile_name(self):
        gen = TraceGenerator("gcc")
        assert gen.profile.name == "gcc"

    def test_request_count(self):
        trace = TraceGenerator("gcc").generate_list(500)
        assert len(trace) == 500

    def test_rejects_nonpositive_count(self):
        with pytest.raises(ValueError):
            TraceGenerator("gcc").generate_list(0)

    def test_requests_well_formed(self):
        for req in TraceGenerator("x264").generate_list(300):
            assert req.address % CACHE_LINE_SIZE == 0
            if req.access is AccessType.WRITE:
                assert len(req.data) == CACHE_LINE_SIZE
            else:
                assert req.data is None

    def test_issue_times_monotone(self):
        trace = TraceGenerator("gcc").generate_list(300)
        times = [r.issue_time_ns for r in trace]
        assert times == sorted(times)
        assert times[0] > 0

    def test_deterministic_with_seed(self):
        a = TraceGenerator("gcc", seed=5).generate_list(200)
        b = TraceGenerator("gcc", seed=5).generate_list(200)
        assert [(r.address, r.access, r.data) for r in a] == \
               [(r.address, r.access, r.data) for r in b]

    def test_different_seeds_differ(self):
        a = TraceGenerator("gcc", seed=5).generate_list(200)
        b = TraceGenerator("gcc", seed=6).generate_list(200)
        assert [(r.address, r.data) for r in a] != \
               [(r.address, r.data) for r in b]

    def test_different_apps_differ(self):
        a = TraceGenerator("gcc", seed=5).generate_list(100)
        b = TraceGenerator("lbm", seed=5).generate_list(100)
        assert [(r.address, r.access) for r in a] != \
               [(r.address, r.access) for r in b]

    def test_addresses_within_working_set(self):
        profile = get_profile("gcc")
        trace = TraceGenerator(profile).generate_list(1000)
        limit = profile.working_set_lines * CACHE_LINE_SIZE
        assert all(r.address < limit for r in trace)


class TestCalibratedStatistics:
    @pytest.mark.parametrize("app", ["gcc", "deepsjeng", "lbm", "namd"])
    def test_duplicate_rate_close_to_profile(self, app):
        profile = get_profile(app)
        trace = TraceGenerator(app, seed=1).generate_list(12_000)
        measured = duplicate_stats(trace).duplicate_rate
        assert abs(measured - profile.duplicate_rate) < 0.06

    def test_read_fraction_close_to_profile(self):
        profile = get_profile("gcc")
        trace = TraceGenerator("gcc", seed=1).generate_list(8_000)
        reads = sum(1 for r in trace if r.is_read)
        assert abs(reads / len(trace) - profile.read_fraction) < 0.05

    def test_zero_lines_dominate_deepsjeng_duplicates(self):
        trace = TraceGenerator("deepsjeng", seed=1).generate_list(8_000)
        stats = duplicate_stats(trace)
        assert stats.zero_share_of_duplicates > 0.7

    def test_reads_mostly_hit_written_addresses(self):
        trace = TraceGenerator("gcc", seed=1).generate_list(5_000)
        written = set()
        read_hits = reads = 0
        for req in trace:
            if req.is_write:
                written.add(req.address)
            else:
                reads += 1
                read_hits += req.address in written
        assert read_hits / reads > 0.8


# ----------------------------------------------------------------------
# Pinned streams
# ----------------------------------------------------------------------

def records_digest(requests) -> str:
    """SHA-256 of the packed trace records of ``requests``."""
    buf, _count = pack_records(requests)
    return hashlib.sha256(buf).hexdigest()


def pinned_streams():
    """Yield ``(name, digest)`` for every pinned stream."""
    for name in PROFILES:
        for seed in PIN_SEEDS:
            for n in PIN_LENGTHS:
                yield (f"profile/{name}/seed-{seed}/n-{n}",
                       records_digest(TraceGenerator(name, seed).generate_list(n)))
    for name in adversarial_stream_names():
        yield (f"adversarial/{name}/seed-7/n-4096",
               records_digest(adversarial_stream(name, 4096, seed=7)))
    gen = TraceGenerator("gcc", seed=7)
    yield ("split/gcc/seed-7/n-300+700",
           records_digest(list(gen.generate(300)) + list(gen.generate(700))))


@functools.lru_cache(maxsize=None)
def pinned_traces():
    return json.loads(PINNED_TRACES.read_text())


@functools.lru_cache(maxsize=None)
def computed_streams():
    return dict(pinned_streams())


@pytest.mark.parametrize("kind", ["profile", "adversarial", "split"])
def test_streams_match_pinned(kind):
    table = computed_streams()
    pins = pinned_traces()["streams"]
    assert sorted(table) == sorted(pins)
    names = [name for name in pins if name.split("/")[0] == kind]
    assert names
    wrong = [name for name in names if table[name] != pins[name]]
    assert not wrong, (
        f"streams differ from those pinned at {pinned_traces()['commit']}: "
        f"{wrong}; computed table:\n"
        + json.dumps({name: table[name] for name in names}, indent=1,
                     sort_keys=True))


def test_split_generation_continues_the_stream():
    gen = TraceGenerator("lbm", seed=2023)
    split = list(gen.generate(300)) + list(gen.generate(700))
    whole = TraceGenerator("lbm", seed=2023).generate_list(1000)
    assert records_digest(split) == records_digest(whole)


# ----------------------------------------------------------------------
# Draws from raw words against numpy
# ----------------------------------------------------------------------

#: Bounds at the edges of the half draw: no draw (1), powers of two,
#: bounds whose Lemire rejection zone is large, and one whole half (2**32).
EDGE_BOUNDS = (1, 2, 7, 8, 2**31 + 1, 3 * 2**30 + 1, 2**32 - 1, 2**32)

DRAWS = st.one_of(
    st.just(("random",)),
    st.tuples(st.just("integers"),
              st.sampled_from(EDGE_BOUNDS) | st.integers(1, 2**32)),
    st.just(("tail",)),
    st.just(("exponential",)),
)


def _buffer_half(rng, half):
    state = rng.bit_generator.state
    state["has_uint32"], state["uinteger"] = 1, half
    rng.bit_generator.state = state


class TestWordDraws:
    """``_WordDraws`` against numpy's own calls on a twin ``Generator``."""

    @settings(max_examples=300, deadline=None)
    @given(seed=st.integers(0, 2**64 - 1),
           half=st.none() | st.integers(0, 2**32 - 1),
           draws=st.lists(DRAWS, max_size=60))
    def test_matches_numpy(self, seed, half, draws):
        ref = np.random.default_rng(seed)
        twin = np.random.default_rng(seed)
        if half is not None:
            _buffer_half(ref, half)
            _buffer_half(twin, half)
        helper = _WordDraws(twin.bit_generator)
        for kind, *args in draws:
            if kind == "random":
                assert helper.random() == ref.random()
            elif kind == "integers":
                assert helper.integers(args[0]) == ref.integers(0, args[0])
            elif kind == "tail":
                assert helper.tail56() == ref.integers(
                    0, 256, 56, dtype=np.uint8).tobytes()
            else:
                # Whole words: mixes with the helper's buffered halves.
                assert twin.exponential(3.0) == ref.exponential(3.0)
        want = ref.bit_generator.state
        assert twin.bit_generator.state["state"] == want["state"]
        assert helper._has_half == want["has_uint32"]
        if want["has_uint32"]:
            assert helper._half == want["uinteger"]

    @pytest.mark.parametrize("n", [0, -3, 2**32 + 1, 2**40])
    def test_bound_out_of_range_raises(self, n):
        helper = _WordDraws(np.random.default_rng(0).bit_generator)
        with pytest.raises(ValueError, match="2\\*\\*32"):
            helper.integers(n)

    def test_pinned_profiles_start_with_both_buffer_states(self):
        # The permutation leaves a half buffered for some (profile, seed)
        # pairs and not for others; the pinned streams cover both.
        states = {TraceGenerator(name, seed)._draws._has_half
                  for name in PROFILES for seed in PIN_SEEDS}
        assert states == {0, 1}
