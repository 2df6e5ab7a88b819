"""Property-based tests for the extension modules.

Hypothesis sweeps over ESD-Delta's read-after-write correctness under
arbitrary near-duplicate interleavings and over the phased generator's
stream structure.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.common import small_test_config
from repro.common.types import AccessType, CACHE_LINE_SIZE, MemoryRequest
from repro.core.esd_delta import ESDDeltaScheme
from repro.workloads.phases import PhasedTraceGenerator

WORDS = st.binary(min_size=8, max_size=8)


class TestESDDeltaProperties:
    @given(st.lists(
        st.tuples(st.integers(0, 7),          # logical line
                  st.integers(0, 3),          # base content id
                  st.integers(0, 7),          # mutated word index
                  WORDS),                     # mutation payload
        min_size=1, max_size=40))
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_read_after_write_with_near_duplicates(self, ops):
        """Arbitrary near-duplicate interleavings never lose data."""
        scheme = ESDDeltaScheme(small_test_config())
        bases = [bytes([b]) * CACHE_LINE_SIZE for b in (1, 2, 3, 4)]
        shadow = {}
        t = 0.0
        for line, base_id, word, payload in ops:
            t += 300.0
            data = bytearray(bases[base_id])
            data[word * 8:(word + 1) * 8] = payload
            data = bytes(data)
            addr = line * 64
            scheme.handle_write(MemoryRequest(
                address=addr, access=AccessType.WRITE, data=data,
                issue_time_ns=t))
            shadow[addr] = data
        t += 1000.0
        for addr, expected in shadow.items():
            result = scheme.handle_read(MemoryRequest(
                address=addr, access=AccessType.READ, issue_time_ns=t))
            assert result.data == expected


class TestPhaseProperties:
    @given(st.lists(st.tuples(st.sampled_from(["gcc", "deepsjeng", "namd"]),
                              st.integers(20, 200)),
                    min_size=1, max_size=4))
    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_clock_and_seq_monotonic(self, phase_specs):
        gen = PhasedTraceGenerator(phase_specs, seed=5)
        trace = gen.generate_list()
        assert len(trace) == sum(n for _, n in phase_specs)
        times = [r.issue_time_ns for r in trace]
        seqs = [r.seq for r in trace]
        assert times == sorted(times)
        assert seqs == sorted(seqs) and len(set(seqs)) == len(seqs)
