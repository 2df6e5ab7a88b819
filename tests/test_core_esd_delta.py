"""Tests for the ESD-Delta partial-match extension."""

import pytest

from repro.common.types import AccessType, MemoryRequest
from repro.core.esd_delta import (
    DeltaRecord,
    ESDDeltaScheme,
    matching_words,
    word_ecc_bytes,
)
from repro.ecc.codec import line_ecc
from repro.registry import make_scheme


def wreq(addr, data, t=0.0):
    return MemoryRequest(address=addr, access=AccessType.WRITE, data=data,
                         issue_time_ns=t)


def rreq(addr, t=0.0):
    return MemoryRequest(address=addr, access=AccessType.READ, issue_time_ns=t)


BASE = bytes(range(64))


def variant(words_changed):
    """BASE with the given word indices replaced by 0xFF words."""
    buf = bytearray(BASE)
    for w in words_changed:
        buf[w * 8:(w + 1) * 8] = b"\xFF" * 8
    return bytes(buf)


@pytest.fixture
def scheme(config):
    return ESDDeltaScheme(config)


class TestWordSignatures:
    def test_word_ecc_bytes(self):
        ecc = line_ecc(BASE)
        parts = word_ecc_bytes(ecc)
        assert len(parts) == 8
        assert all(0 <= p < 256 for p in parts)

    def test_matching_words_identical(self):
        ecc = line_ecc(BASE)
        assert matching_words(ecc, ecc) == 8

    def test_matching_words_partial(self):
        a = line_ecc(BASE)
        b = line_ecc(variant([2]))
        assert matching_words(a, b) == 7

    def test_delta_record_reconstruct(self):
        rec = DeltaRecord(base_frame=0, words={2: b"\xFF" * 8})
        assert rec.reconstruct(BASE) == variant([2])
        assert rec.delta_bytes == 9


class TestDeltaDedup:
    def test_factory(self, config):
        assert isinstance(make_scheme("ESD-Delta", config), ESDDeltaScheme)

    def test_full_duplicates_still_exact_dedup(self, scheme):
        scheme.handle_write(wreq(0, BASE))
        r = scheme.handle_write(wreq(64, BASE, t=500.0))
        assert r.deduplicated
        assert scheme.delta_mapped_lines == 0  # exact, not delta

    def test_near_duplicate_stored_as_delta(self, scheme):
        scheme.handle_write(wreq(0, BASE))
        near = variant([5])
        r = scheme.handle_write(wreq(64, near, t=500.0))
        assert r.deduplicated
        assert scheme.delta_mapped_lines == 1
        assert scheme.counters.get("delta_hits") == 1
        assert scheme.handle_read(rreq(64, t=1000.0)).data == near
        assert scheme.handle_read(rreq(0, t=1100.0)).data == BASE

    def test_too_different_line_written_fully(self, scheme):
        scheme.handle_write(wreq(0, BASE))
        far = variant([0, 1, 2, 3, 4])  # only 3 words shared < threshold 6
        r = scheme.handle_write(wreq(64, far, t=500.0))
        assert not r.deduplicated
        assert scheme.delta_mapped_lines == 0
        assert scheme.handle_read(rreq(64, t=1000.0)).data == far

    def test_delta_energy_cheaper_than_full_write(self, config):
        from repro.nvmm.energy import EnergyCategory
        scheme = ESDDeltaScheme(config)
        scheme.handle_write(wreq(0, BASE))
        before = scheme.controller.energy.get(EnergyCategory.PCM_WRITE)
        scheme.handle_write(wreq(64, variant([7]), t=500.0))
        delta_cost = (scheme.controller.energy.get(EnergyCategory.PCM_WRITE)
                      - before)
        assert 0 < delta_cost < config.pcm.write_energy_nj / 2

    def test_delta_overwrite_releases_base(self, scheme):
        scheme.handle_write(wreq(0, BASE))
        scheme.handle_write(wreq(64, variant([1]), t=500.0))
        assert scheme.refcounts.count(
            scheme.amt.current_frame(0)) == 2  # base + delta user
        other = b"\x44" * 64
        scheme.handle_write(wreq(64, other, t=1000.0))
        assert scheme.delta_mapped_lines == 0
        assert scheme.refcounts.count(scheme.amt.current_frame(0)) == 1
        assert scheme.handle_read(rreq(64, t=2000.0)).data == other

    def test_base_kept_alive_by_delta_users(self, scheme):
        scheme.handle_write(wreq(0, BASE))
        near = variant([3])
        scheme.handle_write(wreq(64, near, t=500.0))
        # Overwrite the base's own logical line; the frame must survive for
        # the delta user.
        scheme.handle_write(wreq(0, b"\x55" * 64, t=1000.0))
        assert scheme.handle_read(rreq(64, t=2000.0)).data == near

    def test_min_matching_words_validated(self, config):
        with pytest.raises(ValueError):
            ESDDeltaScheme(config, min_matching_words=0)
        with pytest.raises(ValueError):
            ESDDeltaScheme(config, min_matching_words=8)

    def test_metadata_accounts_delta_bytes(self, scheme):
        scheme.handle_write(wreq(0, BASE))
        base_meta = scheme.metadata_footprint().nvmm_bytes
        scheme.handle_write(wreq(64, variant([2]), t=500.0))
        assert scheme.metadata_footprint().nvmm_bytes > base_meta


class TestIntegrityUnderTraces:
    @pytest.mark.parametrize("app", ["gcc", "lbm"])
    def test_no_data_loss(self, config, app):
        from repro.sim import SimulationEngine
        from repro.workloads import TraceGenerator
        trace = TraceGenerator(app, seed=27).generate_list(2_500)
        engine = SimulationEngine(make_scheme("ESD-Delta", config))
        engine.run(iter(trace), app=app, total_hint=len(trace))

    def test_dedups_at_least_as_much_as_esd(self, config):
        from repro.workloads import TraceGenerator
        trace = TraceGenerator("mcf", seed=29).generate_list(2_500)
        esd = make_scheme("ESD", config)
        delta = make_scheme("ESD-Delta", config)
        for req in trace:
            if req.is_write:
                esd.handle_write(req)
                delta.handle_write(req)
        assert (delta.controller.data_writes
                <= esd.controller.data_writes)
