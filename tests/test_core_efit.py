"""Tests for the EFIT (ECC-based fingerprint index table)."""

import pytest

from repro.common.config import ESDConfig, MetadataCacheConfig
from repro.core.efit import EFIT, EFIT_ENTRY_SIZE


def make_efit(entries=8, **esd_kwargs):
    cache = MetadataCacheConfig(efit_bytes=entries * EFIT_ENTRY_SIZE,
                                amt_bytes=1024)
    return EFIT(cache, ESDConfig(**esd_kwargs))


class TestEntryLayout:
    def test_entry_size_matches_figure_7(self):
        # ECC 8 B + Addr_base 4 B + Addr_offsets 1 B + referH 1 B.
        assert EFIT_ENTRY_SIZE == 14

    def test_capacity_from_bytes(self):
        efit = make_efit(entries=8)
        assert efit.capacity == 8

    def test_paper_default_capacity(self):
        efit = EFIT()  # 512 KB default
        assert efit.capacity == (512 * 1024) // EFIT_ENTRY_SIZE


class TestLookupInsert:
    def test_miss_returns_probe_latency_only(self):
        efit = make_efit()
        entry, latency = efit.lookup(0xABCD)
        assert entry is None
        assert latency == efit.probe_latency_ns
        assert efit.misses == 1

    def test_insert_then_hit(self):
        efit = make_efit()
        efit.insert(0xABCD, 42)
        entry, _ = efit.lookup(0xABCD)
        assert entry is not None
        assert entry.frame == 42
        assert entry.refer_h == 1
        assert efit.hits == 1

    def test_entry_exposes_packed_address(self):
        efit = make_efit()
        efit.insert(1, 0x1FF)
        entry, _ = efit.lookup(1)
        assert entry.physical.base == 1
        assert entry.physical.offset == 0xFF

    def test_frame_must_fit_40_bits(self):
        efit = make_efit()
        with pytest.raises(ValueError):
            efit.insert(1, 1 << 40)

    def test_hit_rate(self):
        efit = make_efit()
        efit.insert(1, 1)
        efit.lookup(1)
        efit.lookup(2)
        assert efit.hit_rate == 0.5


class TestReferH:
    def test_record_duplicate_increments(self):
        efit = make_efit()
        efit.insert(1, 10)
        assert efit.record_duplicate(1) == 2
        entry, _ = efit.lookup(1)
        assert entry.refer_h == 2

    def test_saturation_detection(self):
        efit = make_efit(refer_h_max=3)
        efit.insert(1, 10)
        assert not efit.refer_h_saturated(1)
        efit.record_duplicate(1)
        efit.record_duplicate(1)
        assert efit.refer_h_saturated(1)

    def test_replace_frame_resets_referh(self):
        efit = make_efit(refer_h_max=3)
        efit.insert(1, 10)
        efit.record_duplicate(1)
        efit.record_duplicate(1)
        efit.replace_frame(1, 20)
        entry, _ = efit.lookup(1)
        assert entry.frame == 20
        assert entry.refer_h == 1
        assert not efit.refer_h_saturated(1)

    def test_replace_frame_must_fit_40_bits(self):
        efit = make_efit()
        efit.insert(1, 10)
        with pytest.raises(ValueError, match="40-bit range"):
            efit.replace_frame(1, 1 << 40)
        entry, _ = efit.lookup(1)
        assert entry.frame == 10


class TestReplacement:
    def test_lrcu_keeps_high_referh(self):
        efit = make_efit(entries=2)
        efit.insert(1, 10)
        efit.record_duplicate(1)   # referH 2
        efit.insert(2, 20)          # referH 1
        evicted = efit.insert(3, 30)
        assert evicted == 20       # the referH-1 entry went
        assert efit.lookup(1)[0] is not None

    def test_remove(self):
        efit = make_efit()
        efit.insert(1, 10)
        efit.remove(1)
        assert efit.lookup(1)[0] is None

    def test_onchip_bytes(self):
        efit = make_efit(entries=8)
        efit.insert(1, 10)
        efit.insert(2, 20)
        assert efit.onchip_bytes() == 2 * EFIT_ENTRY_SIZE

    def test_evictions_counted(self):
        efit = make_efit(entries=1)
        efit.insert(1, 10)
        efit.insert(2, 20)
        assert efit.evictions == 1
