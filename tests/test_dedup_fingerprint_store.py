"""Tests for the full-dedup fingerprint store (cache + NVMM home)."""

import pytest

from repro.common.config import PCMConfig
from repro.common.units import mib
from repro.dedup.fingerprint_store import (
    FullFingerprintStore,
    LookupWhere,
)
from repro.nvmm.controller import MemoryController


@pytest.fixture
def controller():
    return MemoryController(PCMConfig(capacity_bytes=mib(4), num_banks=4))


def make_store(controller, entries=4, entry_size=26):
    return FullFingerprintStore(cache_bytes=entries * entry_size,
                                entry_size=entry_size, controller=controller)


class TestLookup:
    def test_absent_fingerprint_costs_nvmm_read(self, controller):
        store = make_store(controller)
        result = store.lookup(0xABC, 0.0)
        assert result.where is LookupWhere.ABSENT
        assert not result.found
        assert controller.metadata_reads == 1
        assert store.absent_lookups == 1

    def test_cached_hit_is_cheap(self, controller):
        store = make_store(controller)
        store.insert(0xABC, 7, 0.0)
        before = controller.metadata_reads
        result = store.lookup(0xABC, 10.0)
        assert result.where is LookupWhere.CACHE
        assert result.frame == 7
        assert controller.metadata_reads == before
        assert result.completion_ns == 10.0 + store.probe_latency_ns

    def test_nvmm_hit_after_cache_eviction(self, controller):
        store = make_store(controller, entries=2)
        for i in range(4):
            store.insert(i, i + 100, 0.0)
        result = store.lookup(0, 50.0)
        assert result.where is LookupWhere.NVMM
        assert result.frame == 100
        # The hit re-installs the entry in the cache.
        assert store.lookup(0, 60.0).where is LookupWhere.CACHE

    def test_figure5_split_counters(self, controller):
        store = make_store(controller, entries=2)
        for i in range(4):
            store.insert(i, i, 0.0)
        store.lookup(3, 1.0)   # cache hit
        store.lookup(0, 2.0)   # NVMM hit
        store.lookup(99, 3.0)  # absent
        cache_hits, nvmm_hits = store.duplicate_filter_split()
        assert cache_hits == 1
        assert nvmm_hits == 1
        assert store.nvmm_lookup_ops == 2  # NVMM consulted on both misses


class TestInsertRemove:
    def test_insert_updates_home(self, controller):
        store = make_store(controller)
        store.insert(5, 50, 0.0)
        assert store.contains(5)
        assert store.entry_count == 1

    def test_remove(self, controller):
        store = make_store(controller)
        store.insert(5, 50, 0.0)
        store.remove(5, 50)
        assert not store.contains(5)
        assert store.lookup(5, 0.0).where is LookupWhere.ABSENT

    def test_remove_absent_is_noop(self, controller):
        make_store(controller).remove(123, 7)

    def test_remove_keeps_an_entry_re_pointed_elsewhere(self, controller):
        # A collision re-points the entry at the newer frame; freeing the
        # older frame must leave the newer frame's entry in place.
        store = make_store(controller)
        store.insert(5, 50, 0.0)
        store.insert(5, 51, 0.0)
        store.remove(5, 50)
        assert store.entry_count == 1
        assert store.lookup(5, 0.0).frame == 51
        store.remove(5, 51)
        assert not store.contains(5)

    def test_insert_coalescing(self, controller):
        # entry_size 26 -> 2 entries per metadata line.
        store = make_store(controller, entries=100, entry_size=26)
        for i in range(10):
            store.insert(i, i, 0.0)
        assert store.nvmm_insert_writes == 5
        assert controller.metadata_writes == 5

    def test_footprints(self, controller):
        store = make_store(controller, entries=2, entry_size=26)
        for i in range(5):
            store.insert(i, i, 0.0)
        assert store.nvmm_bytes() == 5 * 26
        assert store.onchip_bytes() <= 2 * 26

    def test_validation(self, controller):
        with pytest.raises(ValueError):
            FullFingerprintStore(cache_bytes=0, entry_size=26,
                                 controller=controller)
