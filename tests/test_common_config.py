"""Tests for repro.common.config (Table I defaults and validation)."""

import pytest

from repro.common.config import (
    CacheLevelConfig,
    DeWriteConfig,
    ESDConfig,
    MetadataCacheConfig,
    PCMConfig,
    ProcessorConfig,
    SystemConfig,
    default_config,
    small_test_config,
)
from repro.common.errors import ConfigError
from repro.common.units import gib, kib, mib


class TestTable1Defaults:
    """The defaults must match the paper's Table I."""

    def test_processor(self):
        p = ProcessorConfig()
        assert p.cores == 8
        assert p.clock_ghz == 2.0

    def test_l1(self):
        p = ProcessorConfig()
        assert p.l1.capacity_bytes == kib(32)
        assert p.l1.associativity == 8
        assert p.l1.latency_cycles == 2

    def test_l2(self):
        p = ProcessorConfig()
        assert p.l2.capacity_bytes == kib(256)
        assert p.l2.latency_cycles == 8

    def test_l3(self):
        p = ProcessorConfig()
        assert p.l3.capacity_bytes == mib(16)
        assert p.l3.latency_cycles == 25

    def test_pcm(self):
        pcm = PCMConfig()
        assert pcm.capacity_bytes == gib(16)
        assert pcm.read_latency_ns == 75.0
        assert pcm.write_latency_ns == 150.0
        assert pcm.read_energy_nj == 1.49
        assert pcm.write_energy_nj == 6.75

    def test_metadata_caches(self):
        mc = MetadataCacheConfig()
        assert mc.efit_bytes == kib(512)
        assert mc.amt_bytes == kib(512)

    def test_cycle_time(self):
        assert ProcessorConfig().cycle_ns == pytest.approx(0.5)


class TestCacheLevelConfig:
    def test_geometry(self):
        c = CacheLevelConfig(name="X", capacity_bytes=kib(32),
                             associativity=8, latency_cycles=2)
        assert c.num_lines == 512
        assert c.num_sets == 64

    def test_rejects_non_divisible_capacity(self):
        with pytest.raises(ConfigError):
            CacheLevelConfig(name="X", capacity_bytes=1000,
                             associativity=8, latency_cycles=2)

    def test_rejects_non_power_of_two_sets(self):
        with pytest.raises(ConfigError):
            CacheLevelConfig(name="X", capacity_bytes=3 * kib(64),
                             associativity=8, latency_cycles=1)

    def test_rejects_zero_associativity(self):
        with pytest.raises(ConfigError):
            CacheLevelConfig(name="X", capacity_bytes=kib(32),
                             associativity=0, latency_cycles=2)


class TestRemovedOptions:
    def test_execution_switch_is_unknown(self):
        """There is one execution path: a tenant option naming the removed
        ``use_fastpath`` switch is an unknown field, a typed error."""
        with pytest.raises(ConfigError, match="no field 'use_fastpath'"):
            SystemConfig().with_options({"use_fastpath": False})


class TestPCMConfigValidation:
    def test_rejects_negative_latency(self):
        with pytest.raises(ConfigError):
            PCMConfig(read_latency_ns=-1)

    def test_rejects_odd_bank_count(self):
        with pytest.raises(ConfigError):
            PCMConfig(num_banks=3)

    def test_num_lines(self):
        pcm = PCMConfig(capacity_bytes=mib(1))
        assert pcm.num_lines == mib(1) // 64


class TestESDConfig:
    def test_refer_h_is_one_byte(self):
        with pytest.raises(ConfigError):
            ESDConfig(refer_h_max=256)
        with pytest.raises(ConfigError):
            ESDConfig(refer_h_max=0)

    def test_decay_validation(self):
        with pytest.raises(ConfigError):
            ESDConfig(decay_period=0)


class TestDeWriteConfig:
    def test_predictor_bits_range(self):
        with pytest.raises(ConfigError):
            DeWriteConfig(predictor_bits=0)
        with pytest.raises(ConfigError):
            DeWriteConfig(predictor_bits=9)


class TestSystemConfigBuilders:
    def test_with_metadata_cache(self):
        cfg = default_config().with_metadata_cache(efit_bytes=kib(64))
        assert cfg.metadata_cache.efit_bytes == kib(64)
        # Untouched field preserved.
        assert cfg.metadata_cache.amt_bytes == kib(512)
        # Original is unchanged (frozen copies).
        assert default_config().metadata_cache.efit_bytes == kib(512)

    def test_with_esd(self):
        cfg = default_config().with_esd(use_lrcu=False, refer_h_max=100)
        assert cfg.esd.use_lrcu is False
        assert cfg.esd.refer_h_max == 100

    def test_with_seed(self):
        assert default_config().with_seed(99).seed == 99

    def test_small_test_config_is_small(self):
        small = small_test_config()
        assert small.pcm.capacity_bytes < default_config().pcm.capacity_bytes
        assert small.metadata_cache.efit_bytes < kib(512)
