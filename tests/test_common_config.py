"""Tests for repro.common.config (Table I defaults and validation)."""

import re

import pytest

from repro.analysis.experiments import table1_configuration
from repro.common.config import (
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


def table1_row(parameter):
    """The value column of one row of the rendered Table I."""
    match = re.search(rf"^ *{parameter}  +(\S.*)$",
                      table1_configuration().render(), re.M)
    assert match, parameter
    return match.group(1)


class TestTable1Defaults:
    """The defaults must match the paper's Table I.  The core count and
    the caches are not settings (the schemes see the post-LLC stream), so
    their rows are pinned as Table I prints them."""

    def test_processor(self):
        assert ProcessorConfig().clock_ghz == 2.0
        assert table1_row("CPU") == "8 cores, x86-64, 2 GHz"

    def test_l1(self):
        assert table1_row("L1 cache") == "32 KB, 8-way, 2-cycle"

    def test_l2(self):
        assert table1_row("L2 cache") == "256 KB, 8-way, 8-cycle"

    def test_l3(self):
        assert table1_row("L3 cache") == "16 MB, 8-way, 25-cycle"

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


class TestRemovedOptions:
    def test_execution_switch_is_unknown(self):
        """There is one execution path: a tenant option naming the removed
        ``use_fastpath`` switch is an unknown field, a typed error."""
        with pytest.raises(ConfigError, match="no field 'use_fastpath'"):
            SystemConfig().with_options({"use_fastpath": False})

    @pytest.mark.parametrize("path,value", [
        ("pcm.line_size", 64),
        ("pcm.endurance_writes", 10),
        ("pcm.fail_on_endurance", True),
        ("processor.cores", 8),
        ("processor.l1.capacity_bytes", 32768),
    ])
    def test_removed_fields_are_unknown(self, path, value):
        """Every scheme addresses 64-byte lines, the device counts no
        per-frame wear, and no core count or cache is modelled: an option
        naming one of these removed fields is an unknown field, a typed
        error."""
        with pytest.raises(ConfigError, match="no field"):
            SystemConfig().with_options({path: value})


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
