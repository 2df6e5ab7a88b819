"""Tests for the rejected motivation schemes: DaE and PDE."""

import pytest

from repro.common.types import AccessType, MemoryRequest
from repro.dedup.dae_pde import DaEScheme, PDEScheme
from repro.nvmm.energy import EnergyCategory
from repro.registry import make_scheme


def wreq(addr, data, t=0.0):
    return MemoryRequest(address=addr, access=AccessType.WRITE, data=data,
                         issue_time_ns=t)


def rreq(addr, t=0.0):
    return MemoryRequest(address=addr, access=AccessType.READ, issue_time_ns=t)


LINE = bytes(range(64))


class TestDaE:
    def test_factory(self, config):
        assert isinstance(make_scheme("DaE", config), DaEScheme)

    def test_diffusion_defeats_dedup(self, config):
        """The paper's core DaE argument: identical plaintexts never match
        after counter-mode encryption."""
        scheme = DaEScheme(config)
        for i in range(50):
            r = scheme.handle_write(wreq(i * 64, LINE, t=i * 500.0))
            assert not r.deduplicated
        assert scheme.write_reduction() == 0.0

    def test_data_still_correct(self, config):
        scheme = DaEScheme(config)
        scheme.handle_write(wreq(0, LINE))
        scheme.handle_write(wreq(64, LINE, t=500.0))
        assert scheme.handle_read(rreq(0, t=1000.0)).data == LINE
        assert scheme.handle_read(rreq(64, t=1500.0)).data == LINE

    def test_pays_both_hash_and_encryption(self, config):
        scheme = DaEScheme(config)
        scheme.handle_write(wreq(0, LINE))
        assert scheme.crypto_energy.get(EnergyCategory.FINGERPRINT) > 0
        assert scheme.crypto_energy.get(EnergyCategory.ENCRYPTION) > 0


class TestPDE:
    def test_factory(self, config):
        assert isinstance(make_scheme("PDE", config), PDEScheme)

    def test_dedups_like_full_dedup(self, config):
        scheme = PDEScheme(config)
        scheme.handle_write(wreq(0, LINE))
        r = scheme.handle_write(wreq(64, LINE, t=500.0))
        assert r.deduplicated
        assert scheme.handle_read(rreq(64, t=1000.0)).data == LINE

    def test_duplicate_wastes_encryption_energy(self, config):
        scheme = PDEScheme(config)
        scheme.handle_write(wreq(0, LINE))
        scheme.handle_write(wreq(64, LINE, t=500.0))
        # Both writes paid encryption energy even though one was deduped.
        assert scheme.counters.get("wasted_encryptions") == 1
        assert scheme.crypto_energy.get(EnergyCategory.ENCRYPTION) == \
            pytest.approx(2 * scheme.crypto.encrypt_energy_nj)

    def test_energy_exceeds_esd(self, config):
        """PDE's rejection ground: it burns hash+encryption on every line."""
        from repro.workloads import TraceGenerator
        trace = TraceGenerator("gcc", seed=3).generate_list(2_000)
        pde = make_scheme("PDE", config)
        esd = make_scheme("ESD", config)
        for req in trace:
            if req.is_write:
                pde.handle_write(req)
                esd.handle_write(req)
        assert (pde.total_energy().total_nj()
                > esd.total_energy().total_nj())

    def test_latency_better_than_serial_sha1(self, config):
        """The hash overlaps encryption, so PDE beats serial Dedup_SHA1."""
        from repro.workloads import TraceGenerator
        trace = TraceGenerator("gcc", seed=3).generate_list(2_000)
        pde = make_scheme("PDE", config)
        sha1 = make_scheme("Dedup_SHA1", config)
        pde_total = sha1_total = 0.0
        for req in trace:
            if req.is_write:
                pde_total += pde.handle_write(req).latency_ns
                sha1_total += sha1.handle_write(req).latency_ns
        assert pde_total < sha1_total


class TestIntegrity:
    @pytest.mark.parametrize("scheme_name", ["DaE", "PDE"])
    def test_no_data_loss(self, config, scheme_name):
        from repro.sim import SimulationEngine
        from repro.workloads import TraceGenerator
        trace = TraceGenerator("lbm", seed=5).generate_list(2_000)
        engine = SimulationEngine(make_scheme(scheme_name, config))
        engine.run(iter(trace), app="lbm", total_hint=len(trace))
