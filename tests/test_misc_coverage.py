"""Coverage for smaller cross-cutting paths: partial writes, examples."""

import runpy
import sys
from pathlib import Path

import pytest

from repro.common.config import PCMConfig
from repro.common.units import mib
from repro.nvmm.controller import MemoryController
from repro.nvmm.energy import EnergyCategory

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


class TestPartialWrites:
    @pytest.fixture
    def controller(self):
        return MemoryController(PCMConfig(capacity_bytes=mib(4), num_banks=4))

    def test_partial_write_scales_energy(self, controller):
        controller.write_partial(7, 0.25, 0.0)
        assert controller.energy.get(EnergyCategory.PCM_WRITE) == \
            pytest.approx(0.25 * 6.75)

    def test_partial_write_full_latency(self, controller):
        result = controller.write_partial(7, 0.1, 0.0)
        assert result.latency_ns == controller.config.write_latency_ns

    def test_partial_write_counted(self, controller):
        controller.write_partial(7, 0.5, 0.0)
        assert controller.counters.get("partial_writes") == 1
        # Partial writes are not data writes (content owned by caller).
        assert controller.data_writes == 0

    def test_fraction_validated(self, controller):
        with pytest.raises(ValueError):
            controller.write_partial(7, 0.0, 0.0)
        with pytest.raises(ValueError):
            controller.write_partial(7, 1.5, 0.0)

    def test_partial_write_occupies_bank(self, controller):
        r1 = controller.write_partial(7, 0.5, 0.0)
        r2 = controller.write_partial(7, 0.5, 0.0)
        assert r2.start_ns >= r1.completion_ns


class TestExamplesAreRunnable:
    """The examples must at least import and expose main()."""

    @pytest.mark.parametrize("script", sorted(
        p.name for p in EXAMPLES.glob("*.py")))
    def test_example_has_main(self, script):
        source = (EXAMPLES / script).read_text()
        assert "def main()" in source
        assert '__name__ == "__main__"' in source
        compile(source, script, "exec")  # syntax-valid

    @pytest.mark.slow
    def test_quickstart_runs(self, capsys, monkeypatch):
        monkeypatch.syspath_prepend(str(EXAMPLES))
        runpy.run_path(str(EXAMPLES / "quickstart.py"), run_name="__main__")
        out = capsys.readouterr().out
        assert "write reduction" in out
        assert "EFIT hit rate" in out


class TestPackageSurface:
    def test_version(self):
        import repro
        assert repro.__version__

    def test_public_names_importable(self):
        import repro
        for name in repro.__all__:
            assert getattr(repro, name, None) is not None, name

    def test_subpackage_alls_resolve(self):
        import importlib
        for module_name in ("repro.common", "repro.ecc", "repro.crypto",
                            "repro.nvmm", "repro.cache", "repro.workloads",
                            "repro.dedup", "repro.core", "repro.sim",
                            "repro.analysis"):
            module = importlib.import_module(module_name)
            for name in getattr(module, "__all__", []):
                assert getattr(module, name, None) is not None, (
                    f"{module_name}.{name}")
