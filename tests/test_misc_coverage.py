"""Coverage for smaller cross-cutting paths: partial writes, examples."""

import json
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

from repro.common.config import PCMConfig
from repro.common.units import mib
from repro.nvmm.controller import MemoryController
from repro.nvmm.energy import EnergyCategory

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"
SRC = EXAMPLES.parent / "src"


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

    @staticmethod
    def _loaded_after(module: str) -> list:
        """Names of the modules a fresh interpreter has loaded after
        importing ``module``."""
        code = (f"import sys; sys.path.insert(0, {str(SRC)!r}); "
                f"import {module}; import json; "
                "print(json.dumps(sorted(sys.modules)))")
        proc = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        return json.loads(proc.stdout)

    def test_importing_repro_loads_no_submodule(self):
        loaded = self._loaded_after("repro")
        assert [m for m in loaded if m.startswith("repro.")] == []

    def test_runner_import_loads_no_sweep_serve_or_pool_modules(self):
        loaded = self._loaded_after("repro.sim.runner")
        assert [m for m in loaded if m.startswith(
            ("repro.sweep", "repro.serve", "sqlite3", "multiprocessing",
             "concurrent.futures"))] == []

    def test_subpackage_alls_resolve(self):
        import importlib
        for module_name in ("repro.common", "repro.sim", "repro.workloads",
                            "repro.sweep", "repro.serve"):
            module = importlib.import_module(module_name)
            for name in getattr(module, "__all__", []):
                assert getattr(module, name, None) is not None, (
                    f"{module_name}.{name}")
