"""Shared fixtures for the benchmark harness.

The heavyweight input to most evaluation figures is the (apps x schemes)
simulation grid; it is built once per session and shared.  Each benchmark
prints the figure's rows/series (the paper-shaped output) and also writes
them to ``benchmarks/output/<figure>.txt`` so results survive the run.

Sweep orchestration: set ``REPRO_SWEEP_STORE`` to a store file (one SQLite
file, created on demand; a path or ``sqlite://<path>``) to build the grid
through ``repro.sweep`` — parallel workers plus a content-addressed result
store, so repeated benchmark sessions (and any CLI sweeps over the same
configuration) reuse each other's simulations instead of recomputing
them.  ``REPRO_SWEEP_JOBS`` caps the worker count (default: cpu count).

    REPRO_SWEEP_STORE=.sweep_cache REPRO_SWEEP_JOBS=8 \
        PYTHONPATH=src python -m pytest benchmarks -q
"""

import os
import pathlib

import pytest

from repro.analysis.experiments import REPRESENTATIVE_APPS, run_evaluation_grid

#: Requests per application for the shared grid.  Large enough for the
#: scaled metadata caches to come under pressure (the regime the paper's
#: full-scale traces live in), small enough for a minutes-scale run.
GRID_REQUESTS = 20_000

OUTPUT_DIR = pathlib.Path(__file__).parent / "output"

#: Optional sweep-orchestration overrides (see module docstring).
SWEEP_STORE = os.environ.get("REPRO_SWEEP_STORE")
SWEEP_JOBS = int(os.environ.get("REPRO_SWEEP_JOBS", "0")) or None


@pytest.fixture(scope="session")
def evaluation_grid():
    """The shared (8 representative apps x 4 schemes) simulation grid."""
    if SWEEP_STORE or SWEEP_JOBS:
        return run_evaluation_grid(REPRESENTATIVE_APPS,
                                   requests=GRID_REQUESTS,
                                   jobs=SWEEP_JOBS, store=SWEEP_STORE)
    return run_evaluation_grid(REPRESENTATIVE_APPS, requests=GRID_REQUESTS)


@pytest.fixture(scope="session")
def output_dir():
    OUTPUT_DIR.mkdir(exist_ok=True)
    return OUTPUT_DIR


@pytest.fixture
def emit(output_dir):
    """Print a figure's rendered rows and persist them to disk."""
    def _emit(name: str, text: str) -> None:
        print(f"\n{text}\n")
        (output_dir / f"{name}.txt").write_text(text + "\n")
    return _emit
