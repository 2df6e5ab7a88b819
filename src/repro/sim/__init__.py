"""Simulation layer: engine, full-system wiring, runner, and metrics."""

from .checkpoint import (
    RestoredCheckpoint,
    checkpoint_bytes,
    load_checkpoint,
    write_checkpoint,
)
from .engine import EngineConfig, SimulationEngine
from .export import (
    csv_string,
    grid_to_dict,
    read_json,
    result_state_bytes,
    result_to_dict,
    write_csv,
    write_json,
)
from .session import Session
from .metrics import SimulationResult, collect_extras, speedup
from .runner import (
    ExperimentConfig,
    ResultGrid,
    grid_metric,
    iter_apps,
    run_app,
    run_grid,
    scaled_system_config,
)
from .system import FullSystem, FullSystemStats

__all__ = [
    "EngineConfig",
    "ExperimentConfig",
    "FullSystem",
    "FullSystemStats",
    "RestoredCheckpoint",
    "ResultGrid",
    "Session",
    "SimulationEngine",
    "SimulationResult",
    "checkpoint_bytes",
    "collect_extras",
    "csv_string",
    "grid_to_dict",
    "grid_metric",
    "iter_apps",
    "load_checkpoint",
    "result_state_bytes",
    "result_to_dict",
    "run_app",
    "read_json",
    "run_grid",
    "scaled_system_config",
    "speedup",
    "write_checkpoint",
    "write_csv",
    "write_json",
]
