"""Multi-application, multi-scheme experiment runner.

The paper's evaluation grid is (20 applications) x (4 schemes); this module
runs any sub-grid, replaying the *same* trace for every scheme of an
application so comparisons are paired.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..common.config import SystemConfig, default_config
from ..common.types import MemoryRequest
from ..crypto.costs import CryptoCosts, DEFAULT_COSTS
from ..registry import make_scheme, registered_scheme_names, scheme_names
from ..workloads.generator import TraceGenerator
from ..workloads.profiles import app_names, get_profile
from .engine import EngineConfig, SimulationEngine
from .metrics import SUMMARY_METRICS, SimulationResult


def scaled_system_config() -> SystemConfig:
    """Table I scaled to simulation-length traces.

    The paper warms its NVMM with ~1e9 requests, so its 512 KB metadata
    caches are small relative to the workload's unique-content population.
    Our traces are ~4e4 requests; to keep the cache-capacity-to-footprint
    ratio representative (and therefore the *selective* in selective
    deduplication meaningful), grid experiments scale the EFIT/fingerprint
    cache to 16 KB and the AMT cache to 64 KB.  Absolute-size experiments
    (Table I, Figure 18's sweep) still use the unscaled configuration.
    """
    from ..common.units import kib
    return SystemConfig().with_metadata_cache(efit_bytes=kib(16),
                                              amt_bytes=kib(64))


def _require_name_list(names: object, what: str) -> None:
    """Reject a bare string where a list of names belongs.

    A ``str`` is itself a sequence of one-character names, so without
    this check ``"ESD"`` fails later as the unknown scheme ``'E'``.
    """
    if isinstance(names, str):
        raise TypeError(f"{what} must be a list of names, not the string "
                        f"{names!r}; pass [{names!r}]")


@dataclass
class ExperimentConfig:
    """One experiment grid: which apps, schemes, and how much traffic."""

    apps: Sequence[str] = field(default_factory=app_names)
    schemes: Sequence[str] = field(default_factory=lambda: list(scheme_names()))
    requests_per_app: int = 40_000
    system: SystemConfig = field(default_factory=scaled_system_config)
    engine: EngineConfig = field(default_factory=EngineConfig)
    costs: CryptoCosts = DEFAULT_COSTS
    seed: int = 2023

    def __post_init__(self) -> None:
        if self.requests_per_app <= 0:
            raise ValueError("requests_per_app must be positive")
        _require_name_list(self.apps, "apps")
        _require_name_list(self.schemes, "schemes")
        registered = registered_scheme_names()
        unknown = [s for s in self.schemes if s not in registered]
        if unknown:
            raise ValueError(
                f"unknown schemes {unknown}; registered schemes: "
                f"{', '.join(registered)}")


#: Result grid keyed by (application, scheme).
ResultGrid = Dict[Tuple[str, str], SimulationResult]


def run_app(app: str, schemes: Sequence[str], *,
            requests: int = 40_000,
            system: Optional[SystemConfig] = None,
            engine: Optional[EngineConfig] = None,
            costs: CryptoCosts = DEFAULT_COSTS,
            seed: int = 2023,
            trace: Optional[List[MemoryRequest]] = None) -> Dict[str, SimulationResult]:
    """Run one application against several schemes on a shared trace.

    Configuration default: ``system=None`` means the paper's **unscaled**
    Table I configuration (:func:`repro.common.config.default_config`,
    512 KB metadata caches).  This deliberately differs from
    :func:`run_grid`, whose :class:`ExperimentConfig` defaults to
    :func:`scaled_system_config` (caches scaled to simulation-length
    traces).  To reproduce a grid cell with a direct call — or to agree
    with ``repro.sweep`` jobs built from an ``ExperimentConfig`` — pass
    ``system=scaled_system_config()`` explicitly.
    """
    _require_name_list(schemes, "schemes")
    system = system or default_config()
    profile = get_profile(app)
    if trace is None:
        trace = TraceGenerator(profile, seed=seed).generate_list(requests)
    results: Dict[str, SimulationResult] = {}
    for scheme_name in schemes:
        scheme = make_scheme(scheme_name, system, costs)
        sim = SimulationEngine(scheme, engine)
        results[scheme_name] = sim.run(
            iter(trace), app=app, total_hint=len(trace),
            instructions_per_access=profile.instructions_per_access)
    return results


def run_grid(config: Optional[ExperimentConfig] = None) -> ResultGrid:
    """Run the full (apps x schemes) grid of an experiment config, serially.

    Configuration default: the grid's ``ExperimentConfig`` defaults to
    :func:`scaled_system_config` (Table I with metadata caches scaled to
    simulation-length traces); see :func:`run_app` for the contrast with
    direct single-app calls.  :func:`repro.sweep.run_sweep` runs the same
    grid over worker processes and a result store, byte-identically.
    """
    config = config or ExperimentConfig()
    grid: ResultGrid = {}
    for app in config.apps:
        per_app = run_app(app, config.schemes,
                          requests=config.requests_per_app,
                          system=config.system, engine=config.engine,
                          costs=config.costs, seed=config.seed)
        for scheme_name, result in per_app.items():
            grid[(app, scheme_name)] = result
    return grid


def grid_metric(grid: ResultGrid, metric: str) -> Dict[str, Dict[str, float]]:
    """Pivot a grid into {app: {scheme: value}} for one summary metric.

    Raises:
        KeyError: when ``metric`` is not one of
            :data:`~repro.sim.metrics.SUMMARY_METRICS` — raised up front,
            before touching any result.
    """
    if metric not in SUMMARY_METRICS:
        raise KeyError(f"unknown metric {metric!r}; "
                       f"known metrics: {', '.join(SUMMARY_METRICS)}")
    out: Dict[str, Dict[str, float]] = {}
    for (app, scheme_name), result in grid.items():
        out.setdefault(app, {})[scheme_name] = result.summary_row()[metric]
    return out


def iter_apps(grid: ResultGrid) -> Iterable[str]:
    """Application names present in a grid, in first-seen order."""
    seen = []
    for app, _scheme in grid:
        if app not in seen:
            seen.append(app)
    return seen
