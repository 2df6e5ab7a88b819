"""Job specifications for orchestrated experiment sweeps.

A :class:`JobSpec` pins down everything one grid cell depends on — the
application, the scheme, the trace parameters (requests, seed), and the
complete system/engine/cost configuration — and derives a stable content
hash from it.  Two processes (or two machines) building the same spec get
the same hash, which is what makes the result store shareable and sweeps
resumable.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import List, Tuple

from ..common.config import SystemConfig, config_digest
from ..crypto.costs import CryptoCosts, DEFAULT_COSTS
from ..registry import registered_scheme_names
from ..sim.engine import EngineConfig
from ..workloads.profiles import app_names
from ..workloads.trace import VERSION as TRACE_VERSION

#: Version of the sweep job/result layout.  Bumping it invalidates every
#: previously stored result (their hashes change), which is the safe
#: default whenever simulation semantics move.
#: v2: results carry a read-path breakdown (timeline refactor).
#: v3: the system config's vectorized switch and the engine config's
#: epoch size are gone (one execution switch).
SWEEP_SCHEMA_VERSION = 3


@dataclass(frozen=True)
class JobSpec:
    """One (application, scheme) cell of an experiment grid.

    Unlike :func:`repro.sim.runner.run_app`, a job spec carries an
    *explicit* :class:`SystemConfig` — there is no silent default, so the
    serial and orchestrated paths cannot diverge on configuration.
    """

    app: str
    scheme: str
    requests: int
    seed: int
    system: SystemConfig
    engine: EngineConfig = field(default_factory=EngineConfig)
    costs: CryptoCosts = DEFAULT_COSTS

    def __post_init__(self) -> None:
        if self.app not in app_names():
            raise ValueError(f"unknown application {self.app!r}")
        registered = registered_scheme_names()
        if self.scheme not in registered:
            raise ValueError(f"unknown scheme {self.scheme!r}; registered "
                             f"schemes: {', '.join(registered)}")
        if self.requests <= 0:
            raise ValueError("requests must be positive")

    @property
    def key(self) -> Tuple[str, str]:
        """The cell's position in a :data:`~repro.sim.runner.ResultGrid`."""
        return (self.app, self.scheme)

    @property
    def trace_id(self) -> str:
        """Identifier of the shared per-application trace this job replays.

        Every scheme job of one application shares the same trace (the
        paper's evaluation pairs schemes on identical request streams), so
        the trace id deliberately excludes the scheme.
        """
        return f"{self.app}-s{self.seed}-n{self.requests}-v{TRACE_VERSION}"

    def digest(self) -> str:
        """Stable content hash identifying this job across processes."""
        return config_digest({
            "schema": SWEEP_SCHEMA_VERSION,
            "trace_version": TRACE_VERSION,
            "app": self.app,
            "scheme": self.scheme,
            "requests": self.requests,
            "seed": self.seed,
        }, self.system, self.engine, self.costs)

    def describe(self) -> str:
        return f"{self.app}/{self.scheme} ({self.requests} req, seed {self.seed})"


# ----------------------------------------------------------------------
# Wire codec: JobSpec <-> JSON payload (the distributed queue's format)
# ----------------------------------------------------------------------
#
# The work-queue execution backend publishes pending jobs into the shared
# store, and worker processes — possibly on other hosts — rebuild the
# exact JobSpec from the stored payload.  The codec reuses the tagged
# canonical form of :func:`repro.common.config.config_digest` (dataclasses
# become ``{"__class__": name, "fields": {...}}``), so a round-tripped
# spec reproduces the original digest bit-for-bit; that identity is
# asserted at decode time because the digest is the exactly-once key.

def _config_class_registry() -> dict:
    """Name -> class map of every dataclass a JobSpec can embed."""
    import dataclasses

    from ..common import config as _config_mod
    from ..crypto import costs as _costs_mod
    from ..sim import engine as _engine_mod

    registry = {}
    for module in (_config_mod, _costs_mod, _engine_mod):
        for attr in vars(module).values():
            if isinstance(attr, type) and dataclasses.is_dataclass(attr):
                registry[attr.__name__] = attr
    return registry


def _encode_value(value):
    import dataclasses
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            "__class__": type(value).__name__,
            "fields": {f.name: _encode_value(getattr(value, f.name))
                       for f in dataclasses.fields(value)},
        }
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (bytes, bytearray)):
        return {"__bytes__": bytes(value).hex()}
    if isinstance(value, (list, tuple)):
        return [_encode_value(v) for v in value]
    raise ValueError(f"cannot encode {type(value).__name__} for the queue")


def _decode_value(payload, registry):
    if isinstance(payload, dict):
        if "__class__" in payload:
            cls = registry.get(payload["__class__"])
            if cls is None:
                raise ValueError(
                    f"unknown config class {payload['__class__']!r}")
            known = {f.name for f in fields(cls) if f.init}
            unknown = sorted(set(payload["fields"]) - known)
            if unknown:
                raise ValueError(
                    f"config class {cls.__name__} has no field "
                    f"{', '.join(map(repr, unknown))}")
            kwargs = {name: _decode_value(value, registry)
                      for name, value in payload["fields"].items()}
            return cls(**kwargs)
        if "__bytes__" in payload:
            return bytes.fromhex(payload["__bytes__"])
        return {k: _decode_value(v, registry) for k, v in payload.items()}
    if isinstance(payload, list):
        return [_decode_value(v, registry) for v in payload]
    return payload


def spec_to_payload(spec: JobSpec) -> dict:
    """Serialize a :class:`JobSpec` for the shared work queue."""
    return {
        "schema": SWEEP_SCHEMA_VERSION,
        "app": spec.app,
        "scheme": spec.scheme,
        "requests": spec.requests,
        "seed": spec.seed,
        "digest": spec.digest(),
        "trace_id": spec.trace_id,
        "system": _encode_value(spec.system),
        "engine": _encode_value(spec.engine),
        "costs": _encode_value(spec.costs),
    }


def spec_from_payload(payload: dict) -> JobSpec:
    """Rebuild a :class:`JobSpec` from a queue payload.

    Raises:
        ValueError: when the payload's schema is incompatible, a config
            carries a field this build does not know, or the rebuilt
            spec's digest differs from the recorded one (a corrupted or
            cross-version payload must never execute under the wrong
            identity).
    """
    if payload.get("schema") != SWEEP_SCHEMA_VERSION:
        raise ValueError(
            f"queue payload schema {payload.get('schema')!r} does not "
            f"match this build's schema {SWEEP_SCHEMA_VERSION}")
    registry = _config_class_registry()
    spec = JobSpec(
        app=payload["app"],
        scheme=payload["scheme"],
        requests=payload["requests"],
        seed=payload["seed"],
        system=_decode_value(payload["system"], registry),
        engine=_decode_value(payload["engine"], registry),
        costs=_decode_value(payload["costs"], registry),
    )
    if spec.digest() != payload["digest"]:
        raise ValueError(
            f"queue payload digest mismatch for {spec.describe()}: "
            f"payload {payload['digest'][:12]} != rebuilt "
            f"{spec.digest()[:12]}")
    return spec


def jobs_from_experiment(config) -> List[JobSpec]:
    """Expand an :class:`~repro.sim.runner.ExperimentConfig` into job specs.

    Order matches the serial :func:`~repro.sim.runner.run_grid` iteration
    (apps outer, schemes inner) so the assembled grid has identical key
    ordering to a serial run.
    """
    return [
        JobSpec(app=app, scheme=scheme,
                requests=config.requests_per_app, seed=config.seed,
                system=config.system, engine=config.engine,
                costs=config.costs)
        for app in config.apps
        for scheme in config.schemes
    ]
