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
from functools import cached_property
from typing import Dict, List, Tuple

from ..common.config import SystemConfig, canonical_json, digest_canonical
from ..common.errors import ConfigError
from ..crypto.costs import CryptoCosts, DEFAULT_COSTS
from ..registry import registered_scheme_names
from ..sim.engine import EngineConfig
from ..workloads.profiles import app_names

#: The trace-layout stamp every trace id and job digest embeds.  It is 1,
#: the number of the flat trace container stores once wrote, although
#: stores have written the chunked v2 container since; changing it would
#: move every trace id and every stored job digest.
TRACE_ID_VERSION = 1

#: Version of the sweep job/result layout.  Bumping it invalidates every
#: previously stored result (their hashes change), which is the safe
#: default whenever simulation semantics move.
#: v2: results carry a read-path breakdown (timeline refactor).
#: v3: the system config's vectorized switch and the engine config's
#: epoch size are gone (one execution switch).
#: v4: the system config's execution switch is gone (one execution
#: path), which changes every job digest.
SWEEP_SCHEMA_VERSION = 4

#: Canonical JSON of the frozen config objects digested most recently,
#: keyed by identity.  Every job of a sweep shares one SystemConfig,
#: EngineConfig and CryptoCosts, so each is reduced once per sweep, not
#: once per job.  Equality would be the wrong key: a config holding the
#: int 75 equals (and hashes like) one holding 75.0, yet the two reduce
#: to different text and so digest differently.  Each entry holds its
#: object, so the id cannot be reused while the entry lives.
_CONFIG_JSON: Dict[int, Tuple[object, str]] = {}
_CONFIG_JSON_CAP = 16


def _config_json(config) -> str:
    """:func:`canonical_json` of ``config``, memoized for the frozen
    config types a :class:`JobSpec` embeds."""
    entry = _CONFIG_JSON.get(id(config))
    if entry is not None:
        return entry[1]
    text = canonical_json(config)
    if isinstance(config, (SystemConfig, EngineConfig, CryptoCosts)):
        while len(_CONFIG_JSON) >= _CONFIG_JSON_CAP:
            _CONFIG_JSON.pop(next(iter(_CONFIG_JSON)))
        _CONFIG_JSON[id(config)] = (config, text)
    return text


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
        return f"{self.app}-s{self.seed}-n{self.requests}-v{TRACE_ID_VERSION}"

    def digest(self) -> str:
        """Stable content hash identifying this job across processes.

        Equal to :func:`~repro.common.config.config_digest` of the job
        parameters, system, engine and costs; computed once per instance.
        """
        return self._digest

    @cached_property
    def _digest(self) -> str:
        return digest_canonical(
            canonical_json({
                "schema": SWEEP_SCHEMA_VERSION,
                "trace_version": TRACE_ID_VERSION,
                "app": self.app,
                "scheme": self.scheme,
                "requests": self.requests,
                "seed": self.seed,
            }),
            _config_json(self.system), _config_json(self.engine),
            _config_json(self.costs))

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
            cls_name = payload["__class__"]
            cls = registry.get(cls_name) if isinstance(cls_name, str) \
                else None
            if cls is None:
                raise ValueError(f"unknown config class {cls_name!r}")
            raw = payload.get("fields")
            if not isinstance(raw, dict):
                raise ValueError(
                    f"config class {cls.__name__} payload has no 'fields' "
                    f"object")
            known = {f.name for f in fields(cls) if f.init}
            unknown = sorted(set(raw) - known)
            if unknown:
                raise ValueError(
                    f"config class {cls.__name__} has no field "
                    f"{', '.join(map(repr, unknown))}")
            kwargs = {name: _decode_value(value, registry)
                      for name, value in raw.items()}
            try:
                return cls(**kwargs)
            except (TypeError, ConfigError) as exc:
                # A missing field, or a value of the wrong type that the
                # class's own validation trips over.
                raise ValueError(
                    f"config class {cls.__name__}: {exc}") from exc
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


#: Keys of a queue payload (besides ``schema``) and the JSON type of each.
#: Any process sharing the store can write the queue, so a payload is
#: outside input and is checked before it is decoded.
_PAYLOAD_KEYS = (("app", str), ("scheme", str), ("requests", int),
                 ("seed", int), ("digest", str), ("system", dict),
                 ("engine", dict), ("costs", dict))


def spec_from_payload(payload: dict) -> JobSpec:
    """Rebuild a :class:`JobSpec` from a queue payload.

    Raises:
        ValueError: when the payload's schema is incompatible, a key is
            missing or has the wrong type, a config carries a field this
            build does not know, or the rebuilt spec's digest differs
            from the recorded one (a corrupted or cross-version payload
            must never execute under the wrong identity).
    """
    if not isinstance(payload, dict):
        raise ValueError(
            f"queue payload must be an object, not {type(payload).__name__}")
    if payload.get("schema") != SWEEP_SCHEMA_VERSION:
        raise ValueError(
            f"queue payload schema {payload.get('schema')!r} does not "
            f"match this build's schema {SWEEP_SCHEMA_VERSION}")
    for key, kind in _PAYLOAD_KEYS:
        if key not in payload:
            raise ValueError(f"queue payload has no {key!r}")
        value = payload[key]
        if not isinstance(value, kind) or isinstance(value, bool):
            raise ValueError(
                f"queue payload field {key!r} must be {kind.__name__}, "
                f"not {type(value).__name__}")
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
