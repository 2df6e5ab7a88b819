"""Host-time attribution by layer for the benchmark's traced runs.

The tracer times calls into each simulator layer from wrappers it
installs over public functions, resolved by dotted name (``TARGETS``
plus every registered scheme's request handlers).  Nothing in ``src/``
knows about it: module-level functions are re-bound at every ``repro``
module that imported them by name (``repro.core.esd.line_ecc`` as well as
``repro.ecc.codec.line_ecc``), and methods are replaced on the class that
defines them.  Install the wrappers before the objects under test are
built, because some constructors bind methods once.

Accounting.  Each thread keeps a span stack.  A span's self time is its
duration minus the time its child spans cover; a layer's self time is
the sum of its spans' self times over every thread (and, for the serve
and sweep workloads, over the server or worker processes, whose
snapshots are merged).  The layer of a span is the ``repro`` subpackage
of the module that defines the wrapped function.  ``other`` is the self
time of the benchmark's own root spans: the part of each timed unit
that no wrapped call covers.  Generator functions are timed per
``next()``, so a consumer's span never absorbs the producer's work.

A target that cannot be resolved (a module, class or function that a
later change removed or renamed) is reported ``absent`` with zero calls
instead of failing the run.

Sampling.  One in ``sample_every`` top-level simulated requests (the
outermost call of a scheme's ``handle_write``/``handle_read``) is
recorded as a span tree: span id, parent id, layer, function, start and
end, in seconds from the tracer's creation.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import multiprocessing
import os
import sys
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import (Any, Callable, Dict, Iterator, List, Optional, Sequence,
                    Tuple)

#: Layers in report order.
LAYERS: Tuple[str, ...] = (
    "workloads", "sim", "dedup", "core", "ecc", "crypto", "nvmm", "vec",
    "perf", "serve", "sweep", "other")

#: Layers measured only through ratios read from results; no span targets.
UNTIMED_LAYERS = ("perf",)

#: Public functions and methods timed as spans.  ``Class.*`` expands to
#: every public method defined in that class's own body.
TARGETS: Tuple[str, ...] = (
    "repro.workloads.generator.TraceGenerator.generate",
    "repro.workloads.generator.TraceGenerator.generate_list",
    "repro.workloads.phases.PhasedTraceGenerator.generate",
    "repro.workloads.trace.read_trace",
    "repro.workloads.trace.capture_trace",
    "repro.sim.session.Session.feed",
    "repro.sim.session.Session.finalize",
    "repro.dedup.fingerprint_store.FullFingerprintStore.lookup",
    "repro.dedup.fingerprint_store.FullFingerprintStore.insert",
    "repro.dedup.mapping.MappingTable.lookup",
    "repro.dedup.mapping.MappingTable.update",
    "repro.core.efit.EFIT.*",
    "repro.core.lrcu.LRCUCache.*",
    "repro.core.amt.AddressMappingTable.update",
    "repro.ecc.codec.line_ecc",
    "repro.ecc.codec.decode_line",
    "repro.ecc.codec.ECCFingerprintEngine.fingerprint",
    "repro.crypto.counter_mode.CounterModeEngine.encrypt",
    "repro.crypto.counter_mode.CounterModeEngine.decrypt_at",
    "repro.crypto.fingerprints.SHA1Engine.fingerprint",
    "repro.crypto.fingerprints.MD5Engine.fingerprint",
    "repro.crypto.fingerprints.CRC32Engine.fingerprint",
    "repro.crypto.fingerprints.TruncatedEngine.fingerprint",
    "repro.nvmm.controller.MemoryController.read",
    "repro.nvmm.controller.MemoryController.write",
    "repro.nvmm.controller.MemoryController.write_partial",
    "repro.nvmm.controller.MemoryController.metadata_read",
    "repro.nvmm.controller.MemoryController.metadata_write",
    "repro.vec.epoch.EpochPrecomputer.precompute",
    "repro.serve.session_mgr.SessionManager.open_locked",
    "repro.serve.session_mgr.SessionManager.feed_locked",
    "repro.serve.session_mgr.SessionManager.finalize_locked",
    "repro.serve.protocol.decode_message",
    "repro.serve.protocol.decode_requests",
    "repro.serve.protocol.encode_message",
    "repro.serve.protocol.encode_requests",
    "repro.sweep.store.ResultStore.get",
    "repro.sweep.store.ResultStore.put",
    "repro.sweep.store.ResultStore.ensure_trace",
)

#: Request handlers of every registered scheme: the simulated-request
#: boundary, and the roots of the sampled span trees.
SCHEME_METHODS: Tuple[str, ...] = ("handle_write", "handle_read")

#: Entry point of the sweep's locally spawned worker processes; wrapped so
#: a forked worker reports its own span aggregates when it exits.
SWEEP_WORKER_ENTRY = "repro.sweep.backends._worker_process_entry"

_ROOT = "<root>"


def layer_of(module: str) -> str:
    """The layer of a function defined in ``module``."""
    parts = module.split(".")
    if len(parts) > 1 and parts[0] == "repro" and parts[1] in LAYERS:
        return parts[1]
    return "other"


def resolve(dotted: str) -> Tuple[Any, str, Any]:
    """Resolve ``pkg.module[.Class].attr`` to ``(owner, attr, value)``.

    The owner is the module, or for a method the class in the MRO whose
    body defines it, so that wrapping it there covers every subclass
    inheriting the definition.

    Raises:
        ImportError, AttributeError: when any part does not exist.
    """
    parts = dotted.split(".")
    for split in range(len(parts) - 1, 0, -1):
        try:
            obj: Any = importlib.import_module(".".join(parts[:split]))
        except ImportError:
            continue
        for name in parts[split:-1]:
            obj = getattr(obj, name)
        attr = parts[-1]
        if inspect.isclass(obj):
            for klass in obj.__mro__:
                if attr in vars(klass):
                    return klass, attr, vars(klass)[attr]
            raise AttributeError(f"{obj.__qualname__} has no {attr!r}")
        return obj, attr, getattr(obj, attr)
    raise ImportError(f"no importable module in {dotted!r}")


def expand_targets(targets: Sequence[str]) -> List[str]:
    """Expand ``Class.*`` entries; unresolvable ones pass through as-is."""
    out: List[str] = []
    for dotted in targets:
        if not dotted.endswith(".*"):
            out.append(dotted)
            continue
        base = dotted[:-2]
        try:
            _, _, klass = resolve(base)
        except (ImportError, AttributeError):
            out.append(dotted)
            continue
        for name, value in vars(klass).items():
            if name.startswith("_"):
                continue
            if inspect.isfunction(value) or isinstance(
                    value, (staticmethod, classmethod)):
                out.append(f"{base}.{name}")
    return out


def scheme_targets() -> List[str]:
    """``handle_write``/``handle_read`` of every registered scheme class."""
    try:
        from repro.registry import registered_scheme_names, scheme_info
    except ImportError:
        return [f"repro.registry.<schemes>.{m}" for m in SCHEME_METHODS]
    out = []
    for name in registered_scheme_names():
        cls = scheme_info(name).cls
        out.extend(f"{cls.__module__}.{cls.__qualname__}.{method}"
                   for method in SCHEME_METHODS)
    return out


class _ThreadState:
    """One thread's span stack, per-slot aggregates and sampled spans."""

    __slots__ = ("stack", "self_s", "calls", "samples", "request_depth",
                 "request_seq", "sample_root", "thread")

    def __init__(self, slots: int, thread: str) -> None:
        self.stack: List[list] = []
        self.self_s = [0.0] * slots
        self.calls = [0] * slots
        self.samples: List[Dict[str, Any]] = []
        self.request_depth = 0
        self.request_seq = 0
        #: Frame of the request being sampled; ``None`` when not sampling.
        self.sample_root: Optional[list] = None
        self.thread = thread

    def clear(self) -> None:
        self.stack.clear()
        self.self_s = [0.0] * len(self.self_s)
        self.calls = [0] * len(self.calls)
        self.samples.clear()
        self.request_depth = 0
        self.request_seq = 0
        self.sample_root = None


class Tracer:
    """Span wrappers, per-thread aggregation and the install lifecycle.

    Args:
        clock: monotonic clock in seconds; injectable for exact tests.
        sample_every: record one in this many top-level requests.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter,
                 sample_every: int = 1000) -> None:
        self._clock = clock
        self._epoch = clock()
        self._sample_every = sample_every
        self._local = threading.local()
        self._lock = threading.Lock()
        self._states: List[_ThreadState] = []
        #: Per slot: (target, layer, function name).  Slot 0 is the root.
        self._slots: List[Tuple[str, str, str]] = [(_ROOT, "other", _ROOT)]
        self._ids = itertools.count(1)
        self._installed: List[Tuple[Any, str, Any]] = []
        self.statuses: List[Dict[str, str]] = []

    # -- per-thread state -------------------------------------------------

    def _state(self) -> _ThreadState:
        try:
            return self._local.state
        except AttributeError:
            pass
        with self._lock:
            state = _ThreadState(len(self._slots),
                                 threading.current_thread().name)
            self._states.append(state)
        self._local.state = state
        return state

    def _new_slot(self, target: str, layer: str, function: str) -> int:
        with self._lock:
            self._slots.append((target, layer, function))
            for state in self._states:
                state.self_s.append(0.0)
                state.calls.append(0)
            return len(self._slots) - 1

    def reset(self) -> None:
        """Zero every aggregate (a forked worker drops its parent's)."""
        with self._lock:
            for state in self._states:
                state.clear()

    # -- spans --------------------------------------------------------------

    def _open(self, state: _ThreadState, slot: int, request: bool) -> list:
        frame = [0.0, 0.0, None, None]
        if request:
            if state.request_depth == 0:
                state.request_seq += 1
                if (state.request_seq - 1) % self._sample_every == 0:
                    state.sample_root = frame
            state.request_depth += 1
        if state.sample_root is not None:
            parent = None
            if state.stack:
                above = state.stack[-1]
                if above[2] is None:
                    above[2] = next(self._ids)
                parent = above[2]
            frame[2] = next(self._ids)
            _, layer, function = self._slots[slot]
            frame[3] = {"id": frame[2], "parent": parent, "layer": layer,
                        "function": function, "thread": state.thread}
        frame[0] = self._clock()
        state.stack.append(frame)
        return frame

    def _close(self, state: _ThreadState, frame: list, slot: int,
               request: bool) -> None:
        end = self._clock()
        stack = state.stack
        stack.pop()
        elapsed = end - frame[0]
        state.self_s[slot] += elapsed - frame[1]
        state.calls[slot] += 1
        if stack:
            stack[-1][1] += elapsed
        record = frame[3]
        if record is not None:
            record["start"] = frame[0] - self._epoch
            record["end"] = end - self._epoch
            state.samples.append(record)
        if request:
            state.request_depth -= 1
            if frame is state.sample_root:
                state.sample_root = None

    def wrap(self, fn: Callable, target: str, *, layer: Optional[str] = None,
             request: bool = False) -> Callable:
        """A span-timing wrapper around ``fn`` (generators per ``next()``)."""
        slot = self._new_slot(target, layer or layer_of(fn.__module__),
                              fn.__qualname__)
        local = self._local
        new_state = self._state
        open_frame, close_frame = self._open, self._close

        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_span(*args: Any, **kwargs: Any) -> Iterator[Any]:
                inner = fn(*args, **kwargs)
                try:
                    while True:
                        try:
                            state = local.state
                        except AttributeError:
                            state = new_state()
                        frame = open_frame(state, slot, False)
                        try:
                            item = next(inner)
                        except StopIteration:
                            return
                        finally:
                            close_frame(state, frame, slot, False)
                        yield item
                finally:
                    inner.close()
            gen_span.__bench_span__ = True  # type: ignore[attr-defined]
            return gen_span

        @functools.wraps(fn)
        def span(*args: Any, **kwargs: Any) -> Any:
            try:
                state = local.state
            except AttributeError:
                state = new_state()
            frame = open_frame(state, slot, request)
            try:
                return fn(*args, **kwargs)
            finally:
                close_frame(state, frame, slot, request)
        span.__bench_span__ = True  # type: ignore[attr-defined]
        return span

    @contextmanager
    def root(self) -> Iterator[None]:
        """A root span: one timed unit of the benchmark on this thread."""
        state = self._state()
        frame = [self._clock(), 0.0, None, None]
        state.stack.append(frame)
        try:
            yield
        finally:
            self._close(state, frame, 0, False)

    # -- install / uninstall -----------------------------------------------

    def _bind(self, owner: Any, attr: str, new: Any, old: Any) -> None:
        setattr(owner, attr, new)
        self._installed.append((owner, attr, old))

    def _rebind_function(self, home: Any, fn: Callable, new: Callable) -> None:
        """Re-bind module-level ``fn`` at its home module and at every
        ``repro`` module holding it under any name, so callers that
        imported it by name reach ``new`` too."""
        modules = {id(home): home}
        for module in list(sys.modules.values()):
            name = getattr(module, "__name__", "")
            if name == "repro" or name.startswith("repro."):
                modules[id(module)] = module
        for module in modules.values():
            for key, value in list(vars(module).items()):
                if value is fn:
                    self._bind(module, key, new, fn)

    def _install_one(self, dotted: str, request: bool) -> str:
        try:
            owner, attr, raw = resolve(dotted)
        except (ImportError, AttributeError):
            return "absent"
        fn = raw.__func__ if isinstance(raw, (staticmethod,
                                              classmethod)) else raw
        if getattr(fn, "__bench_span__", False):
            return "duplicate"
        if not callable(fn):
            return "absent"
        wrapper = self.wrap(fn, dotted, request=request)
        if inspect.isclass(owner):
            new = type(raw)(wrapper) if fn is not raw else wrapper
            self._bind(owner, attr, new, raw)
        else:
            self._rebind_function(owner, fn, wrapper)
        return "ok"

    def install(self, targets: Sequence[str] = TARGETS
                ) -> List[Dict[str, str]]:
        """Wrap every target; returns one status row per target."""
        rows = [(t, False) for t in expand_targets(targets)]
        rows += [(t, True) for t in scheme_targets()]
        for dotted, request in rows:
            status = self._install_one(dotted, request)
            if status == "duplicate":
                continue  # an inherited definition another target wrapped
            self.statuses.append({"target": dotted, "status": status})
        return self.statuses

    def install_worker_hook(self, out_dir: Path) -> str:
        """Have forked sweep workers write their aggregates on exit.

        Only the ``fork`` start method shares the installed wrappers with
        the worker; under any other the hook is reported ``absent``.
        """
        if multiprocessing.get_start_method() != "fork":
            return "absent"
        try:
            owner, _, fn = resolve(SWEEP_WORKER_ENTRY)
        except (ImportError, AttributeError):
            return "absent"
        tracer = self

        @functools.wraps(fn)
        def entry(*args: Any, **kwargs: Any) -> Any:
            tracer.reset()
            try:
                return fn(*args, **kwargs)
            finally:
                path = Path(out_dir) / f"worker-{os.getpid()}.json"
                path.write_text(json.dumps(tracer.snapshot()))

        self._rebind_function(owner, fn, entry)
        return "ok"

    def uninstall(self) -> None:
        """Restore every original binding (reverse install order)."""
        while self._installed:
            owner, attr, old = self._installed.pop()
            setattr(owner, attr, old)

    # -- reporting -------------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """This process's aggregates: per target, and the sampled spans."""
        with self._lock:
            slots = list(self._slots)
            self_s = [0.0] * len(slots)
            calls = [0] * len(slots)
            samples: List[Dict[str, Any]] = []
            for state in self._states:
                for i, value in enumerate(state.self_s):
                    self_s[i] += value
                for i, value in enumerate(state.calls):
                    calls[i] += value
                samples.extend(state.samples)
        pid = os.getpid()
        for record in samples:
            record["pid"] = pid
        absent = [row["target"] for row in self.statuses
                  if row["status"] == "absent"]
        return {
            "pid": pid,
            "targets": [{"target": target, "layer": layer,
                         "function": function, "self_s": self_s[i],
                         "calls": calls[i]}
                        for i, (target, layer, function) in enumerate(slots)],
            "absent": absent,
            "samples": sorted(samples, key=lambda r: (r["start"], r["id"])),
        }


def summarize(snapshots: Sequence[Dict[str, Any]]) -> Dict[str, Dict]:
    """Merge process snapshots into per-layer rows.

    Each row is ``{self_s, share, calls, status}``.

    Shares divide by the total self time over all layers, ``other``
    included, so they sum to one.  A layer is ``absent`` when it has no
    resolved target; ``untimed`` layers report through ratios only.
    """
    self_s = {layer: 0.0 for layer in LAYERS}
    calls = {layer: 0 for layer in LAYERS}
    resolved = set()
    for snap in snapshots:
        for row in snap["targets"]:
            self_s[row["layer"]] += row["self_s"]
            calls[row["layer"]] += row["calls"]
            if row["target"] != _ROOT:
                resolved.add(row["layer"])
    total = sum(self_s.values())
    out: Dict[str, Dict] = {}
    for layer in LAYERS:
        if layer in UNTIMED_LAYERS:
            status = "untimed"
        elif layer == "other" or layer in resolved:
            status = "ok"
        else:
            status = "absent"
        out[layer] = {"self_s": self_s[layer],
                      "share": self_s[layer] / total if total > 0 else 0.0,
                      "calls": calls[layer], "status": status}
    return out
