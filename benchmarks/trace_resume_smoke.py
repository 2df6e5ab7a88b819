#!/usr/bin/env python3
"""CI smoke gate for trace-format compatibility and checkpointed resume.

Hard-gates three properties this repo's long-run story depends on:

* **Container parity** — one generated workload serialized as chunked
  v2 and compressed v2 must decode to byte-identical request streams,
  its packed records must decode to the same stream, and
  ``trace_record_count`` must agree without decoding.
* **Resume bit-exactness** — for every registered scheme, interrupting a
  run at an arbitrary cut (checkpoint, dirty the process with an
  unrelated run, restore in the same interpreter, finish) must produce a
  result whose lossless state bytes (:func:`result_state_bytes`) equal
  the uninterrupted run's.  A second leg runs with observability on and
  also compares the obs report's bytes: the session's run scope is
  bound to the scheme graph, so the checkpoint must carry it.
* **CLI resume** — the actual ``repro run --checkpoint/--stop-after``
  (exit code 3) followed by ``repro run --resume`` in a *fresh process*
  must export state bytes identical to a direct run's.

Exit status: 0 on success, 2 on any mismatch (a resume that drifts by
one bit silently corrupts week-long runs — never acceptable).

Usage::

    PYTHONPATH=src python benchmarks/trace_resume_smoke.py [--quick]
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
from itertools import islice
from pathlib import Path
from typing import List

REPO = Path(__file__).resolve().parent.parent

try:
    import repro  # noqa: F401
except ImportError:  # running from a checkout without PYTHONPATH=src
    sys.path.insert(0, str(REPO / "src"))

from repro.common import small_test_config
from repro.dedup import make_scheme
from repro.perf import memo
from repro.registry import registered_scheme_names
from repro.sim.engine import EngineConfig, SimulationEngine
from repro.sim.export import result_state_bytes
from repro.sim.session import Session
from repro.workloads.generator import TraceGenerator
from repro.workloads.trace import (
    pack_records,
    parse_records,
    read_trace_list,
    roundtrip_bytes,
    trace_record_count,
    write_trace,
)

REQUESTS = 2_000
#: Interrupt points, cycled per scheme: an odd cut (1,337) and one on
#: the serve micro-batch cap (1,024).
CUTS = (1_337, 1_024)

failures: List[str] = []


def fail(message: str) -> None:
    failures.append(message)
    print(f"FAIL  {message}")


def ok(message: str) -> None:
    print(f"ok    {message}")


def _keys(requests):
    return [(r.address, r.access, r.data, r.issue_time_ns, r.core, r.seq)
            for r in requests]


def check_container_parity() -> None:
    import io
    original = TraceGenerator("gcc", seed=13).generate_list(1_500)
    truth = _keys(original)
    blobs = {}
    for label, kwargs in (("v2", dict(chunk_records=256)),
                          ("v2z", dict(chunk_records=256, compress=True))):
        buf = io.BytesIO()
        write_trace(original, buf, **kwargs)
        blobs[label] = buf.getvalue()
    for label, blob in blobs.items():
        count = trace_record_count(io.BytesIO(blob))
        if count != len(original):
            fail(f"trace_record_count({label}) = {count}")
            continue
        if _keys(read_trace_list(io.BytesIO(blob))) != truth:
            fail(f"container parity {label}")
        else:
            ok(f"container parity {label} ({len(blob)} bytes)")
    payload, count = pack_records(original)
    if _keys(parse_records(payload, count)) != truth:
        fail("record parity")
    else:
        ok(f"record parity ({count} records)")
    # The default container settings must round-trip too.
    if _keys(roundtrip_bytes(original)) != truth:
        fail("default roundtrip")


def _result_bytes(result) -> bytes:
    """Lossless state bytes, plus the obs report's when there is one."""
    report = (b"" if result.obs is None
              else json.dumps(result.obs, sort_keys=True).encode("utf-8"))
    return result_state_bytes(result) + report


def _direct(trace, scheme_name, config) -> bytes:
    memo.reset_all()
    engine = SimulationEngine(make_scheme(scheme_name, config),
                              EngineConfig())
    result = engine.run(iter(trace), app="gate", total_hint=len(trace))
    return _result_bytes(result)


def _resumed(trace, scheme_name, config, cut: int) -> bytes:
    memo.reset_all()
    engine = SimulationEngine(make_scheme(scheme_name, config),
                              EngineConfig())
    session = engine.open_session(app="gate", total_hint=len(trace))
    stream = iter(trace)
    session.feed(islice(stream, cut))
    blob = session.checkpoint()
    # Dirty the process-global memo caches with an unrelated run before
    # restoring: a resume must not depend on leftover process state.
    other = SimulationEngine(make_scheme("Baseline", small_test_config()))
    other.run(TraceGenerator("lbm", seed=5).generate(300), app="dirt",
              total_hint=300)
    restored = Session.restore(blob)
    replay = iter(trace)
    for _ in range(restored.processed):
        next(replay)
    restored.feed(replay)
    return _result_bytes(restored.finalize())


def check_resume_parity(quick: bool, observed: bool = False) -> None:
    """Every scheme resumes bit-exact; with ``observed``, observability is
    on, every cut is the odd one and the obs report must match."""
    schemes = list(registered_scheme_names())
    if quick:
        schemes = ["ESD", "NV-Dedup"]
    trace = TraceGenerator("gcc", seed=13).generate_list(REQUESTS)
    config = small_test_config()
    cuts = CUTS
    label = "resume parity"
    if observed:
        config = config.with_observability(enabled=True)
        cuts = CUTS[:1]
        label = "observed resume parity"
    for cell, scheme_name in enumerate(schemes):
        cut = cuts[cell % len(cuts)]
        direct = _direct(trace, scheme_name, config)
        resumed = _resumed(trace, scheme_name, config, cut)
        if direct != resumed:
            fail(f"{label} {scheme_name} [cut={cut}]")
        else:
            ok(f"{label} {scheme_name} [cut={cut}]")


def check_cli_resume() -> None:
    import os
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))

    def cli(*args, expect=0):
        proc = subprocess.run([sys.executable, "-m", "repro.cli", *args],
                              capture_output=True, text=True, env=env)
        if proc.returncode != expect:
            fail(f"cli {' '.join(args[:4])}... exited {proc.returncode} "
                 f"(wanted {expect}): {proc.stderr.strip()[:200]}")
            return False
        return True

    with tempfile.TemporaryDirectory() as tmp:
        trace = f"{tmp}/gate.esdtrace"
        ck = f"{tmp}/gate.ckpt"
        direct = f"{tmp}/direct.json"
        resumed = f"{tmp}/resumed.json"
        if not cli("gen-trace", "--app", "gcc", "--requests", "4000",
                   "--out", trace, "--compress"):
            return
        if not cli("run", "--scheme", "ESD", "--trace", trace,
                   "--export-state", direct):
            return
        if not cli("run", "--scheme", "ESD", "--trace", trace,
                   "--checkpoint", ck, "--checkpoint-every", "700",
                   "--stop-after", "1500", expect=3):
            return
        if not cli("run", "--scheme", "ESD", "--trace", trace,
                   "--resume", ck, "--export-state", resumed):
            return
        direct_bytes = Path(direct).read_bytes()
        resumed_bytes = Path(resumed).read_bytes()
        if direct_bytes != resumed_bytes:
            fail("cli resume state bytes differ from direct run")
        else:
            ok(f"cli resume across processes ({len(direct_bytes)} "
               f"state bytes)")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="2 schemes instead of all 8 in each resume "
                             "gate")
    args = parser.parse_args()

    check_container_parity()
    check_resume_parity(args.quick)
    check_resume_parity(args.quick, observed=True)
    check_cli_resume()

    if failures:
        print(f"\ntrace-resume smoke: {len(failures)} failure(s)")
        return 2
    print("\ntrace-resume smoke: all gates passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
