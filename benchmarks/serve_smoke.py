#!/usr/bin/env python3
"""CI smoke gate for the dedup-as-a-service front end.

Spawns the real CLI server as a subprocess (``repro serve`` on an
ephemeral port), streams deterministic traces through the
:class:`~repro.serve.client.ServeClient` SDK for several schemes, and
hard-gates on two properties:

* **Parity** — each served session's finalize payload (summary row and
  the full lossless result state) must be bit-identical to a direct
  in-process :meth:`SimulationEngine.run` of the same trace: every
  byte, including the memo-cache statistics, which each session's
  scheme graph owns.
* **Clean shutdown** — SIGTERM must drain and exit 0 with the CLI's
  "drained clean" notice.

Exit status: 0 on success, 2 on any parity or shutdown failure (the
serve path silently corrupting results or wedging on shutdown is a
correctness regression, never acceptable).  Timing is not measured
here — that is ``perf_smoke.py``'s ``serve_throughput`` section.

``--workers N`` runs the same gate against the multi-process engine
back end (each tenant gets its own label, so sessions spread across the
worker pool by the affinity hash); served sessions are full bit-exact
in every mode, so the parity check is unchanged.

Usage::

    PYTHONPATH=src python benchmarks/serve_smoke.py [--workers N]
"""

from __future__ import annotations

import argparse
import os
import re
import signal
import subprocess
import sys
from pathlib import Path
from typing import List, Tuple

REPO = Path(__file__).resolve().parent.parent

try:
    import repro  # noqa: F401
except ImportError:  # running from a checkout without PYTHONPATH=src
    sys.path.insert(0, str(REPO / "src"))

from repro.registry import make_scheme
from repro.serve import ServeClient
from repro.sim.engine import EngineConfig, SimulationEngine
from repro.sim.export import result_to_state
from repro.sim.runner import scaled_system_config
from repro.workloads.generator import TraceGenerator

#: (scheme, app, requests, seed) — the paper's headliner plus the two
#: bracketing baselines, each on a different workload profile.
SESSIONS: Tuple[Tuple[str, str, int, int], ...] = (
    ("ESD", "gcc", 3000, 11),
    ("Baseline", "lbm", 2000, 12),
    ("DeWrite", "deepsjeng", 2500, 13),
)

ANNOUNCE = re.compile(r"serving on .*:(\d+)")


def spawn_server(workers: int) -> Tuple[subprocess.Popen, int]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
         "--workers", str(workers)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, text=True)
    assert proc.stdout is not None
    line = proc.stdout.readline()
    match = ANNOUNCE.match(line)
    if not match:
        proc.kill()
        out, err = proc.communicate()
        raise SystemExit(f"FAIL: no announce line (got {line!r}); "
                         f"stderr:\n{err}")
    return proc, int(match.group(1))


def direct_payload(scheme: str, trace: List, app: str) -> dict:
    engine = SimulationEngine(make_scheme(scheme, scaled_system_config()),
                              EngineConfig())
    result = engine.run(iter(trace), app=app, total_hint=len(trace))
    return {"summary": result.summary_row(),
            "state": result_to_state(result)}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workers", type=int, default=1,
                        help="engine workers of the spawned server "
                             "(default: 1, one engine thread in the "
                             "server process)")
    args = parser.parse_args()
    failures: List[str] = []
    proc, port = spawn_server(args.workers)
    try:
        for scheme, app, requests, seed in SESSIONS:
            trace = TraceGenerator(app, seed=seed).generate_list(requests)
            with ServeClient("127.0.0.1", port) as client:
                served = client.run_trace(
                    iter(trace), scheme, tenant=f"ci-{scheme}", app=app,
                    total_hint=len(trace))
            expected = direct_payload(scheme, trace, app)
            for part in ("summary", "state"):
                if served[part] != expected[part]:
                    failures.append(
                        f"{scheme}/{app}: served {part} != direct {part}")
            status = "ok" if served == expected else "MISMATCH"
            print(f"{scheme:10s} {app:10s} {requests:5d} requests: {status}")
        proc.send_signal(signal.SIGTERM)
        try:
            out, err = proc.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            out, err = proc.communicate()
            failures.append("server did not exit within 60s of SIGTERM")
        else:
            if proc.returncode != 0:
                failures.append(
                    f"server exited {proc.returncode} on SIGTERM; "
                    f"stderr:\n{err}")
            if "drained clean" not in out:
                failures.append(
                    f"no 'drained clean' notice; stdout:\n{out}")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 2
    print(f"serve smoke (workers={args.workers}): parity and clean "
          f"shutdown ok")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
