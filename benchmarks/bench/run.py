#!/usr/bin/env python3
"""The repository benchmark: four workloads, end-to-end and per-layer metrics.

One workload, measured for ``--seconds`` (whole rounds, at least the
workload's minimum), in this interpreter::

    python3 benchmarks/bench/run.py --workload grid-paper --seed 7 \\
        --seconds 22 --trace 0

Every workload, each in a fresh interpreter::

    python3 benchmarks/bench/run.py --seed 7

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``.  Their
times are reference seconds: host seconds divided by the host's slowdown,
which a fixed probe measures around every timed unit (``drivers.HostClock``).
``--trace 1`` first runs one untraced reference round, then installs the
layer tracer (``layers.py``) and reports the per-layer split, the cache
ratios and ``trace_overhead`` (traced / untraced wall per request); the
sampled span trees go to the ``--out`` JSON (default
``.bench_runs/<workload>-seed<N>-trace.json``).

Human-readable lines come first; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
Exit status: 0 when every output check holds, 2 when one fails (a pinned
summary-row digest mismatches, two rounds differ, a served session
differs from its golden, a cached sweep re-run simulates anything, the
server does not drain cleanly, or tracing changed a result), 1 on an
error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from drivers import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
GOLDEN = HERE / "golden.json"
RUNS_DIR = ROOT / ".bench_runs"

#: A reported metric: (value, unit, sample count).
Metric = Tuple[float, str, int]

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 9

#: End-to-end metrics (``--trace 0``): name -> unit.
END_TO_END = {
    "setup_s": "s",
    "req_per_s": "1/s",
    "cpu_us_per_req": "us",
    "peak_rss_mib": "MiB",
}

#: Layers whose self time, share and calls are contract metrics: the ones
#: every workload exercises.  ``serve`` and ``sweep`` (zero outside their
#: workload), the untimed ``perf`` and ``vec`` (whose epoch priming is
#: due to be deleted, after which it reads zero on every run) appear in
#: the detailed report only.
CONTRACT_LAYERS = ("workloads", "sim", "dedup", "core", "ecc", "crypto",
                   "nvmm", "other")

#: Ratios reported with the per-layer split: name -> unit.
RATIOS = {
    "core.efit_hit_rate": "fraction",
    "core.amt_hit_rate": "fraction",
    "perf.memo_hit_ratio": "fraction",
    "nvmm.pcm_writes_per_req": "ratio",
    "trace_overhead": "ratio",
}


def per_layer_units() -> Dict[str, str]:
    """Per-layer metrics (``--trace 1``): name -> unit."""
    units: Dict[str, str] = {}
    for layer in CONTRACT_LAYERS:
        units[f"{layer}.share"] = "fraction"
        units[f"{layer}.self_s"] = "s"
        if layer != "other":
            units[f"{layer}.calls"] = "count"
    units.update(RATIOS)
    return units


def rows_digest(rows: Dict[str, Dict[str, float]]) -> str:
    """sha256 of the canonical ``{"app/scheme": summary_row()}`` JSON."""
    text = json.dumps(rows, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def tail(samples: Sequence[float]) -> Optional[Tuple[int, float]]:
    """(percentile, value) of the highest whole percentile with at least
    ten samples beyond it; ``None`` below 20 samples."""
    n = len(samples)
    if n < 20:
        return None
    level = math.floor(100 * (n - 10) / n)
    ordered = sorted(samples)
    index = min(n - 1, max(0, math.ceil(level / 100 * n) - 1))
    return level, ordered[index]


def cache_ratios(m: Any) -> Dict[str, float]:
    """EFIT/AMT hit rates, memo hit ratio and PCM writes per request."""
    def mean_of(key: str) -> float:
        values = [e[key] for e in m.extras if key in e]
        return sum(values) / len(values) if values else 0.0

    hits = sum(v for e in m.extras for k, v in e.items()
               if k.startswith("memo_") and k.endswith("_hits"))
    misses = sum(v for e in m.extras for k, v in e.items()
                 if k.startswith("memo_") and k.endswith("_misses"))
    return {
        "core.efit_hit_rate": mean_of("efit_hit_rate"),
        "core.amt_hit_rate": mean_of("amt_hit_rate"),
        "perf.memo_hit_ratio": hits / (hits + misses) if hits else 0.0,
        "nvmm.pcm_writes_per_req": m.pcm_writes / m.requests,
    }


def _peak_rss_kib() -> int:
    return max(resource.getrusage(who).ru_maxrss
               for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))


def _golden(workload: str, seed: int, scale: float) -> Optional[str]:
    if scale != 1.0:
        return None
    pinned = json.loads(GOLDEN.read_text())["digests"].get(workload, {})
    return pinned.get(str(seed))


def run_workload(args: argparse.Namespace) -> int:
    RUNS_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-",
                                    dir=RUNS_DIR))
    workload = WORKLOADS[args.workload](args.seed, args.scale, workdir)
    report: Dict[str, Any] = {"workload": args.workload, "seed": args.seed,
                              "scale": args.scale, "seconds": args.seconds,
                              "trace": args.trace, "op": workload.op}
    try:
        if args.trace:
            metrics, m = _traced(workload, args, report)
        else:
            metrics, m = _untraced(workload, args, report)
    finally:
        workload.close()
        shutil.rmtree(workdir, ignore_errors=True)

    digest = rows_digest(m.rows)
    pinned = _golden(args.workload, args.seed, args.scale)
    if pinned is not None:
        m.check("digest_matches_golden", digest == pinned)
    report.update(digest=digest, digest_status=(
        "unchecked" if pinned is None
        else "match" if digest == pinned else "MISMATCH"),
        checks=m.checks, detail=m.detail, rounds=m.rounds, units=m.units,
        attempted=m.attempted, failed=m.failed, rows=m.rows)
    correct = all(m.checks.values())

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}"
          f"  rounds {m.rounds}  op: {workload.op}")
    for name, (value, unit, n) in metrics.items():
        print(f"  {name:<26} {value:>14.6g} {unit:<9} n={n}")
    for name, value in sorted(m.detail.items()):
        print(f"  {name:<26} {value:>14.6g}  (detail)")
    print(f"  op p50{'':<21} {statistics.median(m.ops_s) * 1e3:>14.6g} ms"
          f"        n={len(m.ops_s)}")
    op_tail = tail(m.ops_s)
    if op_tail is not None:
        print(f"  op p{op_tail[0]:<23} {op_tail[1] * 1e3:>14.6g} ms"
              f"        n={len(m.ops_s)}")
    print(f"  error_rate {m.failed}/{m.attempted}")
    for name, ok in sorted(m.checks.items()):
        print(f"  check {name}: {'ok' if ok else 'FAILED'}")
    print(f"  digest: {report['digest_status']} ({digest[:16]})")

    result = {"correct": correct, "attempted": m.attempted,
              "failed": m.failed,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit, _) in metrics.items()}}
    report["result"] = result
    out = args.out
    if out is None and args.trace:
        out = RUNS_DIR / f"{args.workload}-seed{args.seed}-trace.json"
    if out is not None:
        Path(out).write_text(json.dumps(report, indent=1, sort_keys=True))
        print(f"  report: {out}")
    if args.record is not None:
        with open(args.record, "a") as fh:
            fh.write(json.dumps(dict(result, workload=args.workload,
                                     seed=args.seed, trace=args.trace)) + "\n")
    print(json.dumps(result))
    return 0 if correct else 2


def _untraced(workload: Any, args: argparse.Namespace,
              report: Dict[str, Any]) -> Tuple[Dict[str, Metric], Any]:
    clock = workload.clock
    clock.warm_up()
    setups: List[float] = []
    for repeat in range(SETUP_REPEATS):
        if repeat:
            workload.close()  # tear down the previous set-up, untimed
        with clock.unit() as unit:
            workload.setup()
        setups.append(unit.wall_s / unit.slowdown)
    m = workload.measure(args.seconds, workload.min_rounds)
    workload.finish(m)
    rate, cpu_per_req = m.unit_rates()
    m.detail.update(host_slowdown=clock.slowdown(),
                    host_req_per_s=m.unit_rates(scaled=False)[0])
    report["setups_s"] = setups
    report["probes_s"] = clock.probes
    report["ops_s"] = m.ops_s
    rss_kib = max(_peak_rss_kib(), m.child_maxrss_kib)
    return {
        "setup_s": (statistics.median(setups), "s", len(setups)),
        "req_per_s": (rate, "1/s", m.rounds),
        "cpu_us_per_req": (cpu_per_req * 1e6, "us", m.rounds),
        "peak_rss_mib": (rss_kib / 1024.0, "MiB", 1),
    }, m


def _traced(workload: Any, args: argparse.Namespace,
            report: Dict[str, Any]) -> Tuple[Dict[str, Metric], Any]:
    from layers import Tracer, summarize

    workload.clock.warm_up()
    workload.setup()
    reference = workload.measure(0.0, 1)
    tracer = Tracer()
    try:
        statuses = tracer.install()
        workload.start_tracing(tracer)
        m = workload.measure(args.seconds, 1, tracer.root)
    finally:
        tracer.uninstall()
    workload.finish(m)
    m.check("traced_rows_match_untraced", m.rows == reference.rows)
    snapshots = [tracer.snapshot()] + m.snapshots
    layers = summarize(snapshots)
    overhead = reference.unit_rates()[0] / m.unit_rates()[0]
    ratios = dict(cache_ratios(m), trace_overhead=overhead)
    share_sum = sum(row["share"] for row in layers.values())
    m.check("layer_shares_sum_to_one", abs(share_sum - 1.0) <= 0.01)
    report.update(layers=layers, ratios=ratios, targets=statuses,
                  span_samples=[s for snap in snapshots
                                for s in snap["samples"]],
                  reference_wall_s=reference.wall_s, traced_wall_s=m.wall_s)
    for layer, row in layers.items():
        print(f"  layer {layer:<10} self {row['self_s']:>10.4f} s  share "
              f"{row['share']:>7.2%}  calls {row['calls']:>10}  "
              f"{row['status']}")
    units = per_layer_units()
    metrics: Dict[str, Metric] = {}
    for name, unit in units.items():
        layer, _, kind = name.partition(".")
        if name in ratios:
            metrics[name] = (ratios[name], unit, m.requests)
        else:
            metrics[name] = (layers[layer][kind], unit,
                             layers[layer]["calls"])
    return metrics, m


def run_all(args: argparse.Namespace) -> int:
    """Every workload in its own interpreter; their results as one line."""
    status = 0
    summary: Dict[str, Any] = {}
    for name in WORKLOADS:
        command = [sys.executable, str(Path(__file__).resolve()),
                   "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds),
                   "--trace", str(args.trace), "--scale", str(args.scale)]
        if args.record is not None:
            command += ["--record", str(args.record)]
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=900)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode not in (0, 2) or not lines:
            print(f"{name}: exited with code {proc.returncode}",
                  file=sys.stderr)
            status = max(status, 1)
            continue
        if proc.returncode == 2:
            status = 2
        summary[name] = json.loads(lines[-1])
    print(json.dumps(summary))
    return status


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=list(WORKLOADS),
                        help="run one workload here (default: all, each in "
                             "a fresh interpreter)")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=22.0,
                        help="measure whole rounds for at least this long")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="1: per-layer traced run")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="workload size factor (tests only; digests "
                             "are pinned at 1)")
    parser.add_argument("--record", type=Path, default=None,
                        help="append each run's result line to this JSONL "
                             "file (input of compare.py)")
    parser.add_argument("--out", type=Path, default=None,
                        help="write the detailed JSON report here")
    args = parser.parse_args(argv)
    if args.scale <= 0 or args.seconds < 0:
        parser.error("--scale must be positive, --seconds non-negative")
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"benchmark: no simulator sources at {SRC}", file=sys.stderr)
        return 1
    sys.path.insert(0, str(SRC))
    if args.workload is None:
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    raise SystemExit(main())
