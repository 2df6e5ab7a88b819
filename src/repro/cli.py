"""Command-line interface mirroring the paper artifact's workflow.

The original artifact runs ``./nvmain.fast -ConfigFile=... -InputFile=<trace>
-cycles`` and then selects a scheme (0: Baseline, 1: Tra_sha1, 2: DeWrite,
3: ESD), emitting "statistics of state information for reads, writes,
energy, and latency".  This CLI reproduces that workflow over the Python
simulator:

    python -m repro.cli run --scheme ESD --app gcc --requests 20000
    python -m repro.cli run --scheme 3 --trace my.esdtrace
    python -m repro.cli run --scheme 3 --trace my.esdtrace \
        --checkpoint my.ckpt --checkpoint-every 100000
    python -m repro.cli run --scheme 3 --trace my.esdtrace --resume my.ckpt
    python -m repro.cli compare --app lbm --requests 15000
    python -m repro.cli gen-trace --app gcc --requests 5000 --out gcc.esdtrace
    python -m repro.cli figures --quick
    python -m repro.cli sweep --apps gcc,lbm --schemes ESD,Baseline \
        --jobs 8 --store .sweep_cache
    python -m repro.cli trace --scheme ESD --app gcc --out gcc.trace.jsonl
    python -m repro.cli report --scheme ESD --app gcc --format csv

Scheme selection accepts both the paper's numeric codes and names.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import fields
from typing import List, Optional

from itertools import islice

from .analysis.reporting import format_table
from .common.errors import CheckpointError, ConfigError, TraceFormatError
from .common.units import kib
from .dedup import make_scheme
from .registry import resolve_scheme_name, scheme_names
from .sim.engine import EngineConfig, SimulationEngine
from .sim.runner import run_app, scaled_system_config
from .workloads.adversarial import (
    PHASE_SHIFT_NAME,
    adversarial_stream,
    adversarial_stream_names,
    stream_instructions_per_access,
)
from .workloads.generator import TraceGenerator
from .workloads.profiles import (
    ADVERSARIAL_PROFILES,
    app_names,
    get_profile,
)
from .workloads.trace import (
    capture_trace,
    read_trace,
    read_trace_list,
    trace_record_count,
)


def resolve_scheme(token: str) -> str:
    """Accept the artifact's numeric codes ('0'..'3') or scheme names."""
    try:
        return resolve_scheme_name(token)
    except ValueError as exc:
        raise SystemExit(str(exc))


def _app_choices() -> List[str]:
    """The roster's 20 apps plus the adversarial stream profiles."""
    return app_names() + adversarial_stream_names()


def _system_config(args) -> "SystemConfig":
    config = scaled_system_config()
    if getattr(args, "efit_kb", None):
        config = config.with_metadata_cache(efit_bytes=kib(args.efit_kb))
    if getattr(args, "amt_kb", None):
        config = config.with_metadata_cache(amt_bytes=kib(args.amt_kb))
    return config


def _load_or_generate(args) -> List:
    if args.trace:
        return read_trace_list(args.trace)
    if args.app in adversarial_stream_names():
        return list(adversarial_stream(args.app, args.requests,
                                       seed=args.seed))
    return TraceGenerator(args.app, seed=args.seed).generate_list(
        args.requests)


def _instructions_per_access(args) -> int:
    """IPC-model density for the selected app (200 for replayed traces)."""
    if getattr(args, "trace", None):
        return 200
    if args.app in adversarial_stream_names():
        return stream_instructions_per_access(args.app)
    return get_profile(args.app).instructions_per_access


def _open_stream(args):
    """Open the run's request stream without materializing it.

    Returns ``(iterator, total_hint)``.  Trace replays stream chunk by
    chunk through :func:`read_trace`; generated workloads (roster or
    adversarial) stream straight from their generators.
    """
    if args.trace:
        try:
            total = trace_record_count(args.trace)
        except (OSError, TraceFormatError) as exc:
            raise SystemExit(f"cannot read trace {args.trace}: {exc}")
        return read_trace(args.trace), total
    if args.app in adversarial_stream_names():
        return (adversarial_stream(args.app, args.requests, seed=args.seed),
                args.requests)
    return (TraceGenerator(args.app, seed=args.seed).generate(args.requests),
            args.requests)


def _fmt_percentile(value: float) -> str:
    """Render a percentile; NaN (empty recorder) prints as ``n/a``."""
    return "n/a" if math.isnan(value) else f"{value:.1f}"


#: ``repro run --stop-after`` exit code: the run was deliberately
#: interrupted after writing a resumable checkpoint (distinct from 0
#: "completed" and 1/2 "failed").
EXIT_CHECKPOINT_STOP = 3


def _open_or_resume_session(args, scheme_name: str):
    """Build the run's session and stream, honouring ``--resume``.

    Returns ``(session, stream, processed)`` where ``processed`` records
    of the source stream have already been skipped.
    """
    stream, total = _open_stream(args)
    if not args.resume:
        scheme = make_scheme(scheme_name, _system_config(args))
        engine = SimulationEngine(scheme, EngineConfig())
        session = engine.open_session(
            app=args.app, total_hint=total,
            instructions_per_access=_instructions_per_access(args))
        return session, stream, 0

    from .sim.checkpoint import load_checkpoint
    try:
        restored = load_checkpoint(args.resume)
    except CheckpointError as exc:
        raise SystemExit(f"cannot resume from {args.resume}: {exc}")
    meta = restored.meta
    if meta.get("app") != args.app:
        raise SystemExit(
            f"checkpoint {args.resume} was taken on app "
            f"{meta.get('app')!r}; rerun with --app {meta.get('app')}")
    if meta.get("scheme") != scheme_name:
        raise SystemExit(
            f"checkpoint {args.resume} was taken with scheme "
            f"{meta.get('scheme')!r}, not {scheme_name!r}")
    taken, wanted = restored.session.config, _system_config(args)
    differing = [f.name for f in fields(wanted)
                 if getattr(taken, f.name) != getattr(wanted, f.name)]
    if differing:
        raise SystemExit(
            f"checkpoint {args.resume} was taken with a different system "
            f"configuration (differing fields: {', '.join(differing)}); "
            f"rerun with the original run's --efit-kb/--amt-kb flags")
    processed = restored.session.processed
    skipped = sum(1 for _ in islice(stream, processed))
    if skipped < processed:
        raise SystemExit(
            f"stream ends after {skipped} records but checkpoint "
            f"{args.resume} had processed {processed}; pass the same "
            f"--trace/--app/--requests/--seed as the original run")
    return restored.session, stream, processed


def cmd_run(args) -> int:
    """Run one scheme over one trace; print the artifact's statistics.

    Long runs can stream from a trace file in bounded memory, write
    periodic checkpoints (``--checkpoint PATH --checkpoint-every N``),
    deliberately stop early (``--stop-after M``, exit code 3), and later
    resume bit-exactly (``--resume PATH``).
    """
    scheme_name = resolve_scheme(args.scheme)
    every = args.checkpoint_every
    if every is not None and every <= 0:
        raise SystemExit("--checkpoint-every must be positive")
    if args.stop_after is not None and args.stop_after <= 0:
        raise SystemExit("--stop-after must be positive")
    if (every is not None or args.stop_after is not None) \
            and not args.checkpoint:
        raise SystemExit("--checkpoint-every/--stop-after need "
                         "--checkpoint PATH")

    session, stream, fed = _open_or_resume_session(args, scheme_name)
    stopped = False
    while True:
        budget = every
        if args.stop_after is not None:
            remaining = args.stop_after - fed
            if remaining <= 0:
                stopped = True
                break
            budget = remaining if budget is None else min(budget, remaining)
        chunk = stream if budget is None else islice(stream, budget)
        count = session.feed(chunk)
        fed += count
        if args.checkpoint:
            session.checkpoint(args.checkpoint)
        if budget is None or count < budget:
            break  # stream exhausted

    if stopped:
        print(f"stopped after {fed} requests; checkpoint written to "
              f"{args.checkpoint} (continue with --resume "
              f"{args.checkpoint})")
        return EXIT_CHECKPOINT_STOP

    result = session.finalize()
    if args.export_state:
        from .sim.export import result_state_bytes
        with open(args.export_state, "wb") as fh:
            fh.write(result_state_bytes(result))

    rows = [
        ["scheme", scheme_name],
        ["requests", fed],
        ["writes (recorded)", result.writes],
        ["reads (recorded)", result.reads],
        ["write reduction", f"{result.write_reduction:.1%}"],
        ["PCM data writes", result.pcm_data_writes],
        ["PCM metadata writes", result.pcm_metadata_writes],
        ["mean write latency (ns)", f"{result.mean_write_latency_ns:.1f}"],
        ["p99 write latency (ns)", _fmt_percentile(
            result.write_latency.percentile(99))],
        ["mean read latency (ns)", f"{result.mean_read_latency_ns:.1f}"],
        ["total energy (mJ)", f"{result.total_energy_nj / 1e6:.4f}"],
        ["IPC", f"{result.ipc:.3f}"],
    ]
    for key, value in sorted(result.extras.items()):
        rows.append([key, f"{value:.4f}"])
    print(format_table(["statistic", "value"], rows,
                       title=f"{args.app} under {scheme_name}"))
    return 0


def cmd_compare(args) -> int:
    """Run all four schemes on one application (paired trace)."""
    if args.app == PHASE_SHIFT_NAME:
        raise SystemExit(f"compare does not support the {PHASE_SHIFT_NAME} "
                         f"mix; use 'repro run --app {PHASE_SHIFT_NAME}'")
    evaluation = scheme_names()
    results = run_app(args.app, evaluation, requests=args.requests,
                      system=_system_config(args), seed=args.seed)
    base = results["Baseline"]
    rows = []
    for name in evaluation:
        r = results[name]
        rows.append([
            name,
            f"{r.write_reduction:.1%}",
            f"{base.mean_write_latency_ns / r.mean_write_latency_ns:.2f}x",
            f"{base.mean_read_latency_ns / r.mean_read_latency_ns:.2f}x",
            f"{r.total_energy_nj / base.total_energy_nj:.2f}",
            f"{r.ipc / base.ipc:.2f}x",
        ])
    print(format_table(
        ["scheme", "write_red", "write_speedup", "read_speedup",
         "energy_vs_base", "ipc_vs_base"],
        rows, title=f"Scheme comparison on {args.app} "
                    f"({args.requests} requests)"))
    return 0


def cmd_gen_trace(args) -> int:
    """Generate and persist a trace in the artifact's regulation format.

    Streams from the generator straight into the chunked v2 container
    without materializing the trace, so arbitrarily long captures run in
    bounded memory.
    """
    if args.app in adversarial_stream_names():
        trace = adversarial_stream(args.app, args.requests, seed=args.seed)
    else:
        trace = TraceGenerator(args.app, seed=args.seed).generate(
            args.requests)
    try:
        count = capture_trace(trace, args.out, compress=args.compress)
    except TraceFormatError as exc:
        raise SystemExit(f"gen-trace: {exc}")
    detail = "v2" + (", zlib" if args.compress else "")
    print(f"wrote {count} records for {args.app} to {args.out} ({detail})")
    return 0


def cmd_list_apps(_args) -> int:
    rows = []
    for app in app_names():
        p = get_profile(app)
        rows.append([app, p.suite, f"{p.duplicate_rate:.1%}",
                     f"{p.read_fraction:.0%}", p.working_set_lines])
    print(format_table(
        ["application", "suite", "dup_rate", "read_share", "ws_lines"],
        rows, title="Available applications (12 SPEC CPU 2017 + 8 PARSEC)"))
    adv_rows = []
    for p in ADVERSARIAL_PROFILES:
        adv_rows.append([p.name, p.suite, f"{p.duplicate_rate:.1%}",
                         f"{p.read_fraction:.0%}", p.working_set_lines])
    adv_rows.append([PHASE_SHIFT_NAME, "adversarial", "phased",
                     "phased", "phased"])
    print()
    print(format_table(
        ["stream", "suite", "dup_rate", "read_share", "ws_lines"],
        adv_rows, title="Adversarial stress streams (repro run --app ...)"))
    return 0


def cmd_figures(args) -> int:
    """Regenerate the paper's figures (a quick subset by default)."""
    from .analysis import experiments as ex
    requests = 6_000 if args.quick else 20_000
    apps = ["gcc", "deepsjeng", "lbm", "leela"] if args.quick else None
    print(ex.table1_configuration().render(), "\n")
    print(ex.fig1_duplicate_rate(apps=apps, requests=requests).render(), "\n")
    print(ex.fig3_content_locality(apps=apps, requests=requests).render(),
          "\n")
    grid = ex.run_evaluation_grid(
        apps or list(ex.REPRESENTATIVE_APPS), requests=requests)
    print(ex.fig11_write_reduction(grid).render(), "\n")
    print(ex.fig12_write_speedup(grid).render(), "\n")
    print(ex.fig13_read_speedup(grid).render(), "\n")
    print(ex.fig14_ipc(grid).render(), "\n")
    print(ex.fig16_energy(grid).render(), "\n")
    print(ex.fig17_latency_profile(grid).render(), "\n")
    print(ex.fig19_metadata_overhead(grid=grid,
                                     app=(apps or ["gcc"])[0]).render())
    return 0


def _parse_sweep_apps(token: str) -> List[str]:
    if token == "all":
        return list(app_names())
    apps = [t.strip() for t in token.split(",") if t.strip()]
    unknown = [a for a in apps if a not in app_names()]
    if unknown:
        raise SystemExit(f"unknown application(s) {unknown}; "
                         f"known: {', '.join(app_names())}")
    if not apps:
        raise SystemExit("--apps must name at least one application")
    return apps


def _parse_sweep_schemes(token: str) -> List[str]:
    if token == "all":
        return list(scheme_names())
    schemes = [resolve_scheme(t.strip())
               for t in token.split(",") if t.strip()]
    if not schemes:
        raise SystemExit("--schemes must name at least one scheme")
    # Preserve order, drop duplicates (e.g. "3,ESD").
    return list(dict.fromkeys(schemes))


def _resolve_execution_backend(args):
    """Validate ``--backend`` and build the configured backend.

    Unknown names exit listing the registered backends (same style as the
    unknown-scheme errors), before any simulation has run.
    """
    from .sweep import execution_backend_names, make_execution_backend

    if args.backend not in execution_backend_names():
        raise SystemExit(
            f"unknown execution backend {args.backend!r}; registered "
            f"backends: {', '.join(execution_backend_names())}")
    if args.backend == "queue":
        return make_execution_backend("queue", lease_s=args.lease)
    return args.backend


def cmd_sweep(args) -> int:
    """Orchestrated parallel grid run with a persistent result store."""
    from .sim.export import write_json
    from .sim.metrics import SUMMARY_METRICS
    from .sim.runner import ExperimentConfig, grid_metric
    from .common.errors import SweepError
    from .sweep import run_sweep

    # Validate the metric before any simulation runs: a typo'd metric name
    # must not cost a full grid sweep.
    if args.metric not in SUMMARY_METRICS:
        raise SystemExit(f"unknown metric {args.metric!r}; known metrics: "
                         f"{', '.join(SUMMARY_METRICS)}")
    if args.jobs is not None and args.jobs <= 0:
        raise SystemExit("--jobs must be positive")
    if args.timeout <= 0:
        raise SystemExit("--timeout must be positive")
    if args.retries < 0:
        raise SystemExit("--retries must be non-negative")
    if args.lease <= 0:
        raise SystemExit("--lease must be positive")
    # Backend names are validated up front (before any simulation) and the
    # error lists what IS registered, mirroring the unknown-scheme errors.
    backend = _resolve_execution_backend(args)
    if args.backend == "queue" and args.store is None:
        raise SystemExit("--backend queue needs --store (workers coordinate "
                         "through the shared result store)")
    apps = _parse_sweep_apps(args.apps)
    schemes = _parse_sweep_schemes(args.schemes)
    config = ExperimentConfig(apps=apps, schemes=schemes,
                              requests_per_app=args.requests,
                              system=_system_config(args), seed=args.seed)
    try:
        grid = run_sweep(config, jobs=args.jobs, store=args.store,
                         job_timeout_s=args.timeout, retries=args.retries,
                         progress=not args.quiet, backend=backend)
    except SweepError as exc:
        raise SystemExit(f"sweep failed: {exc}")

    pivot = grid_metric(grid, args.metric)
    rows = [[app] + [pivot[app][scheme] for scheme in schemes]
            for app in apps]
    print(format_table(
        ["application"] + list(schemes), rows,
        title=f"{args.metric} over {len(apps)} apps x "
              f"{len(schemes)} schemes ({args.requests} requests)",
        float_format="{:.4f}"))
    if args.export:
        write_json(grid, args.export)
        print(f"wrote grid JSON to {args.export}")
    return 0


def cmd_worker(args) -> int:
    """Serve a shared result store's work queue until it drains.

    Any number of workers — across processes and hosts sharing the store
    — can serve one sweep; the lease protocol guarantees each job is
    claimed by exactly one live worker at a time, and jobs of workers
    that die are reclaimed after their lease expires.
    """
    from .common.errors import SweepError
    from .sweep import worker_loop

    if args.lease <= 0:
        raise SystemExit("--lease must be positive")
    if args.poll <= 0:
        raise SystemExit("--poll must be positive")
    if args.retries < 0:
        raise SystemExit("--retries must be non-negative")
    if args.max_jobs is not None and args.max_jobs <= 0:
        raise SystemExit("--max-jobs must be positive")
    log = None if args.quiet else (
        lambda line: print(line, file=sys.stderr, flush=True))
    try:
        completed = worker_loop(
            args.store, worker_id=args.worker_id,
            lease_s=args.lease, poll_s=args.poll, retries=args.retries,
            max_jobs=args.max_jobs, wait=args.wait, log=log)
    except KeyboardInterrupt:
        print("worker interrupted", file=sys.stderr)
        return 130
    except SweepError as exc:
        raise SystemExit(f"worker failed: {exc}")
    print(f"worker done: {completed} job(s) completed")
    return 0


def _run_observed(args) -> "SimulationResult":
    """Run one scheme x app with the observability layer enabled."""
    scheme_name = resolve_scheme(args.scheme)
    trace = _load_or_generate(args)
    config = _system_config(args).with_observability(
        enabled=True, trace_capacity=args.capacity,
        sample_every=args.sample_every)
    scheme = make_scheme(scheme_name, config)
    engine = SimulationEngine(scheme, EngineConfig())
    return engine.run(
        iter(trace), app=args.app, total_hint=len(trace),
        instructions_per_access=_instructions_per_access(args))


def cmd_trace(args) -> int:
    """Run one scheme with tracing on; export the event ring as JSONL."""
    from .obs.export import write_trace_jsonl
    from .obs.tracing import TraceEvent

    result = _run_observed(args)
    report = result.obs
    assert report is not None  # observability was enabled above
    events = [TraceEvent.from_dict(e) for e in report["trace"]]
    if args.out:
        count = write_trace_jsonl(events, args.out)
        stats = report["trace_stats"]
        print(f"wrote {count} events to {args.out} "
              f"(recorded {stats['recorded']}, dropped {stats['dropped']}, "
              f"capacity {stats['capacity']})")
    else:
        write_trace_jsonl(events, sys.stdout)
    return 0


def cmd_report(args) -> int:
    """Run one scheme with metrics on; export the registry snapshot."""
    import json as _json

    from .obs.export import metrics_to_csv

    result = _run_observed(args)
    report = result.obs
    assert report is not None  # observability was enabled above
    if args.format == "csv":
        payload = metrics_to_csv(report["metrics"])
    else:
        payload = _json.dumps(
            {"obs_schema_version": report["obs_schema_version"],
             "app": result.app, "scheme": result.scheme,
             "metrics": report["metrics"],
             "trace_stats": report["trace_stats"]},
            indent=2, sort_keys=True) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(payload)
        print(f"wrote {len(report['metrics'])} instruments to {args.out}")
    else:
        sys.stdout.write(payload)
    return 0


def cmd_serve(args) -> int:
    """Run the dedup-as-a-service front end until SIGTERM/SIGINT."""
    from .serve import ServeConfig, run_server
    from .serve.config import resolve_workers

    try:
        workers = resolve_workers(args.workers)
    except ConfigError as exc:
        raise SystemExit(f"repro serve: {exc}") from exc
    serve_config = ServeConfig(
        host=args.host, port=args.port, workers=workers,
        max_sessions=args.max_sessions, queue_limit=args.queue_limit,
        retry_after_ms=args.retry_after_ms,
        drain_grace_s=args.drain_grace)

    def _announce(server) -> None:
        # Machine-parsed by tests/CI to discover an ephemeral port —
        # keep the format stable.
        print(f"serving on {args.host}:{server.port}", flush=True)

    code = run_server(serve_config, EngineConfig(),
                      _system_config(args), announce=_announce)
    print("drained clean" if code == 0 else "drain aborted stragglers",
          flush=True)
    return code


def cmd_validate(args) -> int:
    """Run the reproduction self-check; exit non-zero on failed claims."""
    from .analysis.validation import render_validation, validate
    results = validate(requests=args.requests)
    print(render_validation(results))
    return 0 if all(r.passed for r in results) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--app", default="gcc", choices=_app_choices(),
                       help="application profile or adversarial stream "
                            "(default: gcc)")
        p.add_argument("--requests", type=int, default=20_000,
                       help="trace length (default: 20000)")
        p.add_argument("--seed", type=int, default=2023)
        p.add_argument("--efit-kb", type=int, default=None,
                       help="EFIT / fingerprint cache size in KB")
        p.add_argument("--amt-kb", type=int, default=None,
                       help="AMT / mapping cache size in KB")

    run_p = sub.add_parser("run", help="run one scheme over one trace")
    add_common(run_p)
    run_p.add_argument("--scheme", default="3",
                       help="0|1|2|3 or Baseline|Dedup_SHA1|DeWrite|ESD")
    run_p.add_argument("--trace", default=None,
                       help="replay a serialized trace instead of generating")
    run_p.add_argument("--checkpoint", default=None, metavar="PATH",
                       help="write resumable checkpoints to this path")
    run_p.add_argument("--checkpoint-every", type=int, default=None,
                       metavar="N",
                       help="checkpoint after every N requests (needs "
                            "--checkpoint)")
    run_p.add_argument("--stop-after", type=int, default=None, metavar="M",
                       help="stop after M requests with a final checkpoint "
                            "and exit code 3 (needs --checkpoint)")
    run_p.add_argument("--resume", default=None, metavar="PATH",
                       help="resume bit-exactly from a checkpoint written "
                            "by an identical earlier run")
    run_p.add_argument("--export-state", default=None, metavar="PATH",
                       help="also write the result's canonical full-state "
                            "JSON (the bit-exactness currency)")
    run_p.set_defaults(func=cmd_run)

    cmp_p = sub.add_parser("compare", help="all four schemes, one app")
    add_common(cmp_p)
    cmp_p.set_defaults(func=cmd_compare)

    gen_p = sub.add_parser("gen-trace", help="write a trace file")
    add_common(gen_p)
    gen_p.add_argument("--out", required=True, help="output path")
    gen_p.add_argument("--compress", action="store_true",
                       help="zlib-compress v2 chunk payloads")
    gen_p.set_defaults(func=cmd_gen_trace)

    list_p = sub.add_parser("list-apps", help="list application profiles")
    list_p.set_defaults(func=cmd_list_apps)

    fig_p = sub.add_parser("figures", help="regenerate the paper's figures")
    fig_p.add_argument("--quick", action="store_true",
                       help="4 apps / short traces")
    fig_p.set_defaults(func=cmd_figures)

    sweep_p = sub.add_parser(
        "sweep", help="parallel grid run with a resumable result store")
    sweep_p.add_argument("--apps", default="all",
                         help="comma-separated applications, or 'all'")
    sweep_p.add_argument("--schemes", default="all",
                         help="comma-separated schemes (names or 0-3 codes), "
                              "or 'all'")
    sweep_p.add_argument("--requests", type=int, default=20_000,
                         help="trace length per application (default: 20000)")
    sweep_p.add_argument("--seed", type=int, default=2023)
    sweep_p.add_argument("--efit-kb", type=int, default=None,
                         help="EFIT / fingerprint cache size in KB")
    sweep_p.add_argument("--amt-kb", type=int, default=None,
                         help="AMT / mapping cache size in KB")
    sweep_p.add_argument("--jobs", type=int, default=None,
                         help="worker processes (default: cpu count)")
    sweep_p.add_argument("--store", default=None,
                         help="result store file (SQLite; a path or "
                              "sqlite://<path>); re-runs resume from it "
                              "(cache hit = no simulation)")
    sweep_p.add_argument("--backend", default="pool",
                         help="execution backend: pool (local process "
                              "pool) or queue (lease-based work queue "
                              "shared with 'repro worker' processes)")
    sweep_p.add_argument("--lease", type=float, default=15.0,
                         help="queue backend: lease TTL in seconds before "
                              "a dead worker's job is reclaimed")
    sweep_p.add_argument("--timeout", type=float, default=600.0,
                         help="per-job wall-clock budget in seconds")
    sweep_p.add_argument("--retries", type=int, default=2,
                         help="extra attempts per job after a worker crash")
    sweep_p.add_argument("--metric", default="write_latency_ns",
                         help="summary metric for the printed pivot table")
    sweep_p.add_argument("--export", default=None,
                         help="also write the grid as JSON to this path")
    sweep_p.add_argument("--quiet", action="store_true",
                         help="suppress live progress lines")
    sweep_p.set_defaults(func=cmd_sweep)

    worker_p = sub.add_parser(
        "worker", help="serve a shared result store's sweep work queue")
    worker_p.add_argument("--store", required=True,
                          help="shared result store file (SQLite; a "
                               "path or sqlite://<path>)")
    worker_p.add_argument("--worker-id", default=None,
                          help="lease-ownership identity (default: "
                               "host-pid-random)")
    worker_p.add_argument("--lease", type=float, default=15.0,
                          help="lease TTL in seconds (renewed at TTL/3)")
    worker_p.add_argument("--poll", type=float, default=0.25,
                          help="queue scan backoff in seconds")
    worker_p.add_argument("--retries", type=int, default=2,
                          help="extra attempts per job before its failure "
                               "is recorded")
    worker_p.add_argument("--max-jobs", type=int, default=None,
                          help="stop after completing this many jobs")
    worker_p.add_argument("--wait", action="store_true",
                          help="keep polling after the queue drains "
                               "(serve sweeps that arrive later)")
    worker_p.add_argument("--quiet", action="store_true",
                          help="suppress per-job progress lines")
    worker_p.set_defaults(func=cmd_worker)

    def add_obs_common(p):
        add_common(p)
        p.add_argument("--scheme", default="3",
                       help="0|1|2|3 or Baseline|Dedup_SHA1|DeWrite|ESD")
        p.add_argument("--trace", default=None,
                       help="replay a serialized trace instead of generating")
        p.add_argument("--capacity", type=int, default=4096,
                       help="trace ring capacity (default: 4096)")
        p.add_argument("--sample-every", type=int, default=1,
                       help="record every Nth request (default: 1)")
        p.add_argument("--out", default=None,
                       help="output path (default: stdout)")

    trace_p = sub.add_parser(
        "trace", help="run with tracing on; export events as JSONL")
    add_obs_common(trace_p)
    trace_p.set_defaults(func=cmd_trace)

    report_p = sub.add_parser(
        "report", help="run with metrics on; export the registry snapshot")
    add_obs_common(report_p)
    report_p.add_argument("--format", default="json",
                          choices=("json", "csv"),
                          help="report format (default: json)")
    report_p.set_defaults(func=cmd_report)

    serve_p = sub.add_parser(
        "serve", help="run the dedup-as-a-service ingestion front end")
    serve_p.add_argument("--host", default="127.0.0.1",
                         help="bind address (default: 127.0.0.1)")
    serve_p.add_argument("--port", type=int, default=0,
                         help="bind port; 0 picks an ephemeral port and "
                              "prints it (default: 0)")
    serve_p.add_argument("--workers", type=int, default=None,
                         help="engine worker processes; 1 = in-process "
                              "engine, N>1 = N spawned workers with "
                              "tenant-hash session affinity (default: "
                              "$REPRO_SERVE_WORKERS or 1)")
    serve_p.add_argument("--max-sessions", type=int, default=8,
                         help="concurrent session cap (default: 8)")
    serve_p.add_argument("--queue-limit", type=int, default=8192,
                         help="per-session ingest queue bound in requests "
                              "(default: 8192)")
    serve_p.add_argument("--retry-after-ms", type=int, default=25,
                         help="suggested client backoff on backpressure "
                              "(default: 25)")
    serve_p.add_argument("--drain-grace", type=float, default=30.0,
                         help="seconds to wait for in-flight sessions on "
                              "SIGTERM before aborting them (default: 30)")
    serve_p.set_defaults(func=cmd_serve)

    val_p = sub.add_parser("validate",
                           help="self-check the paper's headline claims")
    val_p.add_argument("--requests", type=int, default=8_000)
    val_p.set_defaults(func=cmd_validate)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # Downstream pager/head closed the pipe; exit quietly.
        try:
            sys.stdout.close()
        except Exception:
            pass
        return 0


if __name__ == "__main__":
    sys.exit(main())
