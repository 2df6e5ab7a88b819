"""Self-tests of the benchmark: workloads, layer tracer, compare rule.

    PYTHONPATH=src python -m pytest benchmarks/bench -q
"""

from __future__ import annotations

import gc
import json
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import compare
import drivers
import layers
from layers import Tracer, summarize

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


# ----------------------------------------------------------------------
# Every workload emits every metric, with its unit
# ----------------------------------------------------------------------

@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_emits_every_metric(workload, trace, tmp_path):
    out = tmp_path / "report.json"
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "0", "--scale", "0.02",
         "--trace", str(trace), "--out", str(out)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in expected} == {
        name: metric["unit"] for name, metric in result["metrics"].items()}
    values = {name: metric["value"]
              for name, metric in result["metrics"].items()}
    report = json.loads(out.read_text())
    assert report["digest_status"] == "unchecked"  # not pinned at this scale
    if not trace:
        assert all(value > 0 for value in values.values()), values
        return
    assert set(report["layers"]) == set(layers.LAYERS)
    shares = sum(row["share"] for row in report["layers"].values())
    assert shares == pytest.approx(1.0, abs=0.01)
    assert report["span_samples"], "no sampled span trees written"
    # Deleted code reads ``absent``; a layer that resolved must have run.
    assert {row["status"] for row in report["targets"]} <= {"ok", "absent"}
    for name, value in values.items():
        layer, _, kind = name.partition(".")
        if kind in ("self_s", "share", "calls"):
            live = report["layers"][layer]["status"] == "ok"
            assert value > 0 if live else value == 0, name
        else:
            assert value >= 0, name
    assert values["trace_overhead"] > 0


# ----------------------------------------------------------------------
# Host clock: units timed in reference seconds
# ----------------------------------------------------------------------

class ScriptedClock(drivers.HostClock):
    """A host clock whose probes take the scripted times."""

    def __init__(self, probe_times):
        super().__init__()
        self._times = iter(probe_times)

    def probe(self):
        took = next(self._times)
        self.probes.append(took)
        self._last = took
        return took


def test_host_clock_divides_units_by_the_host_slowdown():
    ref, power = drivers.REFERENCE_PROBE_S, drivers.SLOWDOWN_EXPONENT
    # First unit: probes 3x and 1x the reference (probe slowdown 2);
    # second unit: probes 1x and 0.5x (0.75).  The probe after a unit is
    # the probe before the next.
    clock = ScriptedClock([3 * ref, ref, 0.5 * ref])
    slowdowns = [2.0 ** power, 0.75 ** power]
    m = drivers.Measurement()
    for host_wall in slowdowns:  # one reference second each
        with clock.unit() as unit:
            pass
        unit.wall_s, unit.cpu_s = host_wall, host_wall / 2
        m.add_unit("row", 100, unit)
    assert [u[2] for u in m.units["row"]] == pytest.approx(slowdowns)
    assert m.unit_rates() == (pytest.approx(100.0), pytest.approx(0.005))
    assert m.unit_rates(scaled=False)[0] == pytest.approx(
        200 / sum(slowdowns))
    assert m.requests == 200
    assert clock.slowdown() == pytest.approx(1.5)  # mean of 3, 1, 0.5


def test_probe_is_fixed_work_with_the_collector_restored():
    assert drivers.probe_kernel(2000) == drivers.probe_kernel(2000)
    clock = drivers.HostClock()
    clock.warm_up(probes=1)
    assert clock.probes == [] and gc.isenabled()
    clock.probe()
    assert len(clock.probes) == 1 and clock.probes[0] > 0


# ----------------------------------------------------------------------
# Layer tracer: exact self-time arithmetic
# ----------------------------------------------------------------------

class FakeClock:
    """Per-thread time that only moves when the code under test says."""

    def __init__(self) -> None:
        self._local = threading.local()

    def __call__(self) -> float:
        return getattr(self._local, "now", 0.0)

    def advance(self, seconds: float) -> None:
        self._local.now = self() + seconds


def _nested(tracer: Tracer, clock: FakeClock):
    def inner():
        clock.advance(3.0)

    inner_span = tracer.wrap(inner, "test.inner", layer="ecc")

    def outer():
        clock.advance(1.0)
        inner_span()
        clock.advance(2.0)

    return tracer.wrap(outer, "test.outer", layer="core")


def test_nested_spans_self_time_is_exact():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    outer = _nested(tracer, clock)
    with tracer.root():
        clock.advance(0.5)
        outer()
        clock.advance(0.25)
    result = summarize([tracer.snapshot()])
    assert result["core"]["self_s"] == 3.0
    assert result["ecc"]["self_s"] == 3.0
    assert result["other"]["self_s"] == 0.75
    assert (result["core"]["calls"], result["ecc"]["calls"]) == (1, 1)
    assert result["core"]["share"] == 3.0 / 6.75
    assert sum(r["share"] for r in result.values()) == pytest.approx(1.0)


def test_generator_spans_time_each_next():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def produce(count):
        for item in range(count):
            clock.advance(2.0)
            yield item

    produce_span = tracer.wrap(produce, "test.produce", layer="workloads")

    def consume():
        for _ in produce_span(3):
            clock.advance(1.0)

    consume_span = tracer.wrap(consume, "test.consume", layer="sim")
    with tracer.root():
        consume_span()
    result = summarize([tracer.snapshot()])
    assert result["workloads"]["self_s"] == 6.0
    assert result["workloads"]["calls"] == 4  # three items + the exhaustion
    assert result["sim"]["self_s"] == 3.0
    assert result["other"]["self_s"] == 0.0


def test_two_threads_sum_their_self_times():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    outer = _nested(tracer, clock)

    def drive(extra):
        with tracer.root():
            outer()
            clock.advance(extra)

    threads = [threading.Thread(target=drive, args=(extra,))
               for extra in (1.0, 4.0)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=30)
        assert not thread.is_alive()
    result = summarize([tracer.snapshot()])
    assert result["core"]["self_s"] == 6.0
    assert result["ecc"]["self_s"] == 6.0
    assert result["other"]["self_s"] == 5.0
    assert result["other"]["calls"] == 2
    assert sum(r["share"] for r in result.values()) == pytest.approx(1.0)


def test_sampled_request_trees_link_parents():
    clock = FakeClock()
    tracer = Tracer(clock=clock, sample_every=2)
    outer = _nested(tracer, clock)

    def handle():
        outer()

    request = tracer.wrap(handle, "test.handle", layer="dedup", request=True)
    with tracer.root():
        for _ in range(4):
            request()
    samples = tracer.snapshot()["samples"]
    roots = [s for s in samples if s["function"].endswith("handle")]
    assert len(roots) == 2  # requests 1 and 3 of 4
    by_id = {s["id"]: s for s in samples}
    for span in samples:
        if span not in roots:
            assert span["parent"] in by_id
        assert span["end"] >= span["start"]
    assert len(samples) == 2 * 3


# ----------------------------------------------------------------------
# Layer tracer: targets resolved by dotted name
# ----------------------------------------------------------------------

def test_missing_targets_report_absent():
    tracer = Tracer()
    try:
        statuses = tracer.install([
            "repro.no_such_module.func",
            "repro.sim.session.Session.no_such_method",
            "repro.vec.epoch.NoSuchClass.*",
        ])
    finally:
        tracer.uninstall()
    absent = {row["target"] for row in statuses if row["status"] == "absent"}
    assert absent == {"repro.no_such_module.func",
                      "repro.sim.session.Session.no_such_method",
                      "repro.vec.epoch.NoSuchClass.*"}
    result = summarize([tracer.snapshot()])
    assert result["vec"]["status"] == "absent"
    assert result["vec"]["calls"] == 0


def test_install_rebinds_every_binding_site_and_keeps_results():
    import repro.core.esd
    import repro.ecc.codec
    from repro.sim.runner import run_app, scaled_system_config

    original = repro.ecc.codec.line_ecc

    def rows():
        results = run_app("gcc", ["ESD", "DeWrite"], requests=600,
                          system=scaled_system_config(), seed=7)
        return {name: r.summary_row() for name, r in results.items()}

    untraced = rows()
    tracer = Tracer()
    try:
        statuses = tracer.install()
        assert {row["status"] for row in statuses} <= {"ok", "absent"}
        assert repro.core.esd.line_ecc is repro.ecc.codec.line_ecc
        assert repro.core.esd.line_ecc is not original
        with tracer.root():
            traced = rows()
    finally:
        tracer.uninstall()
    assert repro.core.esd.line_ecc is original
    assert traced == untraced
    result = summarize([tracer.snapshot()])
    for layer in ("workloads", "sim", "dedup", "core", "ecc", "crypto",
                  "nvmm", "vec"):
        if result[layer]["status"] == "ok":  # ``vec`` may be deleted
            assert result[layer]["calls"] > 0, layer


# ----------------------------------------------------------------------
# compare.py decision rule
# ----------------------------------------------------------------------

PARENT = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.0]


@pytest.mark.parametrize("change, better, verdict", [
    ([v * 1.2 for v in PARENT], "higher", "improved"),
    ([v * 0.8 for v in PARENT], "lower", "improved"),
    ([v * 0.8 for v in PARENT], "higher", "regressed"),
    ([v * 1.2 for v in PARENT], "lower", "regressed"),
    ([v * 1.001 for v in PARENT], "higher", "unchanged"),
    ([v * 0.95 for v in PARENT], "higher", "slower"),  # within the bound
    ([60.0, 140.0, 80.0, 120.0, 100.0, 70.0, 130.0, 90.0, 110.0, 100.0],
     "higher", "unresolved"),
])
def test_compare_classifies_synthetic_samples(change, better, verdict):
    got, _ = compare.classify(PARENT, change, better=better, bound=0.1)
    assert got == verdict


def test_compare_needs_nine_of_ten_pair_wins():
    change = [v * 1.05 for v in PARENT]
    change[0] = change[1] = 50.0  # two lost pairs
    got, _ = compare.classify(PARENT, change, better="higher", bound=0.6)
    assert got != "improved"


def _record(seed=7, failed=0, value=1.0):
    return {"workload": WORKLOADS[0], "seed": seed, "trace": 0,
            "correct": True, "attempted": 10, "failed": failed,
            "metrics": {m["name"]: {"value": value, "unit": m["unit"]}
                        for m in SPEC["end_to_end"]}}


def test_compare_flags_error_rate_increase(capsys):
    key = (WORKLOADS[0], 7)
    parent = {key: [_record()] * 3}
    spec = dict(SPEC, workloads=SPEC["workloads"][:1])
    assert compare.compare(parent, {key: [_record()] * 3}, spec) == 0
    assert compare.compare(parent, {key: [_record(failed=1)] * 3}, spec) == 1
    assert "REGRESSED" in capsys.readouterr().out


def test_compare_keeps_seeds_apart(tmp_path, capsys):
    """Held-out seed runs appended to the same files form their own rows
    instead of pairing with, and pooling into, the first seed's runs."""
    files = {}
    for side, high_seed in (("parent", 7), ("change", 2023)):
        path = files[side] = tmp_path / f"{side}.jsonl"
        path.write_text("".join(
            json.dumps(_record(seed, value=9.0 if seed == high_seed
                               else 1.0)) + "\n"
            for seed in (7,) * 3 + (2023,) * 3))
    runs = compare.load_runs(files["parent"])
    assert sorted(runs) == [(WORKLOADS[0], 7), (WORKLOADS[0], 2023)]
    assert [r["seed"] for r in runs[(WORKLOADS[0], 2023)]] == [2023] * 3
    spec = dict(SPEC, workloads=SPEC["workloads"][:1])
    compare.compare(runs, compare.load_runs(files["change"]), spec)
    rows = capsys.readouterr().out.splitlines()
    assert [row.split(" (")[0] for row in rows] == [
        f"{WORKLOADS[0]} seed 7", f"{WORKLOADS[0]} seed 2023"]
    assert "req_per_s regressed" in rows[0]  # 9.0 -> 1.0 on seed 7
    assert "req_per_s improved" in rows[1]  # 1.0 -> 9.0 on seed 2023
