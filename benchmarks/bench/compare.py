#!/usr/bin/env python3
"""Decide gain, regression or neither for each (workload, metric) pair.

    python3 benchmarks/bench/compare.py PARENT.jsonl CHANGE.jsonl
    python3 benchmarks/bench/compare.py --summary RUNS.jsonl

The inputs are run records appended by ``run.py --record FILE``, the
parent's runs in one file and the change's in the other.  Runs are
grouped by (workload, seed), and the i-th run of a group pairs with the
i-th run of the same group in the other file, so record alternating
parent/change runs in order; runs on another seed (the held-out
confirmation) form their own group and may share the files.  Only
``--trace 0`` records enter the decision; bounds and directions come from
``BENCHMARK.json``.

The rule, per (workload, seed, end-to-end metric):

* medians and quartiles (``statistics.quantiles(n=4)``) on each side;
* ``unresolved`` when either side's quartile spread exceeds the bound,
  unless every change run reads better than every parent run (then the
  rules below still apply) or every one reads worse by more than the
  bound (``regressed``);
* ``improved`` when the change wins at least nine tenths of the pairs
  (ties count for neither) and the medians differ, in the better
  direction, by more than the parent's quartile spread;
* ``regressed`` when the change's median is worse than the parent's by
  more than the bound (a share of the parent's median);
* ``slower`` when the same test as ``improved`` holds in the worse
  direction but the gap is within the bound: a resolved slowdown that the
  bound tolerates, reported for review but not failing;
* ``unchanged`` otherwise.

``error_rate`` (failed / attempted, summed over runs) may not rise at
all.  One row is printed per (workload, seed); ``-v`` adds medians and
quartiles.  Exit status 1 when any pair regressed, the error rate rose, a
group lacks runs on one side, or a run failed its output checks; 0
otherwise.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parents[2]

#: Share of pairs the change must win to claim a gain.
WIN_SHARE = 0.9

#: Run records by (workload, seed), in file order.
Runs = Dict[Tuple[str, int], List[dict]]


def load_runs(path: Path, *, trace: int = 0) -> Runs:
    """Run records of one file grouped by (workload, seed), in file order."""
    runs: Runs = {}
    for line in Path(path).read_text().splitlines():
        if line.strip():
            record = json.loads(line)
            if record.get("trace", 0) == trace:
                key = (record["workload"], int(record["seed"]))
                runs.setdefault(key, []).append(record)
    return runs


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(first quartile, median, third quartile)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def classify(parent: Sequence[float], change: Sequence[float], *,
             better: str, bound: float) -> Tuple[str, float]:
    """Verdict for one metric, plus the median change as a signed share
    of the parent's median (positive = better)."""
    sign = 1.0 if better == "higher" else -1.0
    p1, p_med, p3 = quartiles(parent)
    c1, c_med, c3 = quartiles(change)
    gain_share = sign * (c_med - p_med) / abs(p_med)
    spread = max((p3 - p1) / abs(p_med), (c3 - c1) / abs(c_med))
    all_better = min(sign * c for c in change) > max(sign * p for p in parent)
    all_worse = max(sign * c for c in change) < min(sign * p for p in parent)
    if spread > bound and not all_better:
        if all_worse and -gain_share > bound:
            return "regressed", gain_share
        return "unresolved", gain_share
    pairs = list(zip(parent, change))

    def resolved(direction: float) -> bool:
        """The change beats the parent in ``direction`` (+1 better, -1
        worse) in nine tenths of the pairs, by more than the parent's
        quartile spread at the median."""
        wins = sum(1 for p, c in pairs if direction * sign * (c - p) > 0)
        return (bool(pairs) and wins >= WIN_SHARE * len(pairs)
                and direction * sign * (c_med - p_med) > p3 - p1)

    if resolved(+1.0):
        return "improved", gain_share
    if -gain_share > bound:
        return "regressed", gain_share
    if resolved(-1.0):
        return "slower", gain_share
    return "unchanged", gain_share


def error_rate(records: Sequence[dict]) -> Tuple[int, int]:
    return (sum(r["failed"] for r in records),
            sum(r["attempted"] for r in records))


def compare(parent: Runs, change: Runs, spec: dict,
            verbose: bool = False) -> int:
    status = 0
    for workload in spec["workloads"]:
        name = workload["name"]
        seeds = sorted({seed for w, seed in set(parent) | set(change)
                        if w == name})
        if not seeds:
            print(f"{name}: no runs")
            status = 1
        for seed in seeds:
            status = max(status, _compare_group(
                f"{name} seed {seed}", parent.get((name, seed), []),
                change.get((name, seed), []), spec, verbose))
    return status


def _compare_group(label: str, p_runs: List[dict], c_runs: List[dict],
                   spec: dict, verbose: bool) -> int:
    """Print one (workload, seed) row; returns its exit status."""
    if not p_runs or not c_runs:
        print(f"{label}: missing runs (parent {len(p_runs)}, change "
              f"{len(c_runs)})")
        return 1
    status = 0
    cells = []
    details = []
    for metric in spec["end_to_end"]:
        key = metric["name"]
        p_vals = [r["metrics"][key]["value"] for r in p_runs]
        c_vals = [r["metrics"][key]["value"] for r in c_runs]
        verdict, share = classify(p_vals, c_vals, better=metric["better"],
                                  bound=metric["bound"])
        status = max(status, int(verdict == "regressed"))
        cells.append(f"{key} {verdict} ({share:+.1%})")
        details.append(
            f"    {key:<16} parent {_q(p_vals)}  change {_q(c_vals)}"
            f"  [{metric['unit']}, bound {metric['bound']:.0%}]")
    (p_fail, p_att), (c_fail, c_att) = (error_rate(p_runs),
                                        error_rate(c_runs))
    rate_ok = c_fail * p_att <= p_fail * c_att
    correct = all(r["correct"] for r in p_runs + c_runs)
    status = max(status, int(not (rate_ok and correct)))
    print(f"{label} ({len(p_runs)} vs {len(c_runs)} runs): "
          + ", ".join(cells)
          + f"; error_rate {p_fail}/{p_att} -> {c_fail}/{c_att}"
          + ("" if rate_ok else " REGRESSED")
          + ("" if correct else "; OUTPUT CHECKS FAILED"))
    if verbose:
        print("\n".join(details))
    return status


def _q(values: Sequence[float]) -> str:
    q1, median, q3 = quartiles(values)
    return f"{median:.5g} [{q1:.5g}, {q3:.5g}]"


def summary(runs_by_trace: Sequence[Runs]
            ) -> Dict[str, Dict[str, Dict[str, dict]]]:
    """Median and quartiles of every metric, per workload and seed."""
    out: Dict[str, Dict[str, Dict[str, dict]]] = {}
    for runs in runs_by_trace:
        for (workload, seed), records in runs.items():
            group = out.setdefault(workload, {}).setdefault(str(seed), {})
            for key in records[0]["metrics"]:
                values = [r["metrics"][key]["value"] for r in records]
                q1, median, q3 = quartiles(values)
                group[key] = {
                    "median": median, "q1": q1, "q3": q3, "n": len(values),
                    "unit": records[0]["metrics"][key]["unit"]}
    return out


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("files", nargs="+", type=Path,
                        help="PARENT.jsonl CHANGE.jsonl, or one file with "
                             "--summary")
    parser.add_argument("--summary", action="store_true",
                        help="print medians and quartiles of one run set")
    parser.add_argument("-v", "--verbose", action="store_true")
    args = parser.parse_args(argv)
    if args.summary:
        if len(args.files) != 1:
            parser.error("--summary takes one file")
        print(json.dumps(summary([load_runs(args.files[0], trace=t)
                                  for t in (0, 1)]), indent=1))
        return 0
    if len(args.files) != 2:
        parser.error("expected PARENT.jsonl CHANGE.jsonl")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return compare(load_runs(args.files[0]), load_runs(args.files[1]), spec,
                   args.verbose)


if __name__ == "__main__":
    sys.exit(main())
