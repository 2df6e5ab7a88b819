"""Ablation studies for the design choices ESD (and this model) make.

Beyond the paper's own sensitivity study (Figure 18), these sweeps isolate
individual design decisions:

* :func:`ablate_lrcu_decay` — the LRCU "regular refresh" period/amount.
* :func:`ablate_referh_width` — the 1-byte ``referH`` budget.
* :func:`ablate_predictor` — DeWrite's predictor size (prediction quality
  vs. the F2/F4 penalty balance of Figure 4).
* :func:`ablate_bank_count` — PCM bank-level parallelism (how much of
  ESD's speedup is queueing relief).
* :func:`ablate_row_buffer` — the row-buffer hit latency (how much the
  byte-comparison reads cost without locality in the array).
* :func:`ablate_comparison_read` — selective dedup's read-for-compare
  against a hypothetical trust-the-fingerprint variant (quantifies the
  price ESD pays for zero data-loss risk).

Each returns ``(rows, headers)`` ready for
:func:`repro.analysis.reporting.format_table`.
"""

from __future__ import annotations

import dataclasses
from typing import List, Sequence, Tuple

from ..common.config import DeWriteConfig, PCMConfig
from ..sim.runner import run_app, scaled_system_config
from ..workloads.generator import TraceGenerator

Rows = List[List]
Headers = List[str]


def _trace_for(app: str, requests: int, seed: int):
    return TraceGenerator(app, seed=seed).generate_list(requests)


def ablate_lrcu_decay(app: str = "gcc", requests: int = 12_000,
                      periods: Sequence[int] = (0, 512, 2048, 4096, 16384),
                      seed: int = 2023) -> Tuple[Rows, Headers]:
    """Sweep the LRCU decay ("regular refresh") period.

    Period 0 disables decay entirely; small periods decay aggressively.
    The paper argues decay keeps EFIT contents fresh; too-aggressive decay
    erases the reference-count signal and degenerates toward LRU.
    """
    trace = _trace_for(app, requests, seed)
    rows: Rows = []
    for period in periods:
        system = scaled_system_config().with_esd(
            decay_period=max(1, period) if period else 1,
            decay_amount=1 if period else 0)
        result = run_app(app, ["ESD"], system=system, trace=trace)["ESD"]
        rows.append([period if period else "off",
                     result.extras["efit_hit_rate"],
                     result.write_reduction,
                     result.mean_write_latency_ns])
    return rows, ["decay_period", "efit_hit_rate", "write_reduction",
                  "write_latency_ns"]


def ablate_referh_width(app: str = "deepsjeng", requests: int = 12_000,
                        maxima: Sequence[int] = (3, 15, 63, 255),
                        seed: int = 2023) -> Tuple[Rows, Headers]:
    """Sweep the referH saturation limit (the paper fixes 1 byte = 255).

    Small budgets force hot lines to be rewritten once the count saturates
    (Section III-D's overflow rule), costing write reduction on
    high-reference workloads like deepsjeng.
    """
    trace = _trace_for(app, requests, seed)
    rows: Rows = []
    for limit in maxima:
        system = scaled_system_config().with_esd(refer_h_max=limit)
        result = run_app(app, ["ESD"], system=system, trace=trace)["ESD"]
        rows.append([limit, result.write_reduction,
                     result.extras.get("referh_overflows", 0.0),
                     result.pcm_data_writes])
    return rows, ["referH_max", "write_reduction", "overflows",
                  "pcm_data_writes"]


def ablate_predictor(app: str = "lbm", requests: int = 12_000,
                     entries: Sequence[int] = (16, 256, 4096, 65536),
                     seed: int = 2023) -> Tuple[Rows, Headers]:
    """Sweep DeWrite's predictor table size.

    An undersized table aliases addresses and mispredicts, triggering the
    serial F2 path / wasted F4 encryptions the paper's Figure 4 describes.
    """
    trace = _trace_for(app, requests, seed)
    rows: Rows = []
    for n in entries:
        system = dataclasses.replace(
            scaled_system_config(),
            dewrite=DeWriteConfig(predictor_entries=n))
        result = run_app(app, ["DeWrite"], system=system,
                         trace=trace)["DeWrite"]
        rows.append([n, result.extras.get("prediction_accuracy", 0.0),
                     result.extras.get("wasted_encryptions", 0.0),
                     result.mean_write_latency_ns])
    return rows, ["predictor_entries", "accuracy", "wasted_encryptions",
                  "write_latency_ns"]


def ablate_bank_count(app: str = "lbm", requests: int = 12_000,
                      banks: Sequence[int] = (2, 4, 8, 16, 32),
                      seed: int = 2023) -> Tuple[Rows, Headers]:
    """Sweep PCM bank-level parallelism for Baseline vs. ESD.

    With few banks, write traffic queues and ESD's write elimination pays
    off most; with many banks the device absorbs Baseline's writes and the
    speedup shrinks toward the pure service-time ratio.
    """
    trace = _trace_for(app, requests, seed)
    rows: Rows = []
    for num_banks in banks:
        system = dataclasses.replace(
            scaled_system_config(),
            pcm=PCMConfig(num_banks=num_banks))
        results = run_app(app, ["Baseline", "ESD"], system=system,
                          trace=trace)
        base = results["Baseline"].mean_write_latency_ns
        esd = results["ESD"].mean_write_latency_ns
        rows.append([num_banks, base, esd, base / esd])
    return rows, ["banks", "baseline_write_ns", "esd_write_ns",
                  "esd_speedup"]


def ablate_row_buffer(app: str = "deepsjeng", requests: int = 12_000,
                      hit_latencies: Sequence[float] = (15.0, 40.0, 75.0),
                      seed: int = 2023) -> Tuple[Rows, Headers]:
    """Sweep the row-buffer hit latency (75 ns = row buffer disabled).

    ESD's comparison reads concentrate on hot rows (the shared zero line),
    so its write path is sensitive to this device characteristic.
    """
    trace = _trace_for(app, requests, seed)
    rows: Rows = []
    for latency in hit_latencies:
        system = dataclasses.replace(
            scaled_system_config(),
            pcm=PCMConfig(row_hit_read_latency_ns=latency))
        result = run_app(app, ["ESD"], system=system, trace=trace)["ESD"]
        rows.append([latency, result.mean_write_latency_ns,
                     result.mean_read_latency_ns])
    return rows, ["row_hit_ns", "esd_write_ns", "esd_read_ns"]


def ablate_comparison_read(app: str = "gcc", requests: int = 12_000,
                           seed: int = 2023) -> Tuple[Rows, Headers]:
    """Quantify the price of ESD's byte-by-byte confirmation.

    Compares real ESD against a hypothetical trust-the-ECC variant whose
    write path skips the read-for-comparison entirely.  The variant is
    UNSAFE (an ECC collision would silently alias two different lines —
    the data-loss hazard Section III-E rules out), so it exists only here,
    as an upper bound on what the comparison read costs.
    """
    trace = _trace_for(app, requests, seed)
    system = scaled_system_config()
    real = run_app(app, ["ESD"], system=system, trace=trace)["ESD"]

    # Hypothetical variant: charge the dedup path without the read.
    from ..core.esd import ESDScheme
    from ..sim.engine import SimulationEngine

    class TrustingESD(ESDScheme):
        name = "ESD_no_verify"

        def _read_and_decrypt(self, frame, timeline, read_stage=None,
                              decrypt_stage=None):
            # Trust the fingerprint: skip the PCM read, return the stored
            # plaintext functionally (so integrity checking still passes
            # when no collision occurs) at zero latency — the timeline is
            # deliberately left untouched.
            ciphertext = self.controller.device.read_line(frame)
            self.controller.device.read_ops -= 1  # not a modeled access
            return self.crypto.decrypt_at(ciphertext, frame)

    trusting = TrustingESD(system)
    engine = SimulationEngine(trusting)
    hypothetical = engine.run(iter(list(trace)), app=app,
                              total_hint=len(trace))
    rows = [
        ["ESD (verified, safe)", real.mean_write_latency_ns,
         real.write_reduction],
        ["trust-ECC (UNSAFE bound)", hypothetical.mean_write_latency_ns,
         hypothetical.write_reduction],
    ]
    return rows, ["variant", "write_latency_ns", "write_reduction"]
