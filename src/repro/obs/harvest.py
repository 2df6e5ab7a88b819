"""End-of-run counter migration onto the metrics registry.

This is where the legacy telemetry channels — scheme ``Counter`` bags,
controller counters, EFIT/AMT hit tallies, fingerprint-store splits, and
the kernel fast path's flat ``memo_*`` stats — land in the typed
registry.  The migration is *observational* (DESIGN.md §9's soundness
rule): everything here reads finished tallies after the request loop has
completed, so the registry can never influence a simulated result, and
``SimulationResult.extras`` keeps exporting the same keys as before as a
compatibility view.

Structure-specific stats are duck-typed exactly like
:func:`repro.sim.metrics.collect_extras`, so any scheme that grows an
``efit``/``amt``/``mapping``/``store``/``predictor`` attribute is picked
up automatically.
"""

from __future__ import annotations

from typing import Dict, Mapping

from .runtime import RunObservation

__all__ = ["harvest_run"]


def harvest_run(run: RunObservation, scheme: "object",
                memo_stats: Mapping[str, float]) -> None:
    """Populate the run's registry from a finished scheme's tallies.

    Args:
        run: the session's observation scope, after its last request.
        scheme: the :class:`~repro.dedup.base.DedupScheme` that ran
            (typed loosely to avoid an import cycle).
        memo_stats: the kernel caches' flat ``memo_*`` mapping
            (:func:`repro.perf.memo.stats_snapshot`).
    """
    registry = run.registry

    counters: Dict[str, int] = scheme.counters.as_dict()  # type: ignore[attr-defined]
    for name in sorted(counters):
        registry.counter(name, component="scheme").inc(counters[name])

    controller = scheme.controller  # type: ignore[attr-defined]
    controller_counters: Dict[str, int] = controller.counters.as_dict()
    for name in sorted(controller_counters):
        registry.counter(name, component="controller").inc(
            controller_counters[name])

    efit = getattr(scheme, "efit", None)
    if efit is not None:
        registry.counter("efit_hits").inc(efit.hits)
        registry.counter("efit_misses").inc(efit.misses)
        registry.counter("efit_evictions").inc(efit.evictions)
        registry.counter("lrcu_decay_passes").inc(efit.decay_passes)
        registry.gauge("efit_hit_rate").set(efit.hit_rate)

    amt = getattr(scheme, "amt", None)
    if amt is not None:
        registry.gauge("amt_hit_rate").set(amt.hit_rate)

    mapping = getattr(scheme, "mapping", None)
    if mapping is not None:
        registry.counter("mapping_cache_hits").inc(mapping.cache_hits)
        registry.counter("mapping_cache_misses").inc(mapping.cache_misses)
        registry.counter("mapping_nvmm_reads").inc(mapping.nvmm_reads)
        registry.counter("mapping_nvmm_writes").inc(mapping.nvmm_writes)
        registry.gauge("mapping_hit_rate").set(mapping.hit_rate)

    store = getattr(scheme, "store", None)
    if store is not None:
        cache_hits, nvmm_hits = store.duplicate_filter_split()
        registry.counter("fp_cache_filtered").inc(cache_hits)
        registry.counter("fp_nvmm_filtered").inc(nvmm_hits)
        registry.counter("fp_nvmm_lookups").inc(store.nvmm_lookup_ops)

    predictor = getattr(scheme, "predictor", None)
    if predictor is not None:
        registry.gauge("prediction_accuracy").set(predictor.stats.accuracy)

    # The fast path's memo_* extras keys become counters under their flat
    # names, so ``repro report`` lists the migrated memo_* series directly.
    for name in sorted(memo_stats):
        registry.counter(name).inc(float(memo_stats[name]))
