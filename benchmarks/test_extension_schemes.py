"""Extension experiment: NV-Dedup (related work) and ESD-Delta.

Beyond the paper's evaluation grid: the NV-Dedup related-work scheme
(two-tier weak/strong fingerprinting, Wang et al. TC'18) and the ESD-Delta
extension (partial-match deduplication on ESD's per-word ECC structure,
in the spirit of the BCD work the paper cites).
"""

from repro.analysis.reporting import format_table
from repro.sim import run_app, scaled_system_config

SCHEMES = ["Baseline", "Dedup_SHA1", "NV-Dedup", "ESD", "ESD-Delta"]


def run_extensions(app: str = "mcf", requests: int = 15_000):
    system = scaled_system_config()
    out = {}
    for name in SCHEMES:
        out[name] = run_app(app, [name], requests=requests,
                            system=system)[name]
    return out


def test_extension_schemes(benchmark, emit):
    results = benchmark.pedantic(run_extensions, rounds=1, iterations=1)
    base = results["Baseline"]
    rows = []
    for name in SCHEMES:
        r = results[name]
        rows.append([
            name,
            r.write_reduction * 100,
            base.mean_write_latency_ns / r.mean_write_latency_ns,
            r.total_energy_nj / base.total_energy_nj,
            r.pcm_data_writes,
        ])
    emit("extension_schemes", format_table(
        ["scheme", "write_reduction_%", "write_speedup", "energy_vs_base",
         "pcm_data_writes"],
        rows, title="Extensions on mcf: NV-Dedup (related work) and "
                    "ESD-Delta (partial-match)"))

    # NV-Dedup sits between Dedup_SHA1 and ESD on write latency: it skips
    # strong hashes for unique lines but still pays them for duplicates
    # plus the full-dedup NVMM lookups.
    assert (results["NV-Dedup"].mean_write_latency_ns
            < results["Dedup_SHA1"].mean_write_latency_ns)
    assert (results["ESD"].mean_write_latency_ns
            < results["NV-Dedup"].mean_write_latency_ns)
    # ESD-Delta never writes more data lines than plain ESD.
    assert (results["ESD-Delta"].pcm_data_writes
            <= results["ESD"].pcm_data_writes)
    # All extensions remain integrity-clean (the engine would have raised).
    assert results["ESD-Delta"].write_reduction >= results[
        "ESD"].write_reduction - 0.01


def _near_duplicate_trace(num_writes: int = 6_000, seed: int = 31):
    """A stream where most lines are one-word mutations of hot bases.

    Exact dedup sees almost no duplicates here; word-granular delta dedup
    sees almost nothing *but* duplicates.
    """
    import numpy as np
    from repro.common.types import AccessType, MemoryRequest
    rng = np.random.default_rng(seed)
    bases = [rng.integers(0, 256, 64, dtype=np.uint8).tobytes()
             for _ in range(8)]
    trace = []
    t = 0.0
    for i in range(num_writes):
        t += float(rng.exponential(40.0))
        base = bases[int(rng.integers(0, len(bases)))]
        buf = bytearray(base)
        word = int(rng.integers(0, 8))
        buf[word * 8:(word + 1) * 8] = rng.integers(
            0, 256, 8, dtype=np.uint8).tobytes()
        trace.append(MemoryRequest(
            address=(i % 4096) * 64, access=AccessType.WRITE,
            data=bytes(buf), issue_time_ns=t, seq=i))
    return trace


def test_extension_delta_on_near_duplicates(benchmark, emit):
    """ESD-Delta's habitat: similar-but-not-identical content."""
    from repro.registry import make_scheme
    from repro.sim import SimulationEngine

    def run():
        trace = _near_duplicate_trace()
        out = {}
        for name in ("ESD", "ESD-Delta"):
            engine = SimulationEngine(
                make_scheme(name, scaled_system_config()))
            out[name] = engine.run(iter(list(trace)), app="neardup",
                                   total_hint=len(trace))
        return out

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    esd, delta = results["ESD"], results["ESD-Delta"]
    rows = [[name, r.pcm_data_writes,
             r.energy_nj.get("pcm_write", 0.0) / 1e3,
             r.write_reduction * 100]
            for name, r in results.items()]
    emit("extension_delta_neardup", format_table(
        ["scheme", "pcm_data_writes", "pcm_write_energy_uJ",
         "write_reduction_%"],
        rows, title="Near-duplicate stream (1 mutated word per line): "
                    "delta dedup vs exact dedup"))
    # Exact dedup is nearly blind to one-word mutations; delta dedup
    # eliminates the bulk of the full-line writes.
    assert esd.write_reduction < 0.2
    assert delta.write_reduction > 0.6
    assert delta.pcm_data_writes < esd.pcm_data_writes / 2
    # And the PCM write energy drops accordingly.
    assert (delta.energy_nj.get("pcm_write", 0.0)
            < esd.energy_nj.get("pcm_write", 0.0) / 2)
