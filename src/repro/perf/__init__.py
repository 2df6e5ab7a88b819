"""Content-addressed fast path for the simulator's hot kernels.

``repro.perf`` makes million-request sweeps tractable on one machine by
memoizing the pure-Python kernels that dominate host CPU time (line ECC,
counter-mode pads, hash fingerprints) in bounded, content-addressed LRU
caches, each owned by the engine or scheme that calls its kernel — see
:mod:`repro.perf.memo` for the machinery, the ownership and the
soundness rules.
"""
