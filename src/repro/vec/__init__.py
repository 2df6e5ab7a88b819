"""Epoch priming for the simulation engine's fast path.

``repro.vec`` is the second half of the host-CPU fast path.  The first
half (:mod:`repro.perf`) memoizes the pure kernels; this half batches
them: the engine drains the request stream in fixed-size *epochs*,
lifts each epoch's unique write contents into numpy arrays, and runs
bit-parallel batched kernels — Hamming(72,64) line ECC as uint64 matrix
ops (:mod:`repro.vec.kernels`), batched fingerprint digests — whose
results prime the memo caches before the per-line resolution walks the
epoch (:mod:`repro.vec.epoch`).

Parity contract
---------------

Identical to the memo caches': simulated results are **bit-exact** with
the fast path on or off, for every registered scheme.  The per-line
resolution is deliberately kept scalar — bank busy intervals, EFIT/LRCU
recency, counter state, and the closed-loop issue window are sequential
feedback loops, and float accumulation order must not change — so
batching accelerates the pure, order-free work (ECC, digests) and leaves
the order-sensitive arithmetic byte-for-byte as in the reference loop.
Lines the batch front end cannot serve (schemes with no batchable
kernels) fall back to scalar handling and are counted, never guessed.

There is no separate switch: epoch priming runs exactly when the fast
path does (``SystemConfig.use_fastpath``, ``REPRO_FASTPATH``).
"""
