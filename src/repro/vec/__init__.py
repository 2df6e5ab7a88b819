"""Epoch priming for the simulation engine's session loop.

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

Priming never changes a simulated result, for every registered scheme:
the batch kernels are checked bit-for-bit against the scalar kernels
(``tests/test_vec_kernels.py``), and whole runs against the digests
pinned in ``tests/fixtures/pinned_states.json``.  The per-line
resolution is deliberately kept scalar — bank busy intervals, EFIT/LRCU
recency, counter state, and the closed-loop issue window are sequential
feedback loops, and float accumulation order must not change — so
batching accelerates the pure, order-free work (ECC, digests) and leaves
the order-sensitive arithmetic alone.  Lines the batch front end cannot
serve (schemes with no batchable kernels) fall back to scalar handling
and are counted, never guessed.

Every session primes; there is no switch.
"""
