"""Adversarial request streams for long-run stress studies.

The paper's 20-app roster characterizes *typical* programs; the streams
here are deliberately hostile.  Two are plain :class:`WorkloadProfile`
entries (registered in :data:`~repro.workloads.profiles.PROFILES` under
the ``adversarial`` suite) whose statistics sit at the schemes' worst
corners; the third is a phase-shifting mix that whiplashes between them
and two roster apps so every adaptive structure (DeWrite's predictor,
ESD's LRCU decay, the bank queues) re-trains mid-run.

* ``adv-dedup-worst`` — ~2 % duplicates, write-heavy, memory-intense:
  every dedup lookup is pure overhead, bounding scheme cost below.
* ``adv-collision-heavy`` — ~92 % duplicates with near-zero popularity
  skew, a huge working set, and a 95 % recurrence tail: the fingerprint
  indexes thrash on long-range matches instead of riding a hot set.
* ``adv-phase-shift`` — alternates dedup-worst / deepsjeng (all-zero
  duplicates) / collision-heavy / lbm (bursty non-zero duplicates) on
  one continuous clock via :class:`PhasedTraceGenerator`.

All three stream in bounded memory — :func:`adversarial_stream` returns
a generator, so they compose with the v2 trace capture and checkpointed
runs of any length.
"""

from __future__ import annotations

from typing import Iterator, List, Tuple

from ..common.types import MemoryRequest
from .generator import TraceGenerator
from .phases import Phase, PhasedTraceGenerator
from .profiles import PROFILES, adversarial_names, get_profile

#: The phase-shifting mix's script: adversarial corners interleaved with
#: the roster's extreme apps (all-zero dup init, bursty non-zero output).
PHASE_SHIFT_SCRIPT: Tuple[str, ...] = (
    "adv-dedup-worst", "deepsjeng", "adv-collision-heavy", "lbm",
)

PHASE_SHIFT_NAME = "adv-phase-shift"

#: Instructions-per-access used for the phase-shifting mix (the blend has
#: no single profile; this matches the adversarial profiles' intensity).
PHASE_SHIFT_IPA = 150


def adversarial_stream_names() -> List[str]:
    """Every adversarial stream resolvable by :func:`adversarial_stream`."""
    return adversarial_names() + [PHASE_SHIFT_NAME]


def phase_shift_phases(requests: int) -> List[Phase]:
    """Deterministically split ``requests`` across the phase script.

    The split is even (remainder spread over the leading phases); with
    fewer requests than script entries, only the leading phases run.
    """
    if requests <= 0:
        raise ValueError("requests must be positive")
    script = PHASE_SHIFT_SCRIPT[:min(len(PHASE_SHIFT_SCRIPT), requests)]
    base, extra = divmod(requests, len(script))
    return [Phase(app=app, requests=base + (1 if i < extra else 0))
            for i, app in enumerate(script)]


def adversarial_stream(name: str, requests: int,
                       seed: int = 2023) -> Iterator[MemoryRequest]:
    """Open a named adversarial stream as a bounded-memory generator."""
    if name == PHASE_SHIFT_NAME:
        return PhasedTraceGenerator(phase_shift_phases(requests),
                                    seed=seed).generate()
    profile = PROFILES.get(name)
    if profile is None or profile.suite != "adversarial":
        raise KeyError(
            f"unknown adversarial stream {name!r}; "
            f"known: {adversarial_stream_names()}")
    return TraceGenerator(profile, seed=seed).generate(requests)


def stream_instructions_per_access(name: str) -> int:
    """IPC-model intensity for a stream name (profile-backed or mix)."""
    if name == PHASE_SHIFT_NAME:
        return PHASE_SHIFT_IPA
    return get_profile(name).instructions_per_access
