"""Synthetic LLC-eviction trace generator.

Produces a stream of :class:`~repro.common.types.MemoryRequest` whose
*content statistics* match a :class:`~repro.workloads.profiles.WorkloadProfile`:

* the configured duplicate rate (fraction of writes whose 64-byte content
  was written before),
* the zero-line share of duplicates,
* Zipf-skewed content popularity (content locality / reference counts),
* Markov-bursty duplicate/unique alternation (predictability),
* the configured read/write mix, working-set size, and arrival spacing.

The generator works at memory-controller granularity — it directly emits
the post-LLC request stream.  That matches how the paper's analysis treats
workloads (everything is phrased in terms of "cache lines evicted from the
LLC"), and it is the stream every dedup scheme consumes.  For end-to-end
demonstrations that include the cache hierarchy, see
:class:`CPUAccessGenerator`, which emits pre-hierarchy load/store traffic
instead.

**The stream contract.**  A ``(profile, seed)`` pair names one stream,
bit for bit; ``tests/fixtures/pinned_traces.json`` pins each profile's.
Its draws are those of numpy's PCG64 ``Generator``, but ``random()``,
``integers(0, n)`` and the 56-byte tails (``integers(0, 256, 56,
dtype=uint8)``) are computed by :class:`_WordDraws` from raw 64-bit
words with numpy's transforms, without numpy's per-call overhead.  The
last two draw 32-bit halves through PCG64's one-half buffer, which
``_WordDraws`` takes over after the one-time ``permutation``;
``exponential()`` (a ziggurat over tables Python cannot reach) stays a
numpy call and takes whole words, so it never touches the buffer.  The
buffer belongs to the generator: ``generate(300)`` then ``generate(700)``
equals ``generate(1000)``.
"""

from __future__ import annotations

import struct
from bisect import bisect_left
from typing import Iterator, List, Optional

import numpy as np

from ..common.types import (
    CACHE_LINE_SIZE,
    ZERO_LINE,
    AccessType,
    MemoryRequest,
)
from ..cache.hierarchy import CPUAccess
from .profiles import WorkloadProfile, get_profile

_READ = AccessType.READ
_WRITE = AccessType.WRITE

#: ``random()`` scales the top 53 bits of a word by 2**-53.
_TWO_M53 = 1.0 / (1 << 53)
_HALF_MASK = 0xFFFFFFFF
_HALF_RANGE = 1 << 32
#: Unique-line tails are written as little-endian words on every host.
_LE_U64 = np.dtype("<u8")


class _WordDraws:
    """numpy ``Generator`` draws computed from its raw PCG64 words.

    Each method returns what the named ``Generator`` call returns and
    consumes the same words.  32-bit draws go through PCG64's one-half
    buffer, taken over from the bit generator's state at construction, so
    every half-drawing call on the stream must go through this object.
    """

    __slots__ = ("_raw", "_has_half", "_half")

    def __init__(self, bit_generator) -> None:
        self._raw = bit_generator.random_raw
        state = bit_generator.state
        self._has_half = state["has_uint32"]
        self._half = state["uinteger"]

    def random(self) -> float:
        """``Generator.random()``."""
        return (self._raw() >> 11) * _TWO_M53

    def integers(self, n: int) -> int:
        """``Generator.integers(0, n)`` for ``1 <= n <= 2**32``: Lemire's
        multiply-shift on 32-bit halves, redrawn while biased."""
        if not 1 < n <= _HALF_RANGE:
            if n == 1:
                return 0
            raise ValueError(f"integers(0, {n}) needs 1 <= n <= 2**32")
        while True:
            if self._has_half:
                self._has_half = 0
                m = self._half * n
            else:
                word = self._raw()
                self._half = word >> 32
                self._has_half = 1
                m = (word & _HALF_MASK) * n
            low = m & _HALF_MASK
            if low >= n or low >= (_HALF_RANGE - n) % n:
                return m >> 32

    def tail56(self) -> bytes:
        """``Generator.integers(0, 256, 56, dtype=uint8).tobytes()``: 14
        halves, each written little-endian."""
        words = self._raw(7).astype(_LE_U64, copy=False).tobytes()
        if not self._has_half:
            return words
        head = self._half.to_bytes(4, "little")
        self._half = int.from_bytes(words[52:], "little")
        return head + words[:52]


class ZipfSampler:
    """Bounded Zipf sampling over a growing population.

    Item *k* (1-based insertion rank) carries fixed weight ``k**-s``; the
    sampler keeps a cumulative-weight array and draws by inverse transform.
    Earlier-inserted items are more popular, a standard synthetic stand-in
    for hot content.
    """

    def __init__(self, skew: float, rng: np.random.Generator) -> None:
        if skew <= 0:
            raise ValueError("skew must be positive")
        self._skew = skew
        # A numpy Generator, or the trace generator's _WordDraws.
        self._random = rng.random
        self._cumweights: List[float] = []

    def __len__(self) -> int:
        return len(self._cumweights)

    def add_item(self) -> int:
        """Register one more item; returns its 0-based index."""
        rank = len(self._cumweights) + 1
        weight = rank ** (-self._skew)
        prev = self._cumweights[-1] if self._cumweights else 0.0
        self._cumweights.append(prev + weight)
        return rank - 1

    def sample(self) -> int:
        """Draw a 0-based item index with Zipf probabilities."""
        if not self._cumweights:
            raise ValueError("cannot sample from an empty population")
        u = self._random() * self._cumweights[-1]
        return bisect_left(self._cumweights, u)


class TraceGenerator:
    """Generates one application's memory-controller request stream.

    Args:
        profile: application statistics (or a name resolved via
            :func:`~repro.workloads.profiles.get_profile`).
        seed: RNG seed; combined with the profile name so each application
            gets an independent but reproducible stream.
    """

    def __init__(self, profile, seed: int = 2023) -> None:
        if isinstance(profile, str):
            profile = get_profile(profile)
        self.profile: WorkloadProfile = profile
        name_salt = sum(profile.name.encode())
        self._rng = np.random.default_rng((seed * 1_000_003 + name_salt))
        self._contents: List[bytes] = []
        self._zero_emitted = False
        self._unique_counter = 0
        self._seq = 0
        self._clock_ns = 0.0
        self._prev_was_dup = bool(self._rng.random() < profile.duplicate_rate)
        # Addresses: a shuffled mapping from popularity rank to line address
        # gives spatially-scattered hot lines.
        self._address_pool = self._rng.permutation(
            profile.working_set_lines).astype(np.int64)
        # From here on every draw but exponential() goes through _draws,
        # which takes over the half the permutation may have left buffered.
        draws = self._draws = _WordDraws(self._rng.bit_generator)
        self._random = draws.random
        self._integers = draws.integers
        self._content_sampler = ZipfSampler(profile.locality_skew, draws)
        self._written_addresses: List[int] = []
        self._written_set: set = set()
        self._address_sampler = ZipfSampler(0.8, draws)

    # ------------------------------------------------------------------
    # Content synthesis
    # ------------------------------------------------------------------

    def _fresh_unique_line(self) -> bytes:
        """A never-before-seen 64-byte content.

        A monotone counter is embedded in the first 8 bytes so uniqueness is
        guaranteed (random tails make the content realistic for hashing).
        """
        self._unique_counter += 1
        return struct.pack("<Q", self._unique_counter) + self._draws.tail56()

    def _register_content(self, content: bytes) -> None:
        self._contents.append(content)
        self._content_sampler.add_item()

    def _next_write_content(self) -> bytes:
        """Choose the next written content per the duplicate-state chain."""
        p = self.profile
        random = self._random
        if random() >= p.dup_burstiness:
            self._prev_was_dup = random() < p.duplicate_rate
        if self._prev_was_dup and self._contents:
            if random() < p.zero_fraction:
                if self._zero_emitted:
                    return ZERO_LINE
                # First zero emission is by definition unique.
                self._zero_emitted = True
                self._register_content(ZERO_LINE)
                return ZERO_LINE
            if random() < p.tail_dup_fraction:
                # Long-range recurrence: re-reference a uniformly random old
                # content.  Only a full NVMM-resident fingerprint index can
                # deduplicate these; a bounded hot-fingerprint cache misses
                # them (the selective-dedup trade-off).
                return self._contents[self._integers(len(self._contents))]
            return self._contents[self._content_sampler.sample()]
        content = self._fresh_unique_line()
        self._register_content(content)
        return content

    # ------------------------------------------------------------------
    # Address synthesis
    # ------------------------------------------------------------------

    def _next_write_address(self) -> int:
        """Pick a line address from the working set (mildly skewed)."""
        sampler = self._address_sampler
        grown = len(sampler)
        if grown < len(self._address_pool) and (grown == 0
                                                or self._random() < 0.5):
            idx = sampler.add_item()
        else:
            idx = sampler.sample()
        line = int(self._address_pool[idx])
        addr = line * CACHE_LINE_SIZE
        if addr not in self._written_set:
            self._written_set.add(addr)
            self._written_addresses.append(addr)
        return addr

    def _next_read_address(self) -> int:
        """Read a previously written address when possible."""
        written = self._written_addresses
        if written:
            return written[self._integers(len(written))]
        pool = self._address_pool
        return int(pool[self._integers(len(pool))]) * CACHE_LINE_SIZE

    # ------------------------------------------------------------------
    # Stream generation
    # ------------------------------------------------------------------

    def generate(self, num_requests: int) -> Iterator[MemoryRequest]:
        """Yield ``num_requests`` memory-controller requests."""
        if num_requests <= 0:
            raise ValueError("num_requests must be positive")
        p = self.profile
        cores = 8
        read_fraction = p.read_fraction
        mean_gap_ns = p.mean_interarrival_ns
        exponential = self._rng.exponential
        random = self._random
        integers = self._integers
        next_read_address = self._next_read_address
        next_write_address = self._next_write_address
        next_write_content = self._next_write_content
        for _ in range(num_requests):
            # Stored every request: a caller may stop early and generate
            # again.
            self._seq = seq = self._seq + 1
            self._clock_ns = at = self._clock_ns + exponential(mean_gap_ns)
            core = integers(cores)
            if random() < read_fraction:
                yield MemoryRequest(next_read_address(), _READ, None, at,
                                    core, seq)
            else:
                yield MemoryRequest(next_write_address(), _WRITE,
                                    next_write_content(), at, core, seq)

    def generate_list(self, num_requests: int) -> List[MemoryRequest]:
        """Materialize a trace as a list."""
        return list(self.generate(num_requests))


class CPUAccessGenerator:
    """Pre-hierarchy load/store generator for end-to-end demonstrations.

    Emits :class:`~repro.cache.hierarchy.CPUAccess` records with strong
    temporal locality, so a realistic fraction of traffic dies in L1/L2/L3
    and the residue reaching the controller resembles the post-LLC stream.
    """

    def __init__(self, profile, seed: int = 2023) -> None:
        if isinstance(profile, str):
            profile = get_profile(profile)
        self.profile = profile
        self._inner = TraceGenerator(profile, seed=seed)
        self._rng = np.random.default_rng(seed ^ 0xC0FFEE)

    def generate(self, num_accesses: int,
                 rereference_prob: float = 0.6,
                 window: int = 64) -> Iterator[CPUAccess]:
        """Yield ``num_accesses`` CPU accesses.

        Args:
            rereference_prob: probability an access re-touches one of the
                last ``window`` distinct addresses (creates cache hits).
            window: size of the re-reference window.
        """
        if not 0 <= rereference_prob <= 1:
            raise ValueError("rereference_prob must be in [0,1]")
        recent: List[int] = []
        inner = self._inner.generate(num_accesses)
        for request in inner:
            if recent and self._rng.random() < rereference_prob:
                address = recent[int(self._rng.integers(0, len(recent)))]
                write = bool(self._rng.random()
                             < (1 - self.profile.read_fraction))
                data = (self._inner._next_write_content() if write else None)
                yield CPUAccess(address=address, write=write, data=data,
                                core=request.core)
            else:
                yield CPUAccess(address=request.address,
                                write=request.is_write,
                                data=request.data, core=request.core)
                recent.append(request.address)
                if len(recent) > window:
                    recent.pop(0)
