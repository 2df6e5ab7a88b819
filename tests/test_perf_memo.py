"""Tests for repro.perf: the memo cache machinery and its owners."""

import pytest

from repro.crypto.fingerprints import TruncatedEngine, make_engine
from repro.ecc import codec
from repro.perf.memo import MemoCache, stats_snapshot
from repro.registry import make_scheme, registered_scheme_names
from repro.sim.engine import SimulationEngine
from repro.sim.runner import scaled_system_config
from repro.workloads.generator import TraceGenerator


def _unique_keys(count):
    return [f"key-{i}".encode() for i in range(count)]


class TestMemoCache:
    def test_hit_miss_counters(self):
        cache = MemoCache("t", capacity=4)
        assert cache.get(b"a") is None
        cache.put(b"a", 1)
        assert cache.get(b"a") == 1
        assert (cache.hits, cache.misses) == (1, 1)

    def test_get_default_on_miss(self):
        cache = MemoCache("t", capacity=4)
        assert cache.get(b"a", "fallback") == "fallback"

    def test_lru_bound_under_adversarial_unique_stream(self):
        # A stream of only-unique keys (zero reuse — the memo's worst case)
        # must never grow the cache past its cap.
        cache = MemoCache("t", capacity=8)
        for key in _unique_keys(100):
            assert cache.get(key) is None
            cache.put(key, key)
            assert len(cache) <= 8
        assert len(cache) == 8
        assert cache.evictions == 100 - 8
        assert cache.misses == 100
        assert cache.hits == 0

    def test_lru_evicts_least_recently_used(self):
        cache = MemoCache("t", capacity=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")  # refresh "a": "b" is now the LRU entry
        cache.put("c", 3)
        assert list(cache._data) == ["a", "c"]

    def test_put_existing_key_refreshes_without_evicting(self):
        cache = MemoCache("t", capacity=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("a", 10)  # update, not insert
        assert cache.evictions == 0
        assert cache.get("a") == 10

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError):
            MemoCache("t", capacity=0)


class TestKernelCacheBound:
    def test_line_ecc_cache_bounded_with_shrunk_cap(self):
        # Shrink ESD's line-ECC cache's cap and hammer it with unique
        # lines: the LRU bound must hold at the actual call site too.
        scheme = make_scheme("ESD", scaled_system_config())
        cache = scheme.line_ecc_cache
        cache.capacity = 16
        for i in range(64):
            line = i.to_bytes(2, "little") * 32
            assert scheme._line_ecc(line) == codec.line_ecc(line)
            assert len(cache) <= 16
        assert cache.evictions == 64 - 16
        assert cache.misses == 64

    def test_every_owned_cache_is_size_bounded(self):
        trace = TraceGenerator("gcc", seed=7).generate_list(300)
        for name in registered_scheme_names():
            scheme = make_scheme(name, scaled_system_config())
            SimulationEngine(scheme).run(iter(trace), app="gcc")
            caches = scheme.memo_caches()
            assert caches[0] is scheme.crypto.pad_cache
            assert len({cache.name for cache in caches}) == len(caches)
            for cache in caches:
                assert cache.touched, (name, cache.name)
                assert 0 < len(cache) <= cache.capacity


class TestStatsSnapshot:
    def test_touched_caches_in_name_order(self):
        quiet, b, a = (MemoCache(name, 8) for name in ("quiet", "b", "a"))
        assert stats_snapshot([quiet, b, a]) == {}
        a.get("miss")
        b.put("k", 1)
        b.get("k")
        snap = stats_snapshot([quiet, b, a])
        assert list(snap) == [
            f"memo_{name}_{counter}" for name in ("a", "b")
            for counter in ("hits", "misses", "evictions", "size")]
        assert snap["memo_a_misses"] == 1.0
        assert snap["memo_a_size"] == 0.0
        assert snap["memo_b_hits"] == 1.0
        assert snap["memo_b_size"] == 1.0


_LINE = bytes(range(64))
_LINE_ECC = codec.line_ecc(_LINE)


def _engine(name, bits=None):
    """A fresh engine's fingerprint, digest reference and cache."""
    engine = make_engine(name)
    if bits is None:
        return engine.fingerprint, engine._digest, engine.cache
    truncated = TruncatedEngine(engine, bits)
    return (truncated.fingerprint,
            lambda data: engine._digest(data) & ((1 << bits) - 1), None)


def _esd_line_ecc():
    scheme = make_scheme("ESD", scaled_system_config())
    return scheme._line_ecc, codec.line_ecc, scheme.line_ecc_cache


#: Factories of each kernel beside its reference and the memo cache it
#: looks up through (``None`` for the plain codec kernels, and for the
#: truncated engine, which owns none).
_KERNELS = {
    "line_ecc": lambda: (codec.line_ecc, None, None),
    "word_eccs": lambda: (codec.word_eccs, None, None),
    "decode_line": lambda: (
        lambda data: codec.decode_line(data, _LINE_ECC), None, None),
    "esd_line_ecc": _esd_line_ecc,
    "sha1": lambda: _engine("sha1"),
    "md5": lambda: _engine("md5"),
    "crc32": lambda: _engine("crc32"),
    "truncated": lambda: _engine("sha1", bits=32),
}


class TestMemoizedKernelsTakeBytearray:
    """A kernel returns for a ``bytearray`` what it returns for
    ``bytes(data)``, as its reference does, with the cache traffic of two
    ``bytes`` calls; invalid lines keep their errors."""

    @pytest.mark.parametrize("name", sorted(_KERNELS))
    def test_bytearray_gives_the_bytes_value(self, name):
        kernel, reference, cache = _KERNELS[name]()
        value = kernel(bytearray(_LINE))
        assert value == kernel(_LINE)
        if reference is not None:
            assert value == reference(bytearray(_LINE)) == reference(_LINE)
        if cache is not None:
            twin, _, twin_cache = _KERNELS[name]()
            twin(_LINE)
            twin(_LINE)
            assert cache.stats() == twin_cache.stats()

    @pytest.mark.parametrize("name", sorted(_KERNELS))
    @pytest.mark.parametrize("data, message", [
        (bytes(63), "cache line must be 64 bytes, got 63"),
        (bytes(65), "cache line must be 64 bytes, got 65"),
        ("x" * 64, "cache line must be bytes, got str"),
        (None, "cache line must be bytes, got NoneType"),
    ], ids=["63-bytes", "65-bytes", "str", "None"])
    def test_bad_input_messages(self, name, data, message):
        with pytest.raises(ValueError) as err:
            _KERNELS[name]()[0](data)
        assert str(err.value) == message
