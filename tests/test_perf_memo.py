"""Tests for repro.perf: the memo cache machinery."""

import pytest

from repro.crypto.fingerprints import TruncatedEngine, make_engine
from repro.ecc import codec
from repro.perf import memo
from repro.perf.memo import MemoCache


@pytest.fixture(autouse=True)
def _reset_caches_after():
    """Every test leaves the kernel caches cold."""
    yield
    memo.reset_all()


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

    def test_reset_clears_entries_and_counters(self):
        cache = MemoCache("t", capacity=4)
        cache.put("a", 1)
        cache.get("a")
        cache.get("missing")
        cache.reset()
        assert len(cache) == 0
        assert (cache.hits, cache.misses, cache.evictions) == (0, 0, 0)
        assert not cache.touched

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError):
            MemoCache("t", capacity=0)


class TestKernelCacheBound:
    def test_line_ecc_cache_bounded_with_shrunk_cap(self):
        # Shrink the real kernel cache's cap and hammer it with unique
        # lines: the LRU bound must hold at the actual call site too.
        cache = codec._LINE_ECC_CACHE
        original_capacity = cache.capacity
        memo.reset_all()
        try:
            cache.capacity = 16
            for i in range(64):
                codec.line_ecc(i.to_bytes(2, "little") * 32)
                assert len(cache) <= 16
            assert cache.evictions == 64 - 16
            assert cache.misses == 64
        finally:
            cache.capacity = original_capacity

    def test_all_registered_caches_are_size_bounded(self):
        for cache in memo.registered_caches():
            assert cache.capacity > 0
            assert len(cache) <= cache.capacity


class TestRegistry:
    def test_get_cache_returns_shared_instance(self):
        a = memo.get_cache("test_registry_shared", 8)
        b = memo.get_cache("test_registry_shared", 999)
        assert a is b
        assert a.capacity == 8  # first caller fixes the capacity

    def test_reset_all_resets_registered_caches(self):
        cache = memo.get_cache("test_registry_reset", 8)
        cache.put("k", 1)
        cache.get("k")
        memo.reset_all()
        assert len(cache) == 0 and not cache.touched

    def test_stats_snapshot_prefix_and_touched_filter(self):
        memo.reset_all()
        cache = memo.get_cache("test_registry_stats", 8)
        assert "memo_test_registry_stats_hits" not in memo.stats_snapshot()
        cache.get("miss")
        snap = memo.stats_snapshot()
        assert snap["memo_test_registry_stats_misses"] == 1.0
        assert snap["memo_test_registry_stats_hits"] == 0.0
        assert snap["memo_test_registry_stats_size"] == 0.0
        custom = memo.stats_snapshot("x_", only_touched=False)
        assert "x_test_registry_stats_misses" in custom


_LINE = bytes(range(64))
_LINE_ECC = codec.line_ecc_uncached(_LINE)
_SHA1 = make_engine("sha1")
_MD5 = make_engine("md5")
_CRC32 = make_engine("crc32")
_TRUNCATED = TruncatedEngine(make_engine("sha1"), 32)

#: Each memoized kernel beside its uncached form.
_KERNELS = {
    "line_ecc": (codec.line_ecc, codec.line_ecc_uncached),
    "word_eccs": (codec.word_eccs, None),
    "decode_line": (lambda data: codec.decode_line(data, _LINE_ECC),
                    lambda data: codec.decode_line_uncached(data, _LINE_ECC)),
    "sha1": (_SHA1.fingerprint, _SHA1._digest),
    "md5": (_MD5.fingerprint, _MD5._digest),
    "crc32": (_CRC32.fingerprint, _CRC32._digest),
    "truncated": (_TRUNCATED.fingerprint,
                  lambda data: _SHA1._digest(data) & 0xFFFFFFFF),
}


class TestMemoizedKernelsTakeBytearray:
    """A memoized kernel returns for a ``bytearray`` what it returns for
    ``bytes(data)``, as its uncached form does, with the same cache
    traffic; invalid lines keep their errors."""

    @pytest.mark.parametrize("name", sorted(_KERNELS))
    def test_bytearray_gives_the_bytes_value(self, name):
        kernel, uncached = _KERNELS[name]
        memo.reset_all()
        value = kernel(bytearray(_LINE))
        assert value == kernel(_LINE)
        if uncached is not None:
            assert value == uncached(bytearray(_LINE)) == uncached(_LINE)
        traffic = memo.stats_snapshot()
        memo.reset_all()
        kernel(_LINE)
        kernel(_LINE)
        assert memo.stats_snapshot() == traffic

    @pytest.mark.parametrize("name", sorted(_KERNELS))
    @pytest.mark.parametrize("data, message", [
        (bytes(63), "cache line must be 64 bytes, got 63"),
        (bytes(65), "cache line must be 64 bytes, got 65"),
        ("x" * 64, "cache line must be bytes, got str"),
        (None, "cache line must be bytes, got NoneType"),
    ], ids=["63-bytes", "65-bytes", "str", "None"])
    def test_bad_input_messages(self, name, data, message):
        with pytest.raises(ValueError) as err:
            _KERNELS[name][0](data)
        assert str(err.value) == message
