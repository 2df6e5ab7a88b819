"""Tests for the LRCU (least-reference-count-used) cache."""

import pytest

from repro.core.lrcu import LRCUCache


class TestBasics:
    def test_put_get(self):
        c = LRCUCache(capacity=4)
        c.put("a", 1)
        assert c.get("a") == 1
        assert "a" in c
        assert len(c) == 1

    def test_get_absent(self):
        assert LRCUCache(capacity=2).get("x") is None

    def test_count_starts_at_one(self):
        c = LRCUCache(capacity=4)
        c.put("a", 1)
        assert c.count("a") == 1
        assert c.count("zz") == 0

    def test_touch_increments(self):
        c = LRCUCache(capacity=4)
        c.put("a", 1)
        assert c.touch("a") == 2
        assert c.count("a") == 2

    def test_touch_absent_raises(self):
        with pytest.raises(KeyError):
            LRCUCache(capacity=2).touch("x")

    def test_touch_saturates_at_max(self):
        c = LRCUCache(capacity=4, max_count=3)
        c.put("a", 1)
        for _ in range(10):
            c.touch("a")
        assert c.count("a") == 3

    def test_remove(self):
        c = LRCUCache(capacity=4)
        c.put("a", 1)
        assert c.remove("a") == 1
        assert c.remove("a") is None
        assert "a" not in c

    def test_validation(self):
        with pytest.raises(ValueError):
            LRCUCache(capacity=0)
        c = LRCUCache(capacity=2, max_count=5)
        with pytest.raises(ValueError):
            c.put("a", 1, count=6)


class TestLRCUEviction:
    def test_evicts_lowest_count(self):
        c = LRCUCache(capacity=3, decay_period=0)
        c.put("hot", 1)
        c.touch("hot")
        c.touch("hot")
        c.put("warm", 2)
        c.touch("warm")
        c.put("cold", 3)
        evicted = c.put("new", 4)
        assert evicted == ("cold", 3)
        assert "hot" in c and "warm" in c

    def test_ties_broken_by_lru(self):
        c = LRCUCache(capacity=3, decay_period=0)
        c.put("a", 1)
        c.put("b", 2)
        c.put("c", 3)
        c.get("a")  # refresh a's recency; b becomes LRU within count-1
        evicted = c.put("d", 4)
        assert evicted[0] == "b"

    def test_count_one_evicted_before_referenced(self):
        """The paper's core claim: referH==1 entries go first."""
        c = LRCUCache(capacity=2, decay_period=0)
        c.put("referenced", 1)
        c.touch("referenced")
        c.put("once", 2)
        c.put("new", 3)
        assert "referenced" in c
        assert "once" not in c

    def test_eviction_counter(self):
        c = LRCUCache(capacity=1, decay_period=0)
        c.put("a", 1)
        c.put("b", 2)
        assert c.evictions == 1

    def test_replace_existing_does_not_evict(self):
        c = LRCUCache(capacity=1, decay_period=0)
        c.put("a", 1)
        assert c.put("a", 2) is None
        assert c.get("a") == 2


class TestPlainLRUMode:
    def test_evicts_least_recently_used_regardless_of_count(self):
        c = LRCUCache(capacity=3, decay_period=0, use_lrcu=False)
        c.put("old_hot", 1)
        for _ in range(5):
            c.touch("old_hot")
        c.put("mid", 2)
        c.put("recent", 3)
        c.get("mid")
        c.get("recent")
        evicted = c.put("new", 4)
        # LRU mode ignores the high count: old_hot is the victim.
        assert evicted[0] == "old_hot"


class TestDecay:
    def test_decay_reduces_counts(self):
        c = LRCUCache(capacity=16, decay_period=8, decay_amount=1)
        c.put("a", 1)          # op 1
        for _ in range(5):     # ops 2-6
            c.touch("a")
        assert c.count("a") == 6
        assert c.decay_passes == 0
        for i in range(2):     # ops 7-8: one decay pass
            c.put(f"k{i}", i)
        assert c.count("a") == 5
        assert c.decay_passes == 1

    def test_decay_floors_at_one(self):
        c = LRCUCache(capacity=16, decay_period=2, decay_amount=10)
        c.put("a", 1)
        c.put("b", 2)
        c.put("c", 3)
        assert c.count("a") == 1

    def test_decay_disabled(self):
        c = LRCUCache(capacity=16, decay_period=0)
        c.put("a", 1)
        c.touch("a")
        for i in range(50):
            c.put(f"k{i}", i)
        assert c.count("a") == 2
        assert c.decay_passes == 0



class TestDecayOps:
    """Every operation advances the decay epoch."""

    def test_touches_drive_decay(self):
        c = LRCUCache(capacity=16, decay_period=4, decay_amount=1)
        c.put("a", 1)          # op 1
        c.touch("a")           # op 2 -> count 2
        c.touch("a")           # op 3 -> count 3
        c.touch("a")           # op 4 -> count 4, then decay -> 3
        assert c.decay_passes == 1
        assert c.count("a") == 3

    def test_gets_drive_decay_even_on_miss(self):
        c = LRCUCache(capacity=16, decay_period=3, decay_amount=1)
        c.put("a", 1)
        c.touch("a")           # count 2 (op 2)
        c.get("nope")          # miss still ticks (op 3 -> decay)
        assert c.decay_passes == 1
        assert c.count("a") == 1

    def test_replace_put_drives_decay(self):
        c = LRCUCache(capacity=16, decay_period=2, decay_amount=1)
        c.put("a", 1)          # op 1
        assert c.put("a", 2) is None  # replace, op 2 -> decay
        assert c.decay_passes == 1

    def test_touch_returns_pre_decay_count(self):
        # The bump that triggers the pass reports its own result; the
        # decay applies after.
        c = LRCUCache(capacity=16, decay_period=2, decay_amount=1)
        c.put("a", 1)          # op 1
        assert c.touch("a") == 2  # op 2 fires decay, return value is 2
        assert c.count("a") == 1  # decayed afterwards

    def test_decay_disabled_ignores_ops(self):
        c = LRCUCache(capacity=16, decay_period=0)
        c.put("a", 1)
        for _ in range(100):
            c.get("a")
        assert c.decay_passes == 0

    def test_items_iteration(self):
        c = LRCUCache(capacity=4, decay_period=0)
        c.put("a", 10)
        c.touch("a")
        items = list(c.items())
        assert items == [("a", 10, 2)]


class TestStress:
    def test_capacity_never_exceeded(self):
        import random
        rnd = random.Random(0)
        c = LRCUCache(capacity=32, decay_period=64)
        for i in range(5000):
            key = rnd.randrange(200)
            if key in c:
                c.touch(key)
            else:
                c.put(key, key)
            assert len(c) <= 32

    def test_internal_consistency_after_churn(self):
        import random
        rnd = random.Random(1)
        c = LRCUCache(capacity=16, decay_period=32)
        for i in range(3000):
            op = rnd.randrange(3)
            key = rnd.randrange(64)
            if op == 0:
                c.put(key, key)
            elif op == 1 and key in c:
                c.touch(key)
            elif op == 2:
                c.remove(key)
        # Every key reported by items() must be retrievable.
        for key, value, count in c.items():
            assert c.get(key) == value
            assert c.count(key) == count
