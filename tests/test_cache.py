"""Unit tests for the peer cache (repro.core.cache)."""

import random

import pytest

from repro.core.cache import CachedCopy, PeerCache
from repro.core.replacement import GDLDPolicy, GDSizePolicy, LRUPolicy


def copy(key, size=100.0, ac=0, reg_dst=0.0, version=0):
    return CachedCopy(
        key=key, size_bytes=size, version=version,
        access_count=ac, region_distance=reg_dst,
    )


class TestBasicOperations:
    def test_insert_and_get(self):
        cache = PeerCache(1000)
        cache.insert(copy(1, size=100), now=0.0)
        assert 1 in cache
        assert cache.get(1).key == 1
        assert cache.used_bytes == 100

    def test_get_missing_is_none(self):
        assert PeerCache(1000).get(5) is None

    def test_reinsert_replaces_in_place(self):
        cache = PeerCache(1000)
        cache.insert(copy(1, size=100, version=0), now=0.0)
        cache.insert(copy(1, size=200, version=3), now=1.0)
        assert len(cache) == 1
        assert cache.used_bytes == 200
        assert cache.get(1).version == 3

    def test_oversized_item_rejected_without_churn(self):
        cache = PeerCache(500)
        cache.insert(copy(1, size=400), now=0.0)
        evicted = cache.insert(copy(2, size=600), now=1.0)
        assert evicted == []
        assert 2 not in cache
        assert 1 in cache
        assert cache.rejections == 1

    def test_explicit_evict(self):
        cache = PeerCache(1000)
        cache.insert(copy(1, size=100), now=0.0)
        assert cache.evict(1)
        assert 1 not in cache
        assert cache.used_bytes == 0
        assert not cache.evict(1)

    def test_clear(self):
        cache = PeerCache(1000)
        cache.insert(copy(1), now=0.0)
        cache.insert(copy(2), now=0.0)
        cache.clear()
        assert len(cache) == 0
        assert cache.used_bytes == 0

    def test_emptied_cache_holds_exactly_zero_bytes(self):
        """``used_bytes`` is a running float sum: evicting in another
        order than admitting leaves a residue (~2e-12) unless the cache
        zeroes it when the last entry leaves — and with a residue, an
        item as large as the capacity went looking for a victim in an
        empty cache."""
        for seed in range(13):
            rng = random.Random(seed)
            sizes = [rng.uniform(1000, 10000) for _ in range(6)]
            capacity = 0.0
            for size in sizes:
                capacity += size
            cache = PeerCache(capacity)
            for key, size in enumerate(sizes):
                assert cache.insert(copy(key, size=size), now=0.0) == []
            assert cache.used_bytes == capacity
            order = list(range(6))
            rng.shuffle(order)
            for key in order:
                assert cache.evict(key)
            assert cache.used_bytes == 0.0
            assert cache.insert(copy(9, size=capacity), now=1.0) == []
            assert 9 in cache and cache.used_bytes == capacity

    def test_last_entry_leaving_through_insert_zeroes_the_bytes(self):
        """The replaced-copy pop and the victim loop empty a cache too."""
        for replace in (True, False):
            capacity = 0.1 + 0.3
            cache = PeerCache(capacity)
            cache.insert(copy(1, size=0.1), now=0.0)
            cache.insert(copy(2, size=0.3), now=0.0)
            cache.evict(1)
            assert cache.used_bytes > 0.3  # 0.1 + 0.3 - 0.1 = 0.30000000000000004
            evicted = cache.insert(copy(2 if replace else 3, size=capacity), now=1.0)
            assert evicted == ([] if replace else [2])
            assert cache.used_bytes == capacity

    def test_zero_capacity_caches_nothing(self):
        cache = PeerCache(0)
        assert cache.insert(copy(1, size=1), now=0.0) == []
        assert 1 not in cache

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            PeerCache(-1)


class TestAdmissionSequence:
    def test_ties_go_to_the_entry_admitted_first(self):
        """Equal priorities break by admission order; a re-insert counts
        as a new admission (it also moves the key to the end of
        ``entries``)."""
        cache = PeerCache(300, policy=GDSizePolicy())
        for key in (1, 2, 3):
            cache.insert(copy(key, size=100), now=0.0)
        cache.insert(copy(1, size=100), now=0.0)  # re-admitted: now last
        assert list(cache.entries) == [2, 3, 1]
        assert cache.insert(copy(4, size=200), now=0.0) == [2, 3]

    def test_sequence_is_not_part_of_a_copy(self):
        import inspect

        first, second = copy(1), copy(1)
        cache = PeerCache(1000)
        cache.insert(copy(0), now=0.0)
        cache.insert(second, now=0.0)
        second.priority = first.priority
        assert second.seq != first.seq
        assert first == second and repr(first) == repr(second)
        assert "seq" not in inspect.signature(CachedCopy).parameters


class TestReplacement:
    def test_evicts_minimum_priority(self):
        cache = PeerCache(300, policy=GDLDPolicy(wr=1.0, wd=0.0, ws=0.0))
        cache.insert(copy(1, size=100, ac=10), now=0.0)
        cache.insert(copy(2, size=100, ac=1), now=0.0)   # lowest utility
        cache.insert(copy(3, size=100, ac=5), now=0.0)
        evicted = cache.insert(copy(4, size=100, ac=7), now=1.0)
        assert evicted == [2]
        assert set(cache.entries) == {1, 3, 4}

    def test_evicts_several_until_fit(self):
        cache = PeerCache(300, policy=GDLDPolicy(wr=1.0, wd=0.0, ws=0.0))
        cache.insert(copy(1, size=100, ac=1), now=0.0)
        cache.insert(copy(2, size=100, ac=2), now=0.0)
        cache.insert(copy(3, size=100, ac=9), now=0.0)
        evicted = cache.insert(copy(4, size=200, ac=5), now=1.0)
        assert evicted == [1, 2]
        assert set(cache.entries) == {3, 4}

    def test_greedy_dual_inflation_advances(self):
        """L rises to each victim's priority (the paper's U(d) = L + U(d))."""
        cache = PeerCache(200, policy=GDLDPolicy(wr=1.0, wd=0.0, ws=0.0))
        cache.insert(copy(1, size=100, ac=4), now=0.0)
        cache.insert(copy(2, size=100, ac=6), now=0.0)
        assert cache.inflation == 0.0
        cache.insert(copy(3, size=100, ac=1), now=1.0)  # evicts key 1 (U=4)
        assert cache.inflation == pytest.approx(4.0)
        # Key 3 was primed at L + U = 4 + 1 = 5.
        assert cache.get(3).priority == pytest.approx(5.0)

    def test_inflation_gives_newcomers_recency_advantage(self):
        """A long-resident cold entry loses to a fresh entry of equal
        base utility once L has advanced — the Greedy-Dual property."""
        cache = PeerCache(200, policy=GDLDPolicy(wr=1.0, wd=0.0, ws=0.0))
        cache.insert(copy(1, size=100, ac=2), now=0.0)   # old, priority 2
        cache.insert(copy(2, size=100, ac=1), now=0.0)   # old, priority 1
        cache.insert(copy(3, size=100, ac=2), now=1.0)   # evicts 2, L=1, pri=3
        assert set(cache.entries) == {1, 3}
        # Next insertion evicts key 1 (priority 2 < key 3's 3) even
        # though both had equal base utility.
        cache.insert(copy(4, size=100, ac=1), now=2.0)
        assert set(cache.entries) == {3, 4}

    def test_lru_no_inflation(self):
        cache = PeerCache(200, policy=LRUPolicy())
        cache.insert(copy(1, size=100), now=0.0)
        cache.insert(copy(2, size=100), now=1.0)
        cache.hit(1, now=2.0)  # refresh key 1
        evicted = cache.insert(copy(3, size=100), now=3.0)
        assert evicted == [2]
        assert cache.inflation == 0.0

    def test_gdsize_evicts_largest_first(self):
        cache = PeerCache(1000, policy=GDSizePolicy())
        cache.insert(copy(1, size=500), now=0.0)
        cache.insert(copy(2, size=400), now=0.0)
        evicted = cache.insert(copy(3, size=300), now=1.0)
        assert evicted == [1]

    def test_eviction_counters(self):
        cache = PeerCache(100)
        cache.insert(copy(1, size=100), now=0.0)
        cache.insert(copy(2, size=100), now=1.0)
        assert cache.insertions == 2
        assert cache.evictions == 1


class TestHit:
    def test_hit_refreshes_priority(self):
        cache = PeerCache(1000, policy=GDLDPolicy(wr=1.0, wd=0.0, ws=0.0))
        cache.insert(copy(1, size=100, ac=1), now=0.0)
        entry = cache.get(1)
        entry.access_count = 9
        cache.hit(1, now=5.0)
        assert entry.priority == pytest.approx(9.0)
        assert entry.last_access == 5.0

    def test_hit_missing_returns_none(self):
        assert PeerCache(100).hit(3, now=0.0) is None


class TestAdmissionControl:
    def test_cross_region_admitted(self):
        assert PeerCache.should_admit(responder_region_id=2, requester_region_id=1)

    def test_same_region_rejected(self):
        """§3.2: data already available in the region is not re-cached."""
        assert not PeerCache.should_admit(responder_region_id=1, requester_region_id=1)


class TestTTRFreshness:
    def test_fresh_within_window(self):
        e = copy(1)
        e.ttr = 10.0
        e.validated_at = 100.0
        assert e.is_fresh(105.0)
        assert not e.is_fresh(110.0)
        assert not e.is_fresh(200.0)

    def test_zero_ttr_always_stale(self):
        e = copy(1)
        e.ttr = 0.0
        e.validated_at = 100.0
        assert not e.is_fresh(100.0)
