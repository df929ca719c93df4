"""Unit tests for replacement policies (repro.core.replacement)."""

import random

import pytest

from repro.core.cache import CachedCopy, PeerCache
from repro.core.replacement import GDLDPolicy, GDSizePolicy, LFUPolicy, LRUPolicy
from tests.reference_cache import Pair, run_stream


def copy(key=0, size=1024.0, ac=0, reg_dst=0.0, **kw):
    return CachedCopy(
        key=key, size_bytes=size, version=0, access_count=ac,
        region_distance=reg_dst, **kw,
    )


class TestGDLD:
    def test_utility_formula(self):
        p = GDLDPolicy(wr=2.0, wd=0.5, ws=100.0)
        e = copy(ac=3, reg_dst=10.0, size=50.0)
        assert p.base_utility(e) == pytest.approx(2.0 * 3 + 0.5 * 10.0 + 100.0 / 50.0)

    def test_popularity_raises_utility(self):
        p = GDLDPolicy()
        cold = copy(ac=1, reg_dst=100, size=1000)
        hot = copy(ac=50, reg_dst=100, size=1000)
        assert p.base_utility(hot) > p.base_utility(cold)

    def test_distance_raises_utility(self):
        """The paper's key claim: far-away items are worth more."""
        p = GDLDPolicy()
        near = copy(ac=5, reg_dst=100.0, size=1000)
        far = copy(ac=5, reg_dst=900.0, size=1000)
        assert p.base_utility(far) > p.base_utility(near)

    def test_smaller_items_preferred_at_equal_popularity(self):
        p = GDLDPolicy()
        small = copy(ac=5, reg_dst=100, size=512)
        large = copy(ac=5, reg_dst=100, size=8192)
        assert p.base_utility(small) > p.base_utility(large)

    def test_popular_large_item_can_beat_small_cold_item(self):
        """GD-LD fixes GD-Size's blind spot (paper §6.2.1)."""
        p = GDLDPolicy()
        large_popular = copy(ac=40, reg_dst=400, size=10000)
        small_cold = copy(ac=1, reg_dst=400, size=512)
        assert p.base_utility(large_popular) > p.base_utility(small_cold)

    def test_prime_adds_inflation_floor(self):
        p = GDLDPolicy()
        e = copy(ac=2, reg_dst=50, size=1000)
        p.prime(e, floor=7.5, now=0.0)
        assert e.priority == pytest.approx(7.5 + p.base_utility(e))

    def test_on_hit_reprimes_with_updated_count(self):
        p = GDLDPolicy()
        e = copy(ac=2, reg_dst=50, size=1000)
        p.prime(e, floor=0.0, now=0.0)
        before = e.priority
        e.access_count = 10
        p.on_hit(e, floor=0.0, now=1.0)
        assert e.priority > before

    def test_negative_weights_rejected(self):
        with pytest.raises(ValueError):
            GDLDPolicy(wr=-1.0)

    def test_uses_inflation(self):
        assert GDLDPolicy().uses_inflation


class TestGDSize:
    def test_utility_is_inverse_size(self):
        p = GDSizePolicy(scale=1000.0)
        assert p.base_utility(copy(size=500.0)) == pytest.approx(2.0)

    def test_ignores_popularity_and_distance(self):
        """The baseline's defect the paper exploits."""
        p = GDSizePolicy()
        a = copy(ac=1, reg_dst=0, size=1000)
        b = copy(ac=99, reg_dst=900, size=1000)
        assert p.base_utility(a) == p.base_utility(b)

    def test_small_beats_large_always(self):
        p = GDSizePolicy()
        small_cold = copy(ac=0, size=100)
        large_hot = copy(ac=100, size=10000)
        assert p.base_utility(small_cold) > p.base_utility(large_hot)

    def test_invalid_scale(self):
        with pytest.raises(ValueError):
            GDSizePolicy(scale=0)


class TestLRU:
    def test_priority_is_recency(self):
        p = LRUPolicy()
        e = copy()
        p.prime(e, floor=999.0, now=5.0)  # floor ignored
        assert e.priority == 5.0
        p.on_hit(e, floor=999.0, now=9.0)
        assert e.priority == 9.0
        assert e.last_access == 9.0

    def test_does_not_use_inflation(self):
        assert not LRUPolicy().uses_inflation


def test_every_policy_is_exported():
    import repro.core
    from repro.core import replacement

    policies = {
        name for name, obj in vars(replacement).items()
        if isinstance(obj, type) and issubclass(obj, replacement.ReplacementPolicy)
    }
    assert "LFUPolicy" in policies
    assert policies == set(replacement.__all__)
    assert repro.core.LFUPolicy is replacement.LFUPolicy


# -- policy identities as metamorphic oracles (Joy & Jacob's reductions) --------


def assert_same_policy(first, second):
    """Decision- and priority-identical on seeded op streams (hits raise
    and lower counts; sizes and distances vary)."""
    for seed in range(12):
        pair = run_stream(
            seed,
            lambda capacity: Pair(PeerCache(capacity, first),
                                  PeerCache(capacity, second)),
            2000,
        )
        assert pair.cache.evictions > 100


class TestPolicyIdentities:
    def test_gdld_popularity_only_is_lfu(self):
        """GD-LD(wr=1, wd=0, ws=0) decides and prices exactly as LFU."""
        assert_same_policy(GDLDPolicy(wr=1.0, wd=0.0, ws=0.0), LFUPolicy())

    @pytest.mark.parametrize("scale", [1024.0, 3.0, 977.0])
    def test_gdld_size_only_is_gdsize(self, scale):
        """GD-LD(wr=0, wd=0, ws=s) decides and prices exactly as GD-Size(s)."""
        assert_same_policy(GDLDPolicy(wr=0.0, wd=0.0, ws=scale),
                           GDSizePolicy(scale=scale))

    def test_gdsize_over_equal_sizes_is_not_exactly_lru(self):
        """Two entries touched under the same L tie; GD-Size breaks the
        tie by admission order, LRU by recency."""
        victims = {}
        for name, policy in (("gdsize", GDSizePolicy()), ("lru", LRUPolicy())):
            cache = PeerCache(200.0, policy)
            cache.insert(copy(1, size=100.0), 0.0)
            cache.insert(copy(2, size=100.0), 1.0)
            cache.hit(1, 2.0)
            victims[name] = cache.insert(copy(3, size=100.0), 3.0)
        assert victims == {"gdsize": [1], "lru": [2]}

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_gdsize_victim_was_touched_under_the_smallest_floor(self, seed):
        """The form of the Cao & Irani reduction that does hold: over
        equal sizes a GD-Size victim is always an entry last touched
        (admitted or hit) under the smallest L of any live entry — the
        earliest admitted of those."""
        rng = random.Random(seed)
        cache = PeerCache(1200.0, GDSizePolicy())
        touched_under, admitted_at = {}, {}
        evictions = 0
        for step in range(3000):
            key = rng.randrange(30)
            if rng.random() < 0.5:
                if cache.hit(key, float(step)) is not None:
                    touched_under[key] = cache.inflation
                continue
            before = {k: (touched_under[k], admitted_at[k])
                      for k in cache.entries if k != key}
            for victim in cache.insert(copy(key, size=100.0), float(step)):
                assert before[victim] == min(before.values())
                del before[victim]
                evictions += 1
            touched_under[key], admitted_at[key] = cache.inflation, step
        assert evictions > 300

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_gdsize_is_lru_when_an_eviction_separates_every_two_touches(self, seed):
        """Fill at distinct times, then only evicting inserts, each
        optionally followed by hits on the entry just admitted: no two
        entries are ever touched under one L, and GD-Size over equal
        sizes evicts in exactly LRU order.  (size == scale keeps L an
        integer, so no two floors collide by rounding.)"""
        logs = []
        for policy in (GDSizePolicy(scale=1024.0), LRUPolicy()):
            rng = random.Random(seed)
            cache = PeerCache(8 * 1024.0, policy)
            log = []
            for key in range(500):
                log.append(cache.insert(copy(key, size=1024.0), float(key)))
                for _ in range(rng.randrange(3)):
                    cache.hit(key, key + 0.5)
            logs.append(log)
        assert logs[0] == logs[1]
        assert sum(len(evicted) for evicted in logs[0]) == 492
