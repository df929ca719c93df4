"""Test-side reference cache: the O(n) victim scan the heap replaced.

No flag in ``src/`` selects this.  :class:`ScanCache` is a
:class:`~repro.core.cache.PeerCache` whose victim is picked the way
``insert`` picked it before the index existed — ``min`` over
``entries`` by current priority, so ties go to the first key in dict
order — and which never reads the heap.  Admission, accounting and the
inflation rule are the production code; only *which entry leaves* has a
second, independent implementation.

:class:`Pair` applies one operation stream to two caches and requires
them to agree after every step; :func:`run_stream` is the seeded stream.
``tests/test_cache_model.py`` pairs the production cache with the scan,
``tests/test_replacement.py`` pairs two policies that should coincide.
"""

from __future__ import annotations

import random

from repro.core.cache import CachedCopy, PeerCache
from repro.core.invariants import check_cache


class ScanCache(PeerCache):
    """``PeerCache`` with the pre-index victim scan."""

    def _pop_victim(self) -> CachedCopy:
        entries = self.entries
        return entries.pop(min(entries, key=lambda k: entries[k].priority))


class Pair:
    """One op stream applied to a cache and to its reference."""

    def __init__(self, cache: PeerCache, reference: PeerCache):
        self.cache = cache
        self.reference = reference
        self.floor = 0.0

    def insert(self, key, size, ac, dist, now):
        evicted = [
            cache.insert(
                CachedCopy(key=key, size_bytes=size, version=0,
                           access_count=ac, region_distance=dist),
                now,
            )
            for cache in (self.cache, self.reference)
        ]
        assert evicted[0] == evicted[1]
        return evicted[0]

    def hit(self, key, ac, now):
        for cache in (self.cache, self.reference):
            entry = cache.get(key)
            if entry is not None:
                entry.access_count = ac  # the peer layer's job; may go down
            cache.hit(key, now)

    def evict(self, key):
        assert self.cache.evict(key) == self.reference.evict(key)

    def clear(self):
        self.cache.clear()
        self.reference.clear()

    def check_agreement(self):
        cache, ref = self.cache, self.reference
        assert list(cache.entries) == list(ref.entries)
        assert cache.inflation == ref.inflation
        assert cache.used_bytes == ref.used_bytes
        assert (cache.insertions, cache.evictions, cache.rejections) == (
            ref.insertions, ref.evictions, ref.rejections)
        assert cache.used_bytes <= cache.capacity_bytes
        if not cache.entries:
            assert cache.used_bytes == 0.0
        if cache.policy.uses_inflation:
            assert cache.inflation >= self.floor
            self.floor = cache.inflation

    def check_everything(self):
        self.check_agreement()
        for key, entry in self.cache.entries.items():
            assert entry.priority == self.reference.entries[key].priority
        # Index invariant + ``2 x live + c`` bound + byte accounting.
        check_cache(self.cache)
        check_cache(self.reference)


def run_stream(seed: int, make_pair, n_ops: int) -> Pair:
    """``n_ops`` seeded inserts/hits/evicts/clears on ``make_pair(capacity)``."""
    rng = random.Random(seed)
    slots = rng.choice([3, 8, 20, 40])
    pair = make_pair(100.0 * slots)
    n_keys = slots * rng.choice([1, 2, 4])
    # Few distinct sizes and distances, so priorities tie constantly.
    sizes = [100.0, 100.0, 100.0, 50.0, 250.0, 100.0 * slots, 100.0 * slots + 1]
    now = 0.0
    for step in range(n_ops):
        now += rng.choice([0.0, 0.0, 0.5])  # repeated timestamps
        roll = rng.random()
        if roll < 0.45:
            pair.insert(rng.randrange(n_keys), rng.choice(sizes),
                        rng.randrange(6), rng.choice([0.0, 100.0, 350.0]), now)
        elif roll < 0.88:
            pair.hit(rng.randrange(n_keys), rng.randrange(9), now)
        elif roll < 0.995:
            pair.evict(rng.randrange(n_keys))
        else:
            pair.clear()
        pair.check_agreement()
        if step % 64 == 0:
            pair.check_everything()
    pair.check_everything()
    return pair
