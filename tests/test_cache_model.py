"""Model-based tests: the heap-indexed ``PeerCache`` against the scan.

``tests/reference_cache.py`` keeps the O(n) ``min`` scan the victim heap
replaced.  Both caches are driven with the same operations — by a
Hypothesis ``RuleBasedStateMachine`` and by a seeded random stream that
does not depend on the Hypothesis budget — and must agree after every
step on what was evicted, on ``entries`` order, on the inflation floor
and on every counter, under all four policies, with hits that raise
*and lower* priorities (the simulator resets ``access_count`` when a
peer changes region).

A third test pins the *cost* of an eviction by counting priority
comparisons instead of timing them.
"""

from __future__ import annotations

import math
import random

import pytest

from repro.core.cache import INDEX_SLACK, CachedCopy, PeerCache
from repro.core.replacement import (
    GDLDPolicy,
    GDSizePolicy,
    LFUPolicy,
    LRUPolicy,
    ReplacementPolicy,
)
from tests.reference_cache import Pair, ScanCache, run_stream

POLICIES = {
    "gdld": GDLDPolicy,
    "gdsize": GDSizePolicy,
    "lru": LRUPolicy,
    "lfu": LFUPolicy,
}


def scan_pair(name):
    """``capacity -> Pair`` of the production cache and the scan."""
    policy = POLICIES[name]
    return lambda capacity: Pair(
        PeerCache(capacity, policy()), ScanCache(capacity, policy()))


# -- seeded differential (independent of the Hypothesis budget) ---------------


@pytest.mark.parametrize("first_seed,name", zip(range(0, 300, 75), sorted(POLICIES)))
def test_seeded_differential_against_the_scan(first_seed, name):
    """300 seeds x 3,000 ops in all: 75 seeds under each policy."""
    evictions = 0
    for seed in range(first_seed, first_seed + 75):
        pair = run_stream(seed, scan_pair(name), 3000)
        evictions += pair.cache.evictions
    assert evictions > 75 * 300  # the streams do exercise replacement


def test_index_stays_within_its_size_bound():
    """Every way a record goes stale — explicit evictions, re-inserts of
    one key, hits that keep lowering one priority — is compacted away
    before the heap exceeds ``2 x live + INDEX_SLACK``."""
    pair = scan_pair("lfu")(100.0 * 200)
    for key in range(200):
        pair.insert(key, 100.0, key % 7, 0.0, 0.0)
    for key in range(195):
        pair.evict(key)
        pair.check_everything()
    assert len(pair.cache._heap) <= 2 * 5 + INDEX_SLACK
    for round_ in range(100):
        pair.insert(199, 100.0, round_ % 5, 0.0, 1.0)
        pair.check_everything()
    for count in range(100, 0, -1):
        pair.hit(198, count, 2.0)
        pair.check_everything()
    assert len(pair.insert(500, 100.0 * 200, 0, 0.0, 3.0)) == 5
    pair.check_everything()


# -- Hypothesis state machine ---------------------------------------------------

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from hypothesis.stateful import (  # noqa: E402
    RuleBasedStateMachine,
    invariant,
    rule,
)

CAPACITY = 1000.0
KEYS = st.integers(0, 11)
#: Equal sizes so priorities tie; one exact fit; one larger than capacity.
SIZES = st.sampled_from([100.0, 100.0, 100.0, 250.0, 400.0, CAPACITY, CAPACITY + 1])
COUNTS = st.integers(0, 8)
STEPS = st.sampled_from([0.0, 0.0, 1.0])


class CacheMachine(RuleBasedStateMachine):
    """Insert / hit / evict / clear on both caches, compared every step."""

    policy = "gdld"

    def __init__(self):
        super().__init__()
        self.pair = scan_pair(self.policy)(CAPACITY)
        self.now = 0.0

    @rule(key=KEYS, size=SIZES, ac=COUNTS,
          dist=st.sampled_from([0.0, 100.0, 350.0]), dt=STEPS)
    def insert(self, key, size, ac, dist, dt):
        self.now += dt
        self.pair.insert(key, size, ac, dist, self.now)

    @rule(key=KEYS, ac=COUNTS, dt=STEPS)
    def hit(self, key, ac, dt):
        """A hit after the access count rose, fell, or stayed."""
        self.now += dt
        self.pair.hit(key, ac, self.now)

    @rule(key=KEYS)
    def evict(self, key):
        self.pair.evict(key)

    @rule()
    def clear(self):
        self.pair.clear()

    @invariant()
    def caches_agree_and_index_is_sound(self):
        self.pair.check_everything()


MACHINE_SETTINGS = settings(
    max_examples=60,
    stateful_step_count=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
    derandomize=True,  # reproducible CI: examples derive from the test name
)


def machine_case(name):
    machine = type(f"CacheMachine_{name}", (CacheMachine,), {"policy": name})
    machine.TestCase.settings = MACHINE_SETTINGS
    return machine.TestCase


TestMachineGDLD = machine_case("gdld")
TestMachineGDSize = machine_case("gdsize")
TestMachineLRU = machine_case("lru")
TestMachineLFU = machine_case("lfu")


# -- eviction cost, pinned by count ---------------------------------------------


class Counted(float):
    """A float that counts every rich comparison made on it."""

    calls = 0

    def _counting(op):
        def compare(self, other):
            Counted.calls += 1
            return op(self, other)
        return compare

    __lt__ = _counting(float.__lt__)
    __le__ = _counting(float.__le__)
    __gt__ = _counting(float.__gt__)
    __ge__ = _counting(float.__ge__)
    __eq__ = _counting(float.__eq__)
    __hash__ = float.__hash__


class CountedLFU(ReplacementPolicy):
    """LFU with aging whose priorities are :class:`Counted`."""

    def base_utility(self, entry):
        return float(entry.access_count)

    def prime(self, entry, floor, now):
        entry.priority = Counted(floor + self.base_utility(entry))

    on_hit = prime


def test_eviction_cost_is_logarithmic_by_comparison_count():
    n = 4096
    rng = random.Random(7)
    cache = PeerCache(100.0 * n, CountedLFU())
    counts = {}

    def admit(key):
        counts[key] = rng.randrange(1, 50)
        return cache.insert(
            CachedCopy(key=key, size_bytes=100.0, version=0,
                       access_count=counts[key]), 0.0)

    for key in range(n):
        assert admit(key) == []

    # Steady state: every insert evicts exactly one entry.
    Counted.calls = 0
    for key in range(n, n + 2000):
        assert len(admit(key)) == 1
    assert Counted.calls / 2000 <= 64  # the scan makes n - 1 = 4,095

    # Make every record stale at once: each live entry is hit with a
    # higher count, so its heap record understates its priority.  Lazy
    # repair owes at most one heapreplace per entry hit since it last
    # surfaced, so the next n evictions together stay O(n log n).
    for key in list(cache.entries):
        counts[key] += 1
        cache.get(key).access_count = counts[key]
        cache.hit(key, 1.0)
    Counted.calls = 0
    for key in range(n + 2000, 2 * n + 2000):
        assert len(admit(key)) == 1
    assert Counted.calls <= 8 * n * math.log2(n)  # the scan: 341 n log2 n
    assert len(cache._heap) <= 2 * len(cache) + INDEX_SLACK
