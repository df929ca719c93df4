"""Property-based tests (hypothesis) on core data structures and invariants."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cache import CachedCopy, PeerCache
from repro.core.geohash import GeographicHash
from repro.core.regions import RegionTable
from repro.core.replacement import GDLDPolicy, GDSizePolicy
from repro.geom import point_in_polygon, polygon_centroid
from repro.net import SpatialGrid
from repro.sim import Simulator, WelfordAccumulator

# ---------------------------------------------------------------------------
# Simulator: event ordering is a total order by (time, insertion)
# ---------------------------------------------------------------------------

@given(st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=1, max_size=50))
def test_simulator_executes_in_nondecreasing_time_order(delays):
    sim = Simulator()
    executed = []
    for d in delays:
        sim.schedule(d, lambda t=d: executed.append(sim.now))
    sim.run()
    assert executed == sorted(executed)
    assert len(executed) == len(delays)


@given(
    st.lists(
        st.floats(min_value=0.01, max_value=100.0), min_size=1, max_size=20
    )
)
def test_process_timeouts_accumulate(delays):
    """A timer process that reschedules itself after each delay ends at
    the sum of its delays."""
    sim = Simulator()
    ends = []
    pending = list(delays)

    def step():
        if pending:
            sim.schedule(pending.pop(0), step)
        else:
            ends.append(sim.now)

    sim.schedule(0.0, step)
    sim.run()
    assert ends[0] == sum(delays) or math.isclose(ends[0], sum(delays), rel_tol=1e-9)


# ---------------------------------------------------------------------------
# Welford: the running mean matches numpy for any data
# ---------------------------------------------------------------------------

@given(
    st.lists(
        st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
        min_size=2,
        max_size=200,
    )
)
def test_welford_matches_numpy(xs):
    acc = WelfordAccumulator()
    for x in xs:
        acc.add(x)
    arr = np.array(xs)
    assert acc.count == len(xs)
    assert math.isclose(acc.mean, float(arr.mean()), rel_tol=1e-9, abs_tol=1e-6)


# ---------------------------------------------------------------------------
# Cache: capacity and membership invariants under arbitrary workloads
# ---------------------------------------------------------------------------

entry_strategy = st.tuples(
    st.integers(min_value=0, max_value=30),          # key
    st.floats(min_value=1.0, max_value=400.0),        # size
    st.integers(min_value=0, max_value=100),          # access count
    st.floats(min_value=0.0, max_value=1000.0),       # region distance
)


@given(st.lists(entry_strategy, min_size=1, max_size=80))
@settings(max_examples=60)
def test_cache_never_exceeds_capacity(ops):
    cache = PeerCache(1000.0, policy=GDLDPolicy())
    now = 0.0
    for key, size, ac, dist in ops:
        now += 1.0
        cache.insert(
            CachedCopy(
                key=key, size_bytes=size, version=0,
                access_count=ac, region_distance=dist,
            ),
            now,
        )
        assert cache.used_bytes <= cache.capacity_bytes + 1e-9
        # used_bytes equals the sum of resident entry sizes.
        assert math.isclose(
            cache.used_bytes,
            sum(e.size_bytes for e in cache.entries.values()),
            rel_tol=1e-9,
            abs_tol=1e-6,
        )


@given(st.lists(entry_strategy, min_size=1, max_size=80))
@settings(max_examples=60)
def test_cache_inflation_monotone(ops):
    """The Greedy-Dual floor L never decreases."""
    cache = PeerCache(800.0, policy=GDSizePolicy())
    last = cache.inflation
    for i, (key, size, ac, dist) in enumerate(ops):
        cache.insert(
            CachedCopy(key=key, size_bytes=size, version=0, access_count=ac),
            float(i),
        )
        assert cache.inflation >= last - 1e-12
        last = cache.inflation


# ---------------------------------------------------------------------------
# Spatial grid == brute force for arbitrary configurations
# ---------------------------------------------------------------------------

@given(
    st.integers(min_value=1, max_value=60),
    st.integers(min_value=0, max_value=2**31 - 1),
)
@settings(max_examples=40)
def test_spatial_grid_equals_brute_force(n, seed):
    rng = np.random.default_rng(seed)
    positions = rng.uniform(0, 900, (n, 2))
    alive = rng.random(n) > 0.2
    grid = SpatialGrid(900, 900, cell_size=250)
    grid.rebuild(positions, alive)
    point = tuple(rng.uniform(0, 900, 2))
    got = set(grid.within_range(point, 250).tolist())
    d = np.hypot(positions[:, 0] - point[0], positions[:, 1] - point[1])
    want = set(np.flatnonzero((d <= 250) & alive).tolist())
    assert got == want


# ---------------------------------------------------------------------------
# Geographic hash: determinism and home-region optimality
# ---------------------------------------------------------------------------

@given(st.integers(min_value=0, max_value=10**9), st.integers(min_value=1, max_value=16))
@settings(max_examples=60)
def test_home_region_minimizes_center_distance(key, n_regions):
    table = RegionTable.grid(1200, 1200, n_regions)
    h = GeographicHash(1200, 1200, salt=7)
    loc = h.location_of(key)
    home = h.home_region(key, table)
    d_home = math.hypot(home.center[0] - loc[0], home.center[1] - loc[1])
    for region in table:
        d = math.hypot(region.center[0] - loc[0], region.center[1] - loc[1])
        assert d_home <= d + 1e-9


@given(st.integers(min_value=0, max_value=10**9))
def test_hash_location_in_plane(key):
    h = GeographicHash(640, 480, salt=3)
    x, y = h.location_of(key)
    assert 0 <= x < 640
    assert 0 <= y < 480


# ---------------------------------------------------------------------------
# Geometry: centroid of a rectangle lies inside it, for any rectangle
# ---------------------------------------------------------------------------

@given(
    st.floats(min_value=-1e4, max_value=1e4),
    st.floats(min_value=-1e4, max_value=1e4),
    st.floats(min_value=0.1, max_value=1e4),
    st.floats(min_value=0.1, max_value=1e4),
)
def test_rectangle_centroid_inside(x0, y0, w, hgt):
    rect = ((x0, y0), (x0 + w, y0), (x0 + w, y0 + hgt), (x0, y0 + hgt))
    c = polygon_centroid(rect)
    assert point_in_polygon(c, rect)


# ---------------------------------------------------------------------------
# Region grid: the tiling partitions the plane (every interior point in
# exactly one region, modulo shared boundaries)
# ---------------------------------------------------------------------------

@given(
    st.integers(min_value=1, max_value=20),
    st.floats(min_value=1.0, max_value=1199.0),
    st.floats(min_value=1.0, max_value=1199.0),
)
@settings(max_examples=80)
def test_grid_tiling_covers_plane(n_regions, x, y):
    table = RegionTable.grid(1200, 1200, n_regions)
    region = table.region_of_point((x, y))
    assert region is not None
    assert region.contains((x, y))
