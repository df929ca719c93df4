"""Property-based tests (hypothesis) on core data structures and invariants."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cache import CachedCopy, PeerCache
from repro.core.geohash import GeographicHash
from repro.core.regions import RegionTable
from repro.core.replacement import GDLDPolicy, GDSizePolicy
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

@given(st.integers(min_value=0, max_value=2000), st.integers(min_value=1, max_value=16))
@settings(max_examples=60)
def test_home_region_minimizes_center_distance(key, n_regions):
    table = RegionTable.grid(1200, 1200, n_regions)
    loc = GeographicHash(1200, 1200, salt=7).locations(key + 1)[key]
    homes, _ = table.home_and_replica([loc])
    home = table.get(int(homes[0]))
    d_home = math.hypot(home.center[0] - loc[0], home.center[1] - loc[1])
    for region in table:
        d = math.hypot(region.center[0] - loc[0], region.center[1] - loc[1])
        assert d_home <= d + 1e-9


@given(st.integers(min_value=-2**70, max_value=2**70))
def test_hash_location_in_plane(salt):
    xs, ys = GeographicHash(640, 480, salt=salt).locations(300).T
    assert ((0 <= xs) & (xs < 640)).all()
    assert ((0 <= ys) & (ys < 480)).all()


@given(st.integers(min_value=-2**70, max_value=2**70),
       st.integers(min_value=0, max_value=300),
       st.sampled_from([(1200.0, 1200.0), (640.0, 480.0), (1.0, 3.5)]))
@settings(max_examples=80)
def test_locations_equal_the_scalar_hash(salt, n, plane):
    """The uint64 hash wraps exactly as the Python-integer one masks,
    negative and over-wide salts included: every bit of every location."""
    from tests.reference_kernel import scalar_locations

    h = GeographicHash(*plane, salt=salt)
    got = h.locations(n)
    assert got.shape == (n, 2)
    assert np.array_equal(got, scalar_locations(h, n))


# ---------------------------------------------------------------------------
# Region grid: one membership rule (the grid arithmetic plus the
# deleted-cell mask) and one home/replica rule
# ---------------------------------------------------------------------------

_PLANES = st.sampled_from([600.0, 1000.0, 1200.0, 3200.0])


def _table_with_deletions(side, n_regions, seed):
    """A grid table with a random set of its cells deleted (never all)."""
    table = RegionTable.grid(side, side, n_regions)
    rng = np.random.default_rng(seed)
    n_deleted = int(rng.integers(0, n_regions))
    for region_id in rng.choice(n_regions, size=n_deleted, replace=False).tolist():
        table.delete(region_id)
    return table, rng


def _holders(table, x, y):
    """Every cell, live or deleted, whose closed rectangle holds (x, y)."""
    held = []
    for r in range(table.rows):
        for c in range(table.cols):
            x0, x1 = c * table.width / table.cols, (c + 1) * table.width / table.cols
            y0, y1 = r * table.height / table.rows, (r + 1) * table.height / table.rows
            if x0 <= x <= x1 and y0 <= y <= y1:
                held.append(r * table.cols + c)
    return held


@given(
    st.integers(min_value=1, max_value=20),
    st.floats(min_value=1.0, max_value=1199.0),
    st.floats(min_value=1.0, max_value=1199.0),
)
@settings(max_examples=80)
def test_grid_tiling_covers_plane(n_regions, x, y):
    table = RegionTable.grid(1200, 1200, n_regions)
    [region_id] = table.regions_of_points(np.array([[x, y]])).tolist()
    assert region_id >= 0
    assert region_id in _holders(table, x, y)


@given(st.integers(min_value=1, max_value=64), _PLANES,
       st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=120, deadline=None)
def test_regions_of_points_equals_the_scalar_scan(n_regions, side, seed):
    from tests.reference_kernel import scalar_region_of

    table, rng = _table_with_deletions(side, n_regions, seed)
    points = np.concatenate([
        rng.uniform(0.0, side, (200, 2)),          # on the plane
        rng.uniform(-side, 2.0 * side, (100, 2)),  # around and off it
        rng.uniform(0.0, side, (20, 2)),
    ])
    points[-20:-10, 0] = np.nan
    points[-10:, 1] = np.nan
    huge = [1e300, -1e300, np.inf, -np.inf, 1e19]
    points[-30:-25, 0] = huge
    points[-25:-20, 1] = huge
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # NaN or huge points warned in the cast
        got = table.regions_of_points(points).tolist()
    want = [scalar_region_of(table, x, y) for x, y in points.tolist()]
    assert got == want


@given(st.integers(min_value=1, max_value=64), _PLANES,
       st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=120, deadline=None)
def test_shared_edge_points_land_in_a_cell_that_holds_them(n_regions, side, seed):
    """Rounding decides which neighbour an exact shared edge goes to, so
    only this much holds: the answer is a live cell whose closed
    rectangle holds the point, or -1 when one of those cells is deleted."""
    table, rng = _table_with_deletions(side, n_regions, seed)
    rows, cols = table.rows, table.cols
    xs = [c * side / cols for c in range(cols + 1)]
    ys = [r * side / rows for r in range(rows + 1)]
    points = [(x, float(rng.uniform(0.0, side))) for x in xs]
    points += [(float(rng.uniform(0.0, side)), y) for y in ys]
    points += [(x, y) for x in xs for y in ys]  # cell corners
    got = table.regions_of_points(np.array(points)).tolist()
    live = set(table.region_ids())
    for (x, y), region_id in zip(points, got):
        held = _holders(table, x, y)
        if region_id >= 0:
            assert region_id in held and region_id in live, (x, y, region_id)
        else:
            assert not live.issuperset(held), (x, y)


@pytest.mark.parametrize("n_regions", [1, 9, 64])
@given(side=_PLANES, seed=st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_home_and_replica_equals_the_per_point_stable_sort(n_regions, side, seed):
    from tests.reference_kernel import per_point_home_and_replica

    table, rng = _table_with_deletions(side, n_regions, seed)
    step = side / table.cols, side / table.rows
    locations = rng.uniform(0.0, side, (150, 2)).tolist()
    # Cell corners and centres: equidistant from two or four centres.
    locations += [
        (i * step[0] / 2.0, j * step[1] / 2.0)
        for i in range(2 * table.cols + 1) for j in range(2 * table.rows + 1)
    ]
    homes, replicas = table.home_and_replica(locations)
    want_homes, want_replicas = per_point_home_and_replica(table, locations)
    assert homes.tolist() == want_homes.tolist()
    assert replicas.tolist() == want_replicas.tolist()
    if len(table) > 1:
        assert (homes != replicas).all()
