"""Bit-equivalence tests for the kernel's vectorized and memoized paths.

The golden-digest suite (tests/test_golden_digests.py) catches *any*
divergence from the test-side reference kernel end-to-end; the tests
here pin each layer against the scalar primitive that stays in ``src/``,
so a divergence points at the responsible layer:

* GPSR's scalar Gabriel witness loop vs the numpy ``gabriel_neighbors``,
  list for list; Python complex ``abs`` vs ``np.hypot``, bit for bit;
  the greedy step on complex positions vs the numpy step (exact ties
  included); and a memoized perimeter decision vs an uncached one;
* the spatial grid's one-pass neighbor fill vs the ``within_range``
  cell walk — not just the same *sets*, the same *order* (neighbor order
  feeds RNG draw order downstream) — and, by bytes and by count, that
  the fill stays O(N·k): no N×N temporary, no per-node numpy loop;
* ``Flooder.handle_batch`` vs per-receiver ``handle`` — same
  deliveries, same delivery order, same rebroadcast hops field by
  field, same duplicate/out-of-scope/rebroadcast counter totals;
* by count, that the radio's per-transmission path (broadcast,
  unicast, batch delivery, flood dedup and scoping), a GPSR
  planarization miss, and warm greedy and perimeter decisions make no
  numpy call once the topology generation's memos are filled, and that
  a flood hop and a GPSR hop stay inside their call budgets with one
  energy-ledger call per broadcast or unicast;
* construction's one pass per table vs placing keys one at a time —
  the same custody, orphan and key → region tables — and, by count,
  that its numpy calls grow with the key table's chunks, not its keys;
* and, by digest, that a run waking every timer kind replays the event
  sequence it had when the timers were generator processes.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.topology import SpatialGrid
from tests.reference_kernel import walk_neighbors


# ---------------------------------------------------------------------------
# Radios at explicit positions
# ---------------------------------------------------------------------------

def _radio_at(points, side):
    from tests.conftest import make_static_network

    return make_static_network(points, width=side, height=side)


# ---------------------------------------------------------------------------
# GPSR's scalar witness loop vs the numpy Gabriel filter
# ---------------------------------------------------------------------------

#: Lattice points on the circle of radius 25 about (25, 0): cocircular
#: witnesses exactly on the Gabriel circle of the edge (0, 0)-(50, 0).
_COCIRCLE = [(25.0 + dx, dy) for dx, dy in (
    (0, 25), (0, -25), (7, 24), (-7, -24), (15, 20), (-15, 20), (20, -15),
    (24, 7), (-24, -7), (25, 0), (-25, 0))]


@st.composite
def _neighborhoods(draw):
    """0-30 neighbors around ``here``: uniform, duplicated, collinear,
    cocircular or on an integer lattice."""
    k = draw(st.integers(0, 30))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(
        ["uniform", "duplicates", "collinear", "cocircular", "lattice"]))
    here = (0.0, 0.0) if kind == "cocircular" else tuple(rng.uniform(0.0, 500.0, 2))
    if kind == "uniform":
        pts = rng.uniform(-250.0, 250.0, size=(k, 2)) + here
    elif kind == "duplicates":
        base = np.vstack([rng.uniform(-250.0, 250.0, size=(3, 2)) + here, [here]])
        pts = base[rng.integers(0, len(base), size=k)]
    elif kind == "collinear":
        direction = rng.normal(size=2)
        pts = np.asarray(here) + np.outer(rng.uniform(-250.0, 250.0, k), direction)
    elif kind == "cocircular":
        pts = np.asarray(_COCIRCLE + [(50.0, 0.0)] * 2)[rng.integers(0, 13, size=k)]
    else:
        pts = np.round(np.asarray(here)) + rng.integers(-3, 4, size=(k, 2)) * 40.0
    pts = np.asarray(pts, dtype=float).reshape(k, 2)
    ids = rng.permutation(1000)[:k]
    return tuple(float(v) for v in here), pts, ids


class TestWitnessLoop:
    @settings(max_examples=300, deadline=None)
    @given(_neighborhoods())
    def test_returns_the_numpy_filters_list(self, case):
        from repro.routing.gpsr import gabriel_planar
        from repro.routing.planarization import gabriel_neighbors

        here, pts, ids = case
        got = gabriel_planar(here, ids.tolist(), [tuple(p) for p in pts.tolist()])
        want = gabriel_neighbors(np.asarray(here), pts, ids).tolist()
        assert type(got) is list and got == want

    def test_src_planarizes_only_through_the_loop(self):
        from pathlib import Path

        src = Path(__file__).resolve().parent.parent / "src" / "repro"
        callers = [
            str(path.relative_to(src))
            for path in sorted(src.rglob("*.py"))
            if "gabriel_neighbors(" in path.read_text(encoding="utf-8")
        ]
        assert callers == ["routing/planarization.py"]  # its definition


# ---------------------------------------------------------------------------
# GPSR's decisions on Python numbers vs the numpy step and an uncached loop
# ---------------------------------------------------------------------------

def _bits(value: float) -> str:
    return float(value).hex()


#: Coordinates at the edges of float64: huge (differences overflow to
#: inf), tiny and subnormal (differences underflow), and both zeros.
_EDGE_FLOATS = st.sampled_from([
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-310, -1e-310,
    1e-300, 1.7976931348623157e308, -1.7976931348623157e308, 1e308, -1e308,
    1.0, -1.0, 3200.0, 0.1,
])
_COORDS = st.floats(allow_nan=False, allow_infinity=False) | _EDGE_FLOATS


class TestComplexDistanceIsHypot:
    @settings(max_examples=2000, deadline=None)
    @given(_COORDS, _COORDS, _COORDS, _COORDS)
    def test_abs_of_complex_difference_is_np_hypot_bit_for_bit(self, a, b, c, d):
        with np.errstate(over="ignore"):
            want = np.hypot(a - c, b - d)
        try:
            got = abs(complex(a, b) - complex(c, d))
        except OverflowError:
            # Where two finite differences have a distance past the
            # largest double, CPython raises and numpy returns inf; on a
            # plane of finite size no distance comes near.
            assert np.isinf(want) and math.isfinite(a - c) and math.isfinite(b - d)
            return
        assert _bits(got) == _bits(want), (a, b, c, d)


@st.composite
def _routing_cases(draw):
    """A static radio of 2-60 nodes — uniform, on a coarse lattice
    (exact distance ties) or with duplicated positions — and
    destination points on nodes, on lattice points and anywhere."""
    n = draw(st.integers(2, 60))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["uniform", "lattice", "duplicates"]))
    if kind == "uniform":
        pts = rng.uniform(0.0, 900.0, size=(n, 2))
    elif kind == "lattice":
        pts = rng.integers(0, 8, size=(n, 2)) * 100.0
    else:
        base = rng.uniform(0.0, 600.0, size=(max(2, n // 4), 2))
        pts = base[rng.integers(0, len(base), size=n)]
    dests = [tuple(p) for p in pts[rng.integers(0, n, size=4)].tolist()]
    dests += [tuple(p) for p in (rng.integers(0, 8, size=(4, 2)) * 100.0).tolist()]
    dests += [tuple(p) for p in rng.uniform(-100.0, 1000.0, size=(4, 2)).tolist()]
    return pts, dests


def _router_on(pts):
    from repro.routing.gpsr import GpsrRouter

    net = _radio_at(pts, 1000.0)
    router = GpsrRouter(net)
    hoods = [(node,) + net.neighborhood(node)[:2] for node in range(len(pts))]
    return net, router, [(node, neighbors, here) for node, neighbors, here in hoods
                         if neighbors]


class TestGpsrDecisions:
    @settings(max_examples=150, deadline=None)
    @given(_routing_cases())
    def test_greedy_step_is_the_numpy_step(self, case):
        from tests.reference_kernel import numpy_greedy_next

        pts, dests = case
        net, router, hoods = _router_on(pts)
        grid = net._grid
        for node, neighbors, here in hoods:
            for dest in dests:
                got = router._greedy_next(node, here, dest, neighbors)
                assert got == numpy_greedy_next(grid, here, dest, neighbors), (
                    node, dest)

    def test_exact_ties_go_to_the_first_neighbor(self):
        from tests.reference_kernel import numpy_greedy_next

        # Nodes 1-4 share one position, 5 and 6 mirror each other about
        # the line to the destination: both kinds of tie are exact.
        pts = [(0.0, 0.0), (100.0, 0.0), (100.0, 0.0), (100.0, 0.0),
               (100.0, 0.0), (50.0, 50.0), (50.0, -50.0)]
        net, router, hoods = _router_on(pts)
        node, neighbors, here = hoods[0]
        assert neighbors == [1, 2, 3, 4, 5, 6]
        for dest, want in (((300.0, 0.0), 1), ((0.0, 300.0), 5),
                           ((0.0, -300.0), 6), ((200.0, 0.0), 1)):
            assert router._greedy_next(node, here, dest, neighbors) == want
            assert numpy_greedy_next(net._grid, here, dest, neighbors) == want

    @settings(max_examples=150, deadline=None)
    @given(_routing_cases())
    def test_memoized_perimeter_decision_is_the_uncached_one(self, case):
        from repro.routing.envelopes import PERIMETER, GeoEnvelope

        pts, dests = case
        _, router, hoods = _router_on(pts)
        _, fresh, _ = _router_on(pts)
        queries = [
            (node, neighbors, here, prev, dest)
            for node, neighbors, here in hoods
            for prev in [None] + neighbors[:3]
            for dest in dests[::3]
        ]
        for repeat in range(2):  # the second pass answers from the memo
            for node, neighbors, here, prev, dest in queries:
                envelope = GeoEnvelope(inner=None, dest_point=dest, mode=PERIMETER,
                                       prev_node=prev)
                got = router._perimeter_next(node, here, envelope, neighbors)
                fresh._perimeter_cache.clear()
                want = fresh._perimeter_next(node, here, envelope, neighbors)
                assert got == want, (node, prev, dest, repeat)
        assert not queries or router._perimeter_cache


# ---------------------------------------------------------------------------
# Spatial grid: the one neighbor fill vs the cell walk, order-exact
# ---------------------------------------------------------------------------

def _grid_with_nodes(n=120, seed=5, radius=90.0, alive_frac=1.0):
    rng = np.random.default_rng(seed)
    pos = rng.uniform(0.0, 600.0, size=(n, 2))
    alive = rng.random(n) < alive_frac
    grid = SpatialGrid(600.0, 600.0, cell_size=radius)
    grid.rebuild(pos, alive)
    return grid, np.flatnonzero(alive), radius


class TestGridNeighborOrderExactness:
    @pytest.mark.parametrize("alive_frac", [1.0, 0.7])
    def test_bulk_fill_matches_uncached_order(self, alive_frac):
        grid, live, radius = _grid_with_nodes(alive_frac=alive_frac)
        for nid in live.tolist():
            a = grid.neighbors_of(nid, radius)
            b = walk_neighbors(grid, nid, radius)
            assert type(a) is list and a == b, f"node {nid}"
        assert grid._cache_radius == radius
        assert set(grid._neighbor_cache) == set(live.tolist())

    def test_dead_node_takes_the_walk(self):
        grid, live, radius = _grid_with_nodes(alive_frac=0.7)
        dead = next(i for i in range(120) if i not in set(live.tolist()))
        got = grid.neighbors_of(dead, radius)
        assert got == walk_neighbors(grid, dead, radius)
        assert dead not in grid._neighbor_cache

    def test_second_radius_is_not_served_from_the_first_radius_memo(self):
        # Regression: the memo was keyed on node id only, so a query at
        # a second radius returned the first radius's neighbor set.
        grid, live, radius = _grid_with_nodes()
        for r in (radius, 0.4 * radius, radius):
            for nid in live.tolist():
                assert (grid.neighbors_of(nid, r)
                        == walk_neighbors(grid, nid, r)), (nid, r)
            assert grid._cache_radius == r

    def test_oversize_radius_rejected_cached_and_uncached(self):
        # radius > cell_size breaks the 3x3-block precondition; both
        # the memoized query and the walk must refuse rather than answer
        # with missing neighbors.
        grid, live, _ = _grid_with_nodes()
        radius = grid.cell_size * 2.5
        nid = int(live[0])
        with pytest.raises(ValueError, match="exceeds cell_size"):
            grid.neighbors_of(nid, radius)
        with pytest.raises(ValueError, match="exceeds cell_size"):
            walk_neighbors(grid, nid, radius)

    def test_rebuild_invalidates_cache(self):
        grid, live, radius = _grid_with_nodes()
        nid = int(live[0])
        grid.neighbors_of(nid, radius)
        gen = grid.generation
        rng = np.random.default_rng(99)
        grid.rebuild(rng.uniform(0.0, 600.0, size=(120, 2)))
        assert grid.generation == gen + 1
        assert grid._cache_radius is None
        assert not grid._neighbor_cache


def _assert_fill_matches_walk(grid, alive, radius):
    """Every node's answer is the walk's, list for list, in order; only
    live nodes are memoized."""
    for nid in range(alive.size):
        got = grid.neighbors_of(nid, radius)
        assert type(got) is list and got == walk_neighbors(grid, nid, radius), nid
    assert grid._cache_radius == (radius if alive.size else None)
    assert sorted(grid._neighbor_cache) == np.flatnonzero(alive).tolist()


@st.composite
def _grid_cases(draw):
    """A plane of 1x1 to 6x6 cells, possibly not a whole number of them,
    with nodes on cell boundaries, outside the plane and dead."""
    cell = draw(st.sampled_from([50.0, 37.5, 100.0]))
    width = cell * (draw(st.integers(1, 6)) - draw(st.sampled_from([0.0, 0.4])))
    height = cell * (draw(st.integers(1, 6)) - draw(st.sampled_from([0.0, 0.4])))
    n = draw(st.integers(0, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pos = rng.uniform(-cell, cell, size=(n, 2)) + rng.uniform(
        0.0, 1.0, size=(n, 2)) * (width, height)
    # Snap a share of coordinates onto exact multiples of the cell side.
    snap = rng.random((n, 2)) < draw(st.sampled_from([0.0, 0.3, 1.0]))
    pos[snap] = np.round(pos[snap] / cell) * cell
    alive = rng.random(n) < draw(st.sampled_from([1.0, 0.8, 0.0]))
    radius = draw(st.sampled_from([cell, 0.6 * cell]))
    return width, height, cell, pos, alive, radius


class TestOneFillMatchesTheWalk:
    @settings(max_examples=150, deadline=None)
    @given(_grid_cases())
    def test_list_for_list_on_generated_grids(self, case):
        width, height, cell, pos, alive, radius = case
        grid = SpatialGrid(width, height, cell_size=cell)
        grid.rebuild(pos, alive)
        _assert_fill_matches_walk(grid, alive, radius)
        # The order both follow: by (cell row, cell col, id) of the
        # clamped cells, i.e. 3x3 block row-major, ascending id per cell.
        cols = np.clip((pos[:, 0] / cell).astype(np.intp), 0, grid.n_cols - 1)
        rows = np.clip((pos[:, 1] / cell).astype(np.intp), 0, grid.n_rows - 1)
        for nid in np.flatnonzero(alive).tolist():
            d = pos - pos[nid]
            near = np.flatnonzero(alive & (d[:, 0] ** 2 + d[:, 1] ** 2 <= radius * radius))
            want = sorted((j for j in near.tolist() if j != nid),
                          key=lambda j: (rows[j], cols[j], j))
            assert grid.neighbors_of(nid, radius) == want, nid

    def test_above_the_old_all_pairs_limit(self):
        rng = np.random.default_rng(17)
        n = 2000
        side = 3200.0 * (n / 500) ** 0.5
        pos = rng.uniform(0.0, side, size=(n, 2))
        alive = rng.random(n) < 0.95
        grid = SpatialGrid(side, side, cell_size=250.0)
        grid.rebuild(pos, alive)
        _assert_fill_matches_walk(grid, alive, 250.0)


def _fill_at_density(n, radius=250.0):
    """A grid of ``n`` nodes at ``sim_scale_500``'s density (~9 neighbors)."""
    side = 3200.0 * (n / 500) ** 0.5
    grid = SpatialGrid(side, side, cell_size=radius)
    grid.rebuild(np.random.default_rng(n).uniform(0.0, side, size=(n, 2)))
    return grid


class TestFillCost:
    def test_peak_memory_has_no_all_pairs_temporary(self):
        import tracemalloc

        grid = _fill_at_density(4000)
        tracemalloc.start()
        try:
            grid.neighbors_of(0, 250.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # An N x N pass over 4,000 nodes needs ~270 MB; O(N·k) is ~9 MiB.
        assert peak < 32 * 2**20, peak

    def test_numpy_call_count_does_not_grow_with_n(self):
        import cProfile
        import pstats

        counts = []
        for n in (500, 2000):
            grid = _fill_at_density(n)
            profiler = cProfile.Profile()
            profiler.enable()
            grid.neighbors_of(0, 250.0)
            profiler.disable()
            counts.append(_numpy_calls(pstats.Stats(profiler)))
        assert sum(counts[0].values()) > 5  # the profiler saw the fill
        assert counts[0] == counts[1]


# ---------------------------------------------------------------------------
# One-pass construction vs one key at a time
# ---------------------------------------------------------------------------

def _custody_tables(net):
    """What construction decides: custody, orphans, the unplaced count
    (read before the warm-up reset zeroes it) and each key's regions."""
    return (
        [sorted(peer.static_keys) for peer in net.peers],
        {rid: sorted(keys) for rid, keys in net._orphaned_keys.items()},
        net.stats.value("peer.keys_unplaced"),
        [(home.region_id, replica.region_id) for home, replica in net.key_regions],
    )


class TestOnePassConstruction:
    @pytest.mark.parametrize("n_regions", [1, 9, 64])
    @pytest.mark.parametrize("capacity", [None, 1e-3, 0.05],
                             ids=["unbounded", "cap1e-3", "cap0.05"])
    @pytest.mark.parametrize("replication", [True, False], ids=["repl", "norepl"])
    @pytest.mark.parametrize("max_speed", [None, 4.0], ids=["static", "mobile"])
    def test_matches_per_key_placement(self, n_regions, capacity, replication,
                                       max_speed):
        self._assert_same_tables(dict(
            n_nodes=40, n_regions=n_regions, n_items=200, max_speed=max_speed,
            enable_replication=replication, static_capacity_fraction=capacity,
        ))

    @pytest.mark.parametrize("capacity", [None, 1e-3, 0.05],
                             ids=["unbounded", "cap1e-3", "cap0.05"])
    def test_matches_over_non_contiguous_region_ids(self, capacity):
        # 20 static nodes leave some of 25 grid cells empty; construction
        # deletes those regions, so the table's ids have gaps.
        net = self._assert_same_tables(dict(
            n_nodes=20, n_regions=25, n_items=200, max_speed=None,
            static_capacity_fraction=capacity,
        ))
        ids = net.table.region_ids()
        assert ids != list(range(len(ids)))

    @pytest.mark.parametrize("n_regions", [9, 64])
    @pytest.mark.parametrize("capacity", [None, 0.05], ids=["unbounded", "cap0.05"])
    def test_matches_over_many_chunks(self, n_regions, capacity, monkeypatch):
        import repro.core.regions

        # Seven keys per chunk: 200 keys make 28 full chunks and a last
        # chunk of four keys.
        monkeypatch.setattr(
            repro.core.regions, "KEY_TABLE_CHUNK_CELLS", 7 * n_regions
        )
        self._assert_same_tables(dict(
            n_nodes=40, n_regions=n_regions, n_items=200, max_speed=4.0,
            static_capacity_fraction=capacity,
        ))

    @staticmethod
    def _assert_same_tables(fields):
        from repro import PReCinCtNetwork, SimulationConfig
        from tests.reference_kernel import per_key_construction

        cfg = SimulationConfig(duration=60.0, warmup=10.0, seed=5, **fields)
        net = PReCinCtNetwork(cfg)
        with per_key_construction():
            reference = PReCinCtNetwork(cfg)
        assert _custody_tables(net) == _custody_tables(reference)
        assert any(peer.static_keys for peer in net.peers)
        return net


class TestConstructionCost:
    def test_numpy_call_count_grows_with_chunks_not_keys(self):
        import cProfile
        import math
        import pstats

        from repro import PReCinCtNetwork, SimulationConfig
        from repro.core.regions import KEY_TABLE_CHUNK_CELLS

        counts = []
        for n_items in (200, 2000, 8000):
            cfg = SimulationConfig(
                n_nodes=120, n_regions=64, n_items=n_items, width=2000.0,
                height=2000.0, duration=60.0, warmup=10.0,
            )
            profiler = cProfile.Profile()
            profiler.enable()
            PReCinCtNetwork(cfg)
            profiler.disable()
            counts.append(sum(_numpy_calls(pstats.Stats(profiler)).values()))
        # The 200-item build takes the one-time lazy imports and caches.
        chunks = math.ceil(8000 / (KEY_TABLE_CHUNK_CELLS // 64))
        assert counts[1] > 5  # the profiler saw construction
        # One key at a time made about five numpy calls per key.
        assert counts[2] - counts[1] <= chunks, counts


# ---------------------------------------------------------------------------
# Flooder.handle_batch vs per-receiver handle
# ---------------------------------------------------------------------------

class _StubNetwork:
    """Minimal WirelessNetwork stand-in for Flooder unit tests."""

    def __init__(self, n_nodes, members=None):
        from repro.core.regions import RegionTable
        from repro.sim import Simulator
        from repro.sim.trace import StatRegistry

        self.n_nodes = n_nodes
        self.sim = Simulator()
        self.stats = StatRegistry()
        self.broadcasts = []  # every rebroadcast hop, field by field
        self.masks = []  # the dedup mask each hop carries
        # Members stand in region 0 of a two-cell grid, the rest in 1.
        if members is None:
            members = [True] * n_nodes
        points = [(100.0 if member else 300.0, 100.0) for member in members]
        self._column = RegionTable.grid(400.0, 200.0, 2).regions_of_points(
            points).tolist()

    def broadcast(self, origin, packet):
        env = packet.payload
        self.broadcasts.append(dict(
            sender=origin, src=packet.src, dst=packet.dst, hops=packet.hops,
            created_at=packet.created_at, packet_id=packet.packet_id,
            category=packet.category, size_bytes=packet.size_bytes,
            inner=env.inner, origin=env.origin, region=env.region,
            ttl=env.ttl, path=env.path,
        ))
        self.masks.append(env.seen)

    def region_column(self):
        return self._column


def _flood_fixture(n=10, members=None, ttl=None, region=None, record_path=False):
    from repro.net.packet import Packet
    from repro.routing.envelopes import FloodEnvelope
    from repro.routing.flooding import Flooder

    net = _StubNetwork(n, members=members)
    flooder = Flooder(net)
    env = FloodEnvelope(inner=("payload",), origin=0, ttl=ttl, region=region,
                        record_path=record_path, path=(0,) if record_path else (),
                        seen=bytearray(n))
    packet = Packet(payload=env, size_bytes=100.0, src=0, created_at=0.5,
                    packet_id=77, category="request")
    return net, flooder, packet


#: Flood shapes whose rebroadcast hops are compared field by field.
_FLOODS = {
    "untimed_regional": dict(
        region=0,
        members=[i != 5 for i in range(10)],
    ),
    "ttl_3": dict(ttl=3),
    "ttl_0": dict(ttl=0),
    "record_path": dict(record_path=True),
}


class TestHandleBatchEquivalence:
    def _run(self, batches, **flood):
        """Feed successive receiver batches through handle_batch."""
        net, flooder, packet = _flood_fixture(**flood)
        delivered = []
        for batch in batches:
            flooder.handle_batch(
                batch, packet, lambda nid, inner, pkt: delivered.append(nid),
            )
        net.seen = packet.payload.seen
        return net, delivered

    def _run_scalar(self, batches, **flood):
        net, flooder, packet = _flood_fixture(**flood)
        delivered = []
        for batch in batches:
            for nid in batch:
                if flooder.handle(nid, packet):
                    delivered.append(nid)
        net.seen = packet.payload.seen
        return net, delivered

    @pytest.mark.parametrize("flood", sorted(_FLOODS))
    def test_rebroadcast_hops_match_scalar(self, flood):
        batches = [[2, 5, 7], [5, 1, 2], [7, 2]]
        net_b, got = self._run(batches, **_FLOODS[flood])
        net_s, want = self._run_scalar(batches, **_FLOODS[flood])
        assert got == want
        assert net_b.broadcasts == net_s.broadcasts
        assert len(net_b.broadcasts) == (0 if flood == "ttl_0" else len(got))
        ttl = _FLOODS[flood].get("ttl")
        for hop in net_b.broadcasts:
            node = hop["sender"]
            assert (hop["src"], hop["dst"], hop["hops"]) == (node, None, 1)
            assert hop["ttl"] == (None if ttl is None else ttl - 1)
            assert hop["path"] == ((0, node) if flood == "record_path" else ())
        assert all(mask is net_b.seen for mask in net_b.masks)
        assert all(mask is net_s.seen for mask in net_s.masks)
        for key in ("flood.duplicate", "flood.rebroadcast", "flood.out_of_scope"):
            assert net_b.stats.counter(key).value == net_s.stats.counter(key).value, key

    @pytest.mark.parametrize("ttl", [None, 3, 0])
    def test_matches_scalar_with_cross_batch_duplicates(self, ttl):
        # A node hearing a second broadcast of the same flood is a
        # duplicate: batch 2 re-delivers to 2 and 5, batch 3 is all dupes.
        batches = [[2, 5, 7], [5, 1, 2], [7, 2]]
        net_b, got = self._run(batches, ttl=ttl)
        net_s, want = self._run_scalar(batches, ttl=ttl)
        assert got == want == [2, 5, 7, 1]
        assert net_b.broadcasts == net_s.broadcasts  # same rebroadcast order
        for key in ("flood.duplicate", "flood.rebroadcast"):
            assert net_b.stats.counter(key).value == net_s.stats.counter(key).value, key

    def test_region_scoping_matches_scalar(self):
        members = [i in (1, 3, 5) for i in range(10)]
        batches = [[1, 2, 3], [4, 5]]
        region = 0
        net_b, got = self._run(batches, members=members, region=region, ttl=2)
        net_s, want = self._run_scalar(
            batches, members=members, region=region, ttl=2
        )
        assert got == want == [1, 3, 5]
        assert (net_b.stats.counter("flood.out_of_scope").value
                == net_s.stats.counter("flood.out_of_scope").value == 2)


# ---------------------------------------------------------------------------
# Cost by count: a transmission makes no numpy call once memos are filled
# ---------------------------------------------------------------------------

def _numpy_calls(stats) -> dict:
    """Profiled functions that live in numpy, with their call counts.

    cProfile sees numpy's Python functions, builtins and ndarray methods;
    it does not see ufunc calls, indexing or ``Generator`` methods, so
    the test counts the radio's random draws through a stand-in stream.
    """
    return {
        f"{path}:{name}": entry[1]
        for (path, _line, name), entry in stats.stats.items()
        if "numpy" in path or "numpy" in name
    }


class _CountingStream:
    """A ``Generator`` stand-in that counts ``random`` calls."""

    def __init__(self, seed):
        self._rng = np.random.default_rng(seed)
        self.calls = 0

    def random(self, *args):
        self.calls += 1
        return self._rng.random(*args)


class TestRadioPathMakesNoNumpyCalls:
    def test_broadcasts_unicasts_and_floods(self):
        import cProfile
        import pstats

        from repro.core.regions import RegionTable
        from repro.mobility import StationaryModel
        from repro.net import RadioParams, WirelessNetwork
        from repro.net.packet import Packet
        from repro.routing.stack import NetworkStack
        from repro.sim import Simulator

        n, rounds = 40, 100
        rng = np.random.default_rng(8)
        positions = rng.uniform(0.0, 700.0, size=(n, 2))
        mobility = StationaryModel(n, 700.0, 700.0, rng=rng, positions=positions)
        # One topology generation for the whole test: no periodic resample.
        radio = RadioParams(position_refresh_s=1e9)
        sim = Simulator()
        stream = _CountingStream(9)
        net = WirelessNetwork(sim, mobility, rng=stream, radio=radio)
        # Region 0 of this map is the square (0, 0)-(450, 450).
        net.set_region_map(RegionTable.grid(900.0, 900.0, 4))
        stack = NetworkStack(net)
        heard = []
        stack.set_app_handler(lambda node, inner, packet: heard.append(node))
        region = 0
        pairs = [(src, net.neighbors_of(src)[0]) for src in range(n)
                 if net.neighbors_of(src)]

        def traffic():
            for k in range(rounds):
                stack.direct_send(*pairs[k % len(pairs)], ("u", k), 64.0)
                net.broadcast(k % n, Packet(payload=("b", k), size_bytes=32.0,
                                            src=k % n))
            stack.flood_send(0, ("flood",), 80.0, region=region)
            stack.flood_send(1, ("flood",), 80.0)
            sim.run()

        traffic()  # fills the neighbor and region memos, draws jitter
        assert len(net._jitters) > 3 * rounds + 2 * n  # no refill below
        before, draws = len(heard), stream.calls
        profiler = cProfile.Profile()
        profiler.enable()
        traffic()
        profiler.disable()
        stats = pstats.Stats(profiler)
        assert len(heard) - before > 3 * rounds  # the traffic was delivered
        assert stats.total_calls > 10 * rounds
        assert _numpy_calls(stats) == {}
        assert stream.calls == draws

    def test_flood_hop_call_budget(self):
        """A flood hop costs about one call per layer once memos are warm:
        at most 34 profiled calls per broadcast (48 before the radio read
        its memos directly and the ledger took one call per broadcast),
        exactly one of them into the energy ledger."""
        import cProfile
        import pstats

        from repro.energy import model as energy_model
        from repro.core.regions import RegionTable
        from repro.mobility import StationaryModel
        from repro.net import RadioParams, WirelessNetwork
        from repro.routing.stack import NetworkStack
        from repro.sim import Simulator

        n, floods = 60, 20
        rng = np.random.default_rng(5)
        positions = rng.uniform(0.0, 900.0, size=(n, 2))
        mobility = StationaryModel(n, 900.0, 900.0, rng=rng, positions=positions)
        sim = Simulator()
        net = WirelessNetwork(sim, mobility, rng=np.random.default_rng(6),
                              radio=RadioParams(position_refresh_s=1e9))
        # Region 0 of this map is the square (0, 0)-(600, 600).
        net.set_region_map(RegionTable.grid(1200.0, 1200.0, 4))
        stack = NetworkStack(net)
        stack.set_app_handler(lambda node, inner, packet: None)
        region = 0

        def traffic():
            for k in range(floods):
                stack.flood_send(k, ("regional", k), 80.0, region=region)
                stack.flood_send(k + floods, ("global", k), 80.0)
            sim.run()

        traffic()  # fills the neighbor and region memos
        sent = net.stats.value("net.broadcast_sent")
        profiler = cProfile.Profile()
        profiler.enable()
        traffic()
        profiler.disable()
        stats = pstats.Stats(profiler)
        broadcasts = net.stats.value("net.broadcast_sent") - sent
        assert broadcasts > 40 * floods  # the floods spread
        assert stats.total_calls / broadcasts <= 34
        ledger_calls = sum(
            entry[1] for (path, _line, _name), entry in stats.stats.items()
            if path == energy_model.__file__
        )
        assert ledger_calls == broadcasts

    def test_geo_hop_call_budget(self):
        """A GPSR hop costs about one call per layer once memos are warm:
        at most 38 profiled calls per ``gpsr.hops`` (57.4 before the
        router read the radio once per decision, the ledger took one
        call per unicast and the stack forwarded without the router's
        ``handle`` hop; 30.4 after), exactly one of them into the energy
        ledger per unicast (10 before)."""
        import cProfile
        import pstats

        from repro.energy import model as energy_model
        from repro.core.regions import RegionTable
        from repro.mobility import StationaryModel
        from repro.net import RadioParams, WirelessNetwork
        from repro.routing.stack import NetworkStack
        from repro.sim import Simulator

        n, sends, side = 120, 40, 1500.0
        rng = np.random.default_rng(17)
        positions = rng.uniform(0.0, side, size=(n, 2))
        mobility = StationaryModel(n, side, side, rng=rng, positions=positions)
        sim = Simulator()
        net = WirelessNetwork(sim, mobility, rng=np.random.default_rng(18),
                              radio=RadioParams(position_refresh_s=1e9))
        # Region 8 of this map is the square (1000, 1000)-(1500, 1500).
        net.set_region_map(RegionTable.grid(side, side, 9))
        stack = NetworkStack(net)
        stack.set_app_handler(lambda node, inner, packet: None)
        region = 8
        centre = (1250.0, 1250.0)
        far = [int(node) for node in np.argsort(-positions[:, 0] - positions[:, 1])]

        def traffic():
            for k in range(sends):
                src = (7 * k) % n
                stack.geo_send(src, ("region", k), 120.0, dest_point=centre,
                               region=region)
                dst = far[k % 10]
                stack.geo_send(src, ("node", k), 120.0,
                               dest_point=tuple(positions[dst].tolist()),
                               dest_node=dst)
            sim.run()

        traffic()  # fills the neighbor, region and GPSR memos
        hops_before = net.stats.value("gpsr.hops")
        sent = net.stats.value("net.unicast_sent")
        profiler = cProfile.Profile()
        profiler.enable()
        traffic()
        profiler.disable()
        stats = pstats.Stats(profiler)
        hops = net.stats.value("gpsr.hops") - hops_before
        unicasts = net.stats.value("net.unicast_sent") - sent
        assert hops > 4 * 2 * sends  # the routes were multi-hop
        assert unicasts == hops
        assert stats.total_calls / hops <= 38
        ledger_calls = sum(
            entry[1] for (path, _line, _name), entry in stats.stats.items()
            if path == energy_model.__file__
        )
        assert ledger_calls == unicasts

    def test_perimeter_mode_miss(self):
        import cProfile
        import pstats

        from repro.routing.envelopes import PERIMETER, GeoEnvelope
        from repro.routing.gpsr import GpsrRouter

        n = 60
        net = _radio_at(np.random.default_rng(12).uniform(0.0, 900.0, size=(n, 2)), 900.0)
        router = GpsrRouter(net)
        # The generation's neighbor lists and position tuples are filled.
        hoods = [(node, net.position_of(node), net.neighbors_of(node))
                 for node in range(n)]
        envelope = GeoEnvelope(inner=None, dest_point=(450.0, 450.0), mode=PERIMETER)
        profiler = cProfile.Profile()
        profiler.enable()
        for node, here, neighbors in hoods:
            router._perimeter_next(node, here, envelope, neighbors)
        profiler.disable()
        assert len(router._angle_cache) == n  # every decision was a miss
        assert sum(len(planar) for planar, _ in router._angle_cache.values()) > n
        assert _numpy_calls(pstats.Stats(profiler)) == {}

    def test_warm_greedy_and_perimeter_decisions(self):
        """Once the generation's memos are filled (complex positions,
        neighbor positions, planarizations, perimeter answers), a
        decision makes no numpy call."""
        import cProfile
        import pstats

        from repro.routing.envelopes import PERIMETER, GeoEnvelope

        n = 80
        _, router, hoods = _router_on(
            np.random.default_rng(21).uniform(0.0, 1000.0, size=(n, 2)))
        dests = [(500.0, 500.0), (0.0, 1000.0), (1000.0, 0.0)]

        def decisions():
            for node, neighbors, here in hoods:
                for dest in dests:
                    router._greedy_next(node, here, dest, neighbors)
                    for prev in (None, neighbors[0]):
                        envelope = GeoEnvelope(inner=None, dest_point=dest,
                                               mode=PERIMETER, prev_node=prev)
                        router._perimeter_next(node, here, envelope, neighbors)

        decisions()  # fills the memos
        assert len(router._nbr_pos_cache) == len(hoods) > n // 2
        assert len(router._perimeter_cache) >= len(hoods)
        profiler = cProfile.Profile()
        profiler.enable()
        decisions()
        profiler.disable()
        stats = pstats.Stats(profiler)
        assert stats.total_calls > 6 * len(hoods)  # the profiler saw them
        assert _numpy_calls(stats) == {}


# ---------------------------------------------------------------------------
# One kernel, one perf truth: nothing under src/ or scripts/ may select
# another kernel or time itself (bench/ profiles from outside)
# ---------------------------------------------------------------------------

def test_no_kernel_fork_in_source():
    import re
    from pathlib import Path

    from repro.cli import build_parser

    repo = Path(__file__).resolve().parent.parent
    banned = re.compile(
        r"fast_kernel|schedule_(at_)?fast|cache_neighbors"
        r"|perf_section|enable_profiling|PerfProfiler|NULL_PROFILER"
        r"|_insert_impl|_handle_impl|_forward_impl|perf_gate|perf_baseline"
        r"|bulk_fill_limit|_bulk_fill_neighbor_cache"
    )
    hits = [
        f"{path.relative_to(repo)}:{lineno}: {line.strip()}"
        for root in ("src", "scripts")
        for path in sorted((repo / root).rglob("*.py"))
        for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if banned.search(line)
    ]
    assert not hits, "kernel fork or in-source profiler reappeared:\n" + "\n".join(hits)
    for removed in ("bench", "profile"):
        with pytest.raises(SystemExit):
            build_parser().parse_args([removed])


def test_one_admission_path_in_the_service():
    """Every shard op runs in its caller's task: no per-shard runner,
    queue, relay task, poison pill or wedge marker under service/."""
    import re
    from pathlib import Path

    service = Path(__file__).resolve().parent.parent / "src" / "repro" / "service"
    banned = re.compile(
        r"asyncio\.Queue|_CRASH|_Wedge|_execute|_runner|_dequeued|_flush_queue"
    )
    hits = [
        f"{path.name}:{lineno}: {line.strip()}"
        for path in sorted(service.rglob("*.py"))
        for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if banned.search(line)
    ]
    assert not hits, "a second admission path reappeared:\n" + "\n".join(hits)


def test_one_way_to_schedule_an_event():
    """Every timer is a callback that reschedules itself: no generator
    process layer under src/, and no tie-break slot besides insertion
    order (nothing passes ``priority=``)."""
    import inspect
    import re
    from pathlib import Path

    import repro.sim
    from repro.sim import Simulator

    src = Path(__file__).resolve().parent.parent / "src"
    banned = re.compile(
        r"yield Timeout|\.spawn\(|from repro\.sim(\.engine)? import .*(Timeout|Process)"
        r"|\bpriority="
    )
    hits = [
        f"{path.relative_to(src)}:{lineno}: {line.strip()}"
        for path in sorted(src.rglob("*.py"))
        for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if banned.search(line)
    ]
    assert not hits, "a second way to schedule reappeared:\n" + "\n".join(hits)
    assert not {"Process", "Timeout"} & set(repro.sim.__all__)
    assert not hasattr(Simulator, "spawn")
    for method in (Simulator.schedule, Simulator.schedule_at):
        assert "priority" not in inspect.signature(method).parameters


# ---------------------------------------------------------------------------
# Every timer kind, pinned: the digests and event count of a run that
# wakes all eight
# ---------------------------------------------------------------------------

def test_all_timer_kinds_replay_bit_for_bit():
    from repro.core.invariants import attach_periodic_checker
    from repro.core.network import PReCinCtNetwork
    from repro.faults.audit import eventlog_digest, report_digest
    from tests.conftest import all_timers_config

    net = PReCinCtNetwork(all_timers_config())
    attach_periodic_checker(net, interval=25)
    report = net.run()
    assert net.sim.events_executed == 102_817
    assert report_digest(report) == (
        "949398ce88dfec98e5b4ab3cc0bd6665fd66ff6a3e3fa9fa14b5f70234ebc023"
    )
    assert eventlog_digest(net.log) == (
        "2ec221879c754568404d4cd09c3868e0e69984238afdea02eaf9582a63376047"
    )
    for woke in ("peer.region_changes", "custody.repaired", "churn.departures",
                 "net.sent.digest", "prefetch.issued", "peer.beacons_heard"):
        assert net.stats.value(woke) > 0, woke
