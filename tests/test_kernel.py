"""Bit-equivalence tests for the kernel's vectorized and memoized paths.

The golden-digest suite (tests/test_golden_digests.py) catches *any*
divergence from the test-side reference kernel end-to-end; the tests
here pin each layer against the scalar primitive that stays in ``src/``,
so a divergence points at the responsible layer:

* ``PolygonTester`` / ``points_in_polygon`` vs the scalar
  ``point_in_polygon`` — including boundary points, vertices, and
  degenerate polygons — and the radio's per-generation membership sweep
  vs both;
* GPSR's scalar Gabriel witness loop vs the numpy ``gabriel_neighbors``,
  list for list;
* the spatial grid's one-pass neighbor fill vs the ``within_range``
  cell walk — not just the same *sets*, the same *order* (neighbor order
  feeds RNG draw order downstream) — and, by bytes and by count, that
  the fill stays O(N·k): no N×N temporary, no per-node numpy loop;
* ``Flooder.handle_batch`` vs per-receiver ``handle`` — same
  deliveries, same delivery order, same duplicate/out-of-scope counter
  totals;
* by count, that the radio's per-transmission path (broadcast,
  unicast, batch delivery, flood dedup and scoping) and a GPSR
  planarization miss make no numpy call once the topology generation's
  memos are filled, and that the membership sweep's numpy calls do not
  grow with the number of regions;
* and, by digest, that a run waking every timer kind replays the event
  sequence it had when the timers were generator processes.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geom import PolygonTester, point_in_polygon, points_in_polygon
from repro.net.topology import SpatialGrid
from tests.reference_kernel import walk_neighbors


# ---------------------------------------------------------------------------
# Vectorized point-in-polygon
# ---------------------------------------------------------------------------

SQUARE = [(0.0, 0.0), (10.0, 0.0), (10.0, 10.0), (0.0, 10.0)]
CONCAVE = [(0.0, 0.0), (8.0, 0.0), (8.0, 8.0), (4.0, 3.0), (0.0, 8.0)]
TRIANGLE = [(1.0, 1.0), (9.0, 2.0), (5.0, 9.0)]


class TestPointsInPolygon:
    @pytest.mark.parametrize("verts", [SQUARE, CONCAVE, TRIANGLE])
    def test_matches_scalar_on_fuzz(self, verts):
        rng = np.random.default_rng(11)
        pts = rng.uniform(-2.0, 12.0, size=(400, 2))
        got = points_in_polygon(pts, verts)
        want = np.array(
            [point_in_polygon((x, y), verts) for x, y in pts.tolist()]
        )
        assert got.dtype == bool
        np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("verts", [SQUARE, CONCAVE, TRIANGLE])
    def test_matches_scalar_on_boundary_points(self, verts):
        # Vertices, edge midpoints, and points a hair off each edge —
        # exactly where the eps-banded boundary test could diverge.
        pts = []
        n = len(verts)
        for i in range(n):
            ax, ay = verts[i]
            bx, by = verts[(i + 1) % n]
            pts.append((ax, ay))
            pts.append(((ax + bx) / 2.0, (ay + by) / 2.0))
            pts.append(((ax + bx) / 2.0 + 1e-12, (ay + by) / 2.0))
            pts.append((ax + 0.25 * (bx - ax), ay + 0.25 * (by - ay)))
        arr = np.asarray(pts)
        got = points_in_polygon(arr, verts)
        want = np.array([point_in_polygon(p, verts) for p in pts])
        np.testing.assert_array_equal(got, want)

    def test_degenerate_polygons(self):
        for verts in ([], [(1.0, 1.0)], [(1.0, 1.0), (2.0, 2.0)]):
            pts = np.array([[1.0, 1.0], [5.0, 5.0]])
            got = points_in_polygon(pts, verts)
            want = np.array([point_in_polygon((x, y), verts)
                             for x, y in pts.tolist()])
            np.testing.assert_array_equal(got, want)

    def test_tester_reusable_across_batches(self):
        tester = PolygonTester(CONCAVE)
        rng = np.random.default_rng(3)
        for _ in range(5):
            pts = rng.uniform(-1.0, 9.0, size=(50, 2))
            want = np.array([point_in_polygon((x, y), CONCAVE)
                             for x, y in pts.tolist()])
            np.testing.assert_array_equal(tester.contains(pts), want)


# ---------------------------------------------------------------------------
# The generation's membership sweep vs per-polygon and scalar tests
# ---------------------------------------------------------------------------

#: Polygons the sweep must not prune: fewer than 3 vertices, a closed
#: ring (zero-length closing edge), a repeated vertex, an edge shorter
#: than the sweep margin, a zero-area sliver, and one smaller than the margin.
ODD_POLYGONS = [
    ((5.0, 5.0), (9.0, 9.0)),
    ((0.0, 0.0), (300.0, 0.0), (300.0, 300.0), (0.0, 300.0), (0.0, 0.0)),
    ((100.0, 100.0), (400.0, 100.0), (400.0, 100.0), (400.0, 400.0)),
    ((100.0, 100.0), (400.0, 100.0), (400.0, 100.5), (100.0, 400.0)),
    ((0.0, 50.0), (100.0, 50.0), (200.0, 50.0)),
    ((10.0, 10.0), (10.5, 10.0), (10.5, 10.5)),
]


def _box_points(polygon, margin):
    """Vertices, edge midpoints, and points exactly on and a hair either
    side of the polygon's bounding box +- ``margin``."""
    xs = [x for x, _ in polygon]
    ys = [y for _, y in polygon]
    xlo, xhi = min(xs) - margin, max(xs) + margin
    ylo, yhi = min(ys) - margin, max(ys) + margin
    xmid, ymid = (xlo + xhi) / 2.0, (ylo + yhi) / 2.0
    pts = list(polygon)
    pts += [((a[0] + b[0]) / 2.0, (a[1] + b[1]) / 2.0)
            for a, b in zip(polygon, polygon[1:] + polygon[:1])]
    for x in (xlo, xhi):
        for nudge in (-1.0, 0.0, 1.0):
            x_n = np.nextafter(x, x + nudge) if nudge else x
            pts += [(float(x_n), ymid), (float(x_n), ylo), (float(x_n), yhi)]
    for y in (ylo, yhi):
        for nudge in (-1.0, 1.0):
            pts.append((xmid, float(np.nextafter(y, y + nudge))))
        pts.append((xmid, y))
    return pts


@st.composite
def _sweep_cases(draw):
    """Grid rectangles, merged hulls, separated halves, random simple
    (star-shaped) polygons and odd polygons, with nodes anywhere on the
    plane, on every polygon's edges and vertices and at its box +- margin;
    some nodes dead."""
    from repro.core.regions import RegionTable
    from repro.net.network import _SWEEP_MARGIN

    side = draw(st.sampled_from([600.0, 1000.0, 1500.0]))
    table = RegionTable.grid(side, side, draw(st.sampled_from([1, 4, 9, 12, 16])))
    for _ in range(draw(st.integers(0, 3))):
        ids = table.region_ids()
        rid = draw(st.sampled_from(ids))
        adjacent = [r.region_id for r in table.neighbors_of_region(rid)]
        if adjacent and draw(st.booleans()):
            table.merge(rid, draw(st.sampled_from(adjacent)))
        else:
            table.separate(rid, axis=draw(st.sampled_from("xy")))
    polygons = [region.vertices for region in table]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    for _ in range(draw(st.integers(0, 3))):
        k = int(rng.integers(3, 10))
        cx, cy = rng.uniform(0.0, side, 2)
        angles = np.sort(rng.uniform(0.0, 2 * np.pi, k))
        radii = rng.uniform(1.0, side / 3, k)
        polygons.append(tuple(
            (float(cx + r * np.cos(a)), float(cy + r * np.sin(a)))
            for a, r in zip(angles, radii)
        ))
    polygons += draw(st.lists(st.sampled_from(ODD_POLYGONS), max_size=3, unique=True))
    polygons = list(dict.fromkeys(polygons))
    points = [tuple(p) for p in rng.uniform(-50.0, side + 50.0, size=(
        draw(st.integers(0, 200)), 2)).tolist()]
    for polygon in draw(st.lists(st.sampled_from(polygons), max_size=4)):
        points += _box_points(polygon, _SWEEP_MARGIN)
    if not points:
        points = [(0.0, 0.0)]
    dead = draw(st.lists(st.integers(0, len(points) - 1), max_size=5))
    return side, polygons, points, dead


def _radio_at(points, side):
    from tests.conftest import make_static_network

    return make_static_network(points, width=side, height=side)


class TestMembershipSweep:
    @settings(max_examples=120, deadline=None)
    @given(_sweep_cases())
    def test_sweep_equals_per_polygon_and_scalar_tests(self, case):
        side, polygons, points, dead = case
        net = _radio_at(points, side)
        for polygon in polygons:  # first sight: one pass per polygon
            net.polygon_members(polygon)
        for node in dead:  # each failure starts a generation
            net.fail_node(node)
        net.revive_node(0)
        swept = net._sweep(polygons)
        assert set(swept) == {p for p in polygons if len(p) >= 3}
        positions = np.asarray(points, dtype=float)
        for polygon in polygons:
            want = [point_in_polygon(pt, polygon) for pt in points]
            assert PolygonTester(polygon).contains(positions).tolist() == want
            if polygon in swept:
                assert swept[polygon] == want, polygon
            # The generation's memo, first polygon filled by the sweep.
            assert net.polygon_members(polygon) == want, polygon

    def test_closed_ring_is_swept_unpruned(self):
        ring = ODD_POLYGONS[1]
        net = _radio_at([(5000.0, 5000.0), (150.0, 150.0), (-1.0, 7.0)], 6000.0)
        assert net._sweep([ring])[ring] == [True, True, True]

    def test_a_polygon_not_queried_for_a_generation_retires(self):
        from repro.core.regions import RegionTable

        a, b, c = (r.vertices for r in RegionTable.grid(600.0, 600.0, 3))
        net = _radio_at(np.random.default_rng(4).uniform(0, 600, (30, 2)), 600.0)
        for polygon in (a, b, c):
            net.polygon_members(polygon)
        net.fail_node(0)  # generation 2 queries a and b: the sweep covers all three
        net.polygon_members(a)
        assert set(net._swept) == {b, c}
        net.polygon_members(b)
        net.revive_node(0)  # generation 3: c was not queried in generation 2
        net.polygon_members(a)
        assert set(net._swept) == {b}
        net.polygon_members(c)  # back by its own pass; swept again next time
        assert set(net._polygon_cache) == {a, c} and set(net._swept) == {b}


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
# Flooder.handle_batch vs per-receiver handle
# ---------------------------------------------------------------------------

class _StubNetwork:
    """Minimal WirelessNetwork stand-in for Flooder unit tests."""

    def __init__(self, n_nodes, members=None):
        from repro.sim import Simulator
        from repro.sim.trace import StatRegistry

        self.n_nodes = n_nodes
        self.sim = Simulator()
        self.stats = StatRegistry()
        self.broadcasts = []
        self._members = members  # list[bool] or None

    def broadcast(self, origin, packet):
        self.broadcasts.append((origin, packet.payload.ttl))

    def polygon_members(self, polygon):
        return self._members

    def node_in_polygon(self, node_id, polygon):
        return self._members[node_id] if self._members is not None else True


def _flood_fixture(n=10, members=None, ttl=None, region=None):
    from repro.net.packet import Packet
    from repro.routing.envelopes import FloodEnvelope
    from repro.routing.flooding import Flooder

    net = _StubNetwork(n, members=members)
    flooder = Flooder(net)
    env = FloodEnvelope(inner=("payload",), origin=0, ttl=ttl, region=region,
                        seen=bytearray(n))
    packet = Packet(payload=env, size_bytes=100.0, src=0, created_at=0.0)
    return net, flooder, packet


class TestHandleBatchEquivalence:
    def _run(self, batches, members=None, ttl=None, region=None):
        """Feed successive receiver batches through handle_batch."""
        net, flooder, packet = _flood_fixture(
            members=members, ttl=ttl, region=region
        )
        delivered = []
        for batch in batches:
            flooder.handle_batch(
                batch, packet, lambda nid, inner, pkt: delivered.append(nid),
            )
        return net, delivered

    def _run_scalar(self, batches, members=None, ttl=None, region=None):
        net, flooder, packet = _flood_fixture(
            members=members, ttl=ttl, region=region
        )
        delivered = []
        for batch in batches:
            for nid in batch:
                if flooder.handle(nid, packet):
                    delivered.append(nid)
        return net, delivered

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
        region = ((0.0, 0.0), (1.0, 0.0), (1.0, 1.0))
        net_b, got = self._run(batches, members=members, region=region, ttl=2)
        net_s, want = self._run_scalar(
            batches, members=members, region=region, ttl=2
        )
        assert got == want == [1, 3, 5]
        assert (net_b.stats.counter("flood.out_of_scope").value
                == net_s.stats.counter("flood.out_of_scope").value == 2)

    def test_unhashable_region_falls_back_to_scalar_membership(self):
        members = [i in (4, 6) for i in range(10)]

        net, flooder, packet = _flood_fixture(
            members=members, ttl=None, region=((0.0, 0.0),)
        )
        net.polygon_members = lambda polygon: None  # e.g. unhashable region
        delivered = []
        flooder.handle_batch(
            [4, 5, 6], packet, lambda nid, inner, pkt: delivered.append(nid),
        )
        assert delivered == [4, 6]
        assert net.stats.counter("flood.out_of_scope").value == 1


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
        stack = NetworkStack(net)
        heard = []
        stack.set_app_handler(lambda node, inner, packet: heard.append(node))
        region = ((0.0, 0.0), (450.0, 0.0), (450.0, 450.0), (0.0, 450.0))
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

        traffic()  # fills the neighbor and membership memos, draws jitter
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
        router._sync_caches()
        envelope = GeoEnvelope(inner=None, dest_point=(450.0, 450.0), mode=PERIMETER)
        profiler = cProfile.Profile()
        profiler.enable()
        for node, here, neighbors in hoods:
            router._perimeter_next(node, here, envelope, neighbors)
        profiler.disable()
        assert len(router._angle_cache) == n  # every decision was a miss
        assert sum(len(planar) for planar, _ in router._angle_cache.values()) > n
        assert _numpy_calls(pstats.Stats(profiler)) == {}

    def test_membership_sweep_cost_does_not_grow_with_regions(self):
        import cProfile
        import pstats

        from repro.core.regions import RegionTable

        side = 1600.0
        positions = np.random.default_rng(6).uniform(0.0, side, size=(300, 2))
        counts = []
        for n_regions in (9, 64):
            net = _radio_at(positions, side)
            polygons = [r.vertices for r in RegionTable.grid(side, side, n_regions)]
            for polygon in polygons:
                net.polygon_members(polygon)
            net.fail_node(0)  # a new generation: its first miss sweeps
            profiler = cProfile.Profile()
            profiler.enable()
            members = [net.polygon_members(polygon) for polygon in polygons]
            profiler.disable()
            assert not net._swept  # every polygon came from the one sweep
            assert sum(map(sum, members)) == len(positions)  # a tiling
            counts.append(_numpy_calls(pstats.Stats(profiler)))
        assert sum(counts[0].values()) > 5  # the profiler saw the sweep
        assert counts[0] == counts[1]


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
