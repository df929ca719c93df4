"""Unit tests for regions and the region table (repro.core.regions)."""

import numpy as np
import pytest

from repro.core.regions import Region, RegionTable


class TestRegion:
    def test_rectangle_center(self):
        r = Region.rectangle(0, 0, 0, 400, 400)
        assert r.center == (200.0, 200.0)

    def test_rectangle_contains(self):
        r = Region.rectangle(0, 0, 0, 400, 400)
        assert r.contains((200, 200))
        assert r.contains((0, 0))  # boundary
        assert not r.contains((401, 200))

    def test_degenerate_rectangle_rejected(self):
        with pytest.raises(ValueError):
            Region.rectangle(0, 10, 10, 10, 20)

    def test_from_vertices_centroid(self):
        r = Region.from_vertices(1, [(0, 0), (4, 0), (4, 4), (0, 4)])
        assert r.center == pytest.approx((2.0, 2.0))

    def test_from_vertices_needs_three(self):
        with pytest.raises(ValueError):
            Region.from_vertices(1, [(0, 0), (1, 1)])


class TestGridConstruction:
    def test_nine_regions_3x3(self):
        table = RegionTable.grid(1200, 1200, 9)
        assert len(table) == 9
        centers = sorted(r.center for r in table)
        assert (200.0, 200.0) in centers
        assert (600.0, 600.0) in centers
        assert (1000.0, 1000.0) in centers

    def test_non_square_count_factors(self):
        table = RegionTable.grid(1200, 600, 12)
        assert len(table) == 12

    def test_prime_count_single_row(self):
        table = RegionTable.grid(700, 100, 7)
        assert len(table) == 7

    def test_every_point_covered(self):
        table = RegionTable.grid(1200, 1200, 9)
        rng = np.random.default_rng(0)
        for _ in range(100):
            p = tuple(rng.uniform(0, 1200, 2))
            assert table.region_of_point(p) is not None

    def test_invalid_count(self):
        with pytest.raises(ValueError):
            RegionTable.grid(100, 100, 0)


class TestLookups:
    def test_region_of_point(self):
        table = RegionTable.grid(1200, 1200, 9)
        r = table.region_of_point((100, 100))
        assert r is not None and r.contains((100, 100))

    def test_point_outside_plane(self):
        table = RegionTable.grid(1200, 1200, 9)
        assert table.region_of_point((5000, 5000)) is None

    def test_closest_region_is_home(self):
        table = RegionTable.grid(1200, 1200, 9)
        home = table.closest_region((210, 190))
        assert home.center == (200.0, 200.0)

    def test_by_center_distance_ordering(self):
        table = RegionTable.grid(1200, 1200, 9)
        ordered = table.regions_by_center_distance((0, 0))
        dists = [np.hypot(r.center[0], r.center[1]) for r in ordered]
        assert dists == sorted(dists)
        assert len(ordered) == 9

    def test_center_distance_symmetric(self):
        table = RegionTable.grid(1200, 1200, 9)
        ids = table.region_ids()
        a, b = ids[0], ids[4]
        assert table.center_distance(a, b) == table.center_distance(b, a)
        assert table.center_distance(a, a) == 0.0

    def test_regions_of_points_grid_fast_path(self):
        table = RegionTable.grid(1200, 1200, 9)
        rng = np.random.default_rng(1)
        # Stay away from exact cell boundaries where the arithmetic fast
        # path and the polygon test may tie-break differently.
        pts = rng.uniform(1, 1199, (200, 2))
        ids = table.regions_of_points(pts)
        for i in range(200):
            expected = table.region_of_point((pts[i, 0], pts[i, 1]))
            assert ids[i] == expected.region_id

    def test_regions_of_points_outside(self):
        table = RegionTable.grid(1200, 1200, 9)
        ids = table.regions_of_points(np.array([[5000.0, 5000.0], [-10.0, 0.0]]))
        assert (ids == -1).all()

    def test_regions_of_points_fallback_after_modification(self):
        table = RegionTable.grid(1200, 1200, 4)
        table.delete(3)
        pts = np.array([[100.0, 100.0], [1100.0, 1100.0]])
        ids = table.regions_of_points(pts)
        assert ids[0] == 0
        assert ids[1] == -1  # deleted region's territory now uncovered


class TestManagementOperations:
    def test_add_bumps_version_and_extends(self):
        table = RegionTable.grid(1200, 1200, 4)
        v0 = table.version
        new = table.add([(1200, 0), (1800, 0), (1800, 600), (1200, 600)])
        assert table.version == v0 + 1
        assert len(table) == 5
        assert table.region_of_point((1500, 300)).region_id == new.region_id

    def test_closed_ring_does_not_contain_the_whole_plane(self):
        table = RegionTable.grid(1200, 1200, 4)
        added = table.add([(0, 0), (10, 0), (10, 10), (0, 10), (0, 0)])
        assert table.region_of_point((5000.0, 5000.0)) is None
        assert added.vertices == ((0, 0), (10, 0), (10, 10), (0, 10))

    def test_repeated_vertices_are_dropped(self):
        table = RegionTable.grid(1200, 1200, 4)
        added = table.add([(2000, 0), (2000, 0), (2010, 0), (2010, 10),
                           (2010, 10), (2000, 10), (2000, 0)])
        assert added.vertices == ((2000, 0), (2010, 0), (2010, 10), (2000, 10))
        assert table.region_of_point((5000.0, 5000.0)) is None
        assert table.region_of_point((2005.0, 5.0)) is added

    def test_delete(self):
        table = RegionTable.grid(1200, 1200, 4)
        table.delete(2)
        assert len(table) == 3
        with pytest.raises(KeyError):
            table.get(2)

    def test_delete_unknown_raises(self):
        table = RegionTable.grid(1200, 1200, 4)
        with pytest.raises(KeyError):
            table.delete(99)

    def test_delete_last_region_rejected(self):
        table = RegionTable.grid(100, 100, 1)
        with pytest.raises(ValueError):
            table.delete(0)

    def test_merge_adjacent_rectangles(self):
        table = RegionTable.grid(1200, 1200, 4)  # 2x2
        merged = table.merge(0, 1)  # bottom row
        assert len(table) == 3
        # The merged region covers both old rectangles.
        assert merged.contains((100, 100))
        assert merged.contains((1100, 100))
        assert merged.center == pytest.approx((600.0, 300.0))

    def test_merge_self_rejected(self):
        table = RegionTable.grid(1200, 1200, 4)
        with pytest.raises(ValueError):
            table.merge(1, 1)

    def test_merge_missing_rejected(self):
        table = RegionTable.grid(1200, 1200, 4)
        with pytest.raises(KeyError):
            table.merge(0, 42)

    def test_separate_splits_territory(self):
        table = RegionTable.grid(1200, 1200, 4)
        first, second = table.separate(0, axis="x")
        assert len(table) == 5
        assert first.contains((100, 100))
        assert second.contains((500, 100))

    def test_separate_y_axis(self):
        table = RegionTable.grid(1200, 1200, 4)
        first, second = table.separate(0, axis="y")
        assert first.contains((100, 100))
        assert second.contains((100, 500))

    def test_separate_bad_axis(self):
        table = RegionTable.grid(1200, 1200, 4)
        with pytest.raises(ValueError):
            table.separate(0, axis="z")

    def test_operations_invalidate_grid_fast_path(self):
        table = RegionTable.grid(1200, 1200, 4)
        table.separate(0)
        # Lookup still works (now via the polygon fallback).
        pts = np.array([[100.0, 100.0]])
        rid = int(table.regions_of_points(pts)[0])
        assert table.get(rid).contains((100.0, 100.0))

    def test_version_monotone_across_operations(self):
        table = RegionTable.grid(1200, 1200, 4)
        versions = [table.version]
        table.add([(1200, 0), (1500, 0), (1500, 300)])
        versions.append(table.version)
        table.separate(0)
        versions.append(table.version)
        assert versions == sorted(set(versions))


class TestAdjacency:
    def test_grid_neighbors(self):
        table = RegionTable.grid(1200, 1200, 9)  # 3x3, ids row-major
        # Center region (id 4) touches every other in a 3x3 grid
        # (edges + corners).
        neighbors = {r.region_id for r in table.neighbors_of_region(4)}
        assert neighbors == {0, 1, 2, 3, 5, 6, 7, 8}

    def test_corner_region_neighbors(self):
        table = RegionTable.grid(1200, 1200, 9)
        neighbors = {r.region_id for r in table.neighbors_of_region(0)}
        assert neighbors == {1, 3, 4}

    def test_non_adjacent(self):
        table = RegionTable.grid(1200, 1200, 9)
        assert not table.are_adjacent(0, 2)  # same row, one apart
        assert not table.are_adjacent(0, 8)  # opposite corners

    def test_self_not_adjacent(self):
        table = RegionTable.grid(1200, 1200, 4)
        assert not table.are_adjacent(1, 1)

    def test_adjacency_symmetric(self):
        table = RegionTable.grid(1200, 1200, 12)
        for a in table.region_ids():
            for b in table.region_ids():
                assert table.are_adjacent(a, b) == table.are_adjacent(b, a)
