"""Unit tests for regions and the region table (repro.core.regions)."""

import numpy as np
import pytest

from repro.core.regions import Region, RegionTable
from tests.reference_kernel import scalar_region_of


class TestRegion:
    def test_rectangle_center(self):
        r = Region.rectangle(0, 0, 0, 400, 400)
        assert r.center == (200.0, 200.0)

    def test_degenerate_rectangle_rejected(self):
        with pytest.raises(ValueError):
            Region.rectangle(0, 10, 10, 10, 20)


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
        assert (table.rows, table.cols) == (3, 4)

    def test_prime_count_single_row(self):
        table = RegionTable.grid(700, 100, 7)
        assert len(table) == 7
        assert (table.rows, table.cols) == (1, 7)

    def test_every_point_covered(self):
        table = RegionTable.grid(1200, 1200, 9)
        rng = np.random.default_rng(0)
        ids = table.regions_of_points(rng.uniform(0, 1200, (100, 2)))
        assert (ids >= 0).all()

    def test_invalid_count(self):
        with pytest.raises(ValueError):
            RegionTable.grid(100, 100, 0)

    def test_cell_ids_are_row_major(self):
        table = RegionTable.grid(1200, 600, 12)  # 3 rows x 4 cols
        region = table.get(6)  # row 1, col 2
        assert region.vertices[0] == (600.0, 200.0)
        assert region.vertices[2] == (900.0, 400.0)


class TestLookups:
    def test_region_of_point(self):
        table = RegionTable.grid(1200, 1200, 9)
        assert table.regions_of_points(np.array([[100.0, 100.0]])).tolist() == [0]
        assert table.regions_of_points(np.array([[700.0, 1100.0]])).tolist() == [7]

    def test_point_outside_plane(self):
        table = RegionTable.grid(1200, 1200, 9)
        assert table.regions_of_points(np.array([[5000.0, 5000.0]])).tolist() == [-1]

    def test_closest_region_is_home(self):
        table = RegionTable.grid(1200, 1200, 9)
        homes, _ = table.home_and_replica([(210.0, 190.0)])
        assert table.get(int(homes[0])).center == (200.0, 200.0)

    def test_by_center_distance_ordering(self):
        table = RegionTable.grid(1200, 1200, 9)
        homes, replicas = table.home_and_replica([(0.0, 0.0)])
        dists = sorted(
            (np.hypot(r.center[0], r.center[1]), r.region_id) for r in table
        )
        # Regions 1 and 3 tie for second; the lower id is the replica.
        assert (homes[0], replicas[0]) == (dists[0][1], dists[1][1]) == (0, 1)

    def test_center_distance_symmetric(self):
        table = RegionTable.grid(1200, 1200, 9)
        ids = table.region_ids()
        a, b = ids[0], ids[4]
        assert table.center_distance(a, b) == table.center_distance(b, a)
        assert table.center_distance(a, a) == 0.0

    def test_regions_of_points_grid_fast_path(self):
        table = RegionTable.grid(1200, 1200, 9)
        rng = np.random.default_rng(1)
        pts = rng.uniform(0, 1200, (200, 2))
        ids = table.regions_of_points(pts)
        for i in range(200):
            assert ids[i] == scalar_region_of(table, pts[i, 0], pts[i, 1])

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

    def test_shared_edge_goes_where_the_arithmetic_puts_it(self):
        # 1 x 37 cells on 1200 m: x = 27 * 1200 / 37 is the edge between
        # cells 26 and 27, and x * 37 / 1200 rounds to just under 27.
        table = RegionTable.grid(1200, 1200, 37)
        edge = 27 * 1200 / 37
        assert table.regions_of_points(np.array([[edge, 5.0]])).tolist() == [26]


class TestHomeAndReplica:
    def test_four_way_tie_goes_to_the_lowest_ids(self):
        # (600, 600) is equidistant from all four centres of a 2 x 2 grid.
        table = RegionTable.grid(1200, 1200, 4)
        homes, replicas = table.home_and_replica([(600.0, 600.0)])
        assert (homes.tolist(), replicas.tolist()) == ([0], [1])

    def test_one_region_is_its_own_replica(self):
        table = RegionTable.grid(1200, 1200, 1)
        homes, replicas = table.home_and_replica([(5.0, 5.0), (900.0, 10.0)])
        assert homes.tolist() == replicas.tolist() == [0, 0]

    def test_deleted_regions_are_never_chosen(self):
        table = RegionTable.grid(1200, 1200, 9)
        table.delete(4)
        table.delete(0)
        homes, replicas = table.home_and_replica([(600.0, 600.0), (10.0, 10.0)])
        assert homes.tolist() == [1, 1]
        assert replicas.tolist() == [3, 3]

    def test_empty_batch(self):
        table = RegionTable.grid(1200, 1200, 9)
        homes, replicas = table.home_and_replica(np.empty((0, 2)))
        assert homes.shape == replicas.shape == (0,)


class TestManagementOperations:
    def test_delete(self):
        table = RegionTable.grid(1200, 1200, 4)
        table.delete(2)
        assert len(table) == 3
        assert table.region_ids() == [0, 1, 3]
        with pytest.raises(KeyError):
            table.get(2)

    def test_delete_unknown_raises(self):
        table = RegionTable.grid(1200, 1200, 4)
        with pytest.raises(KeyError):
            table.delete(99)

    def test_delete_twice_raises(self):
        table = RegionTable.grid(1200, 1200, 4)
        table.delete(1)
        with pytest.raises(KeyError):
            table.delete(1)
        assert table.version == 1

    def test_delete_last_region_rejected(self):
        table = RegionTable.grid(100, 100, 1)
        with pytest.raises(ValueError):
            table.delete(0)

    def test_version_monotone_across_operations(self):
        table = RegionTable.grid(1200, 1200, 4)
        versions = [table.version]
        for region_id in (0, 3, 1):
            table.delete(region_id)
            versions.append(table.version)
        assert versions == sorted(set(versions))
