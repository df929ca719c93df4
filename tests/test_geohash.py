"""Unit tests for the geographic hash (repro.core.geohash)."""

import numpy as np
import pytest

from repro.core.geohash import GeographicHash
from repro.core.regions import RegionTable


class TestLocationHash:
    def test_deterministic(self):
        h1 = GeographicHash(1200, 1200, salt=5)
        h2 = GeographicHash(1200, 1200, salt=5)
        assert np.array_equal(h1.locations(50), h2.locations(50))

    def test_salt_changes_locations(self):
        h1 = GeographicHash(1200, 1200, salt=1)
        h2 = GeographicHash(1200, 1200, salt=2)
        diffs = (h1.locations(50) != h2.locations(50)).any(axis=1).sum()
        assert diffs >= 45

    def test_locations_within_plane(self):
        h = GeographicHash(1200, 800)
        xs, ys = h.locations(500).T
        assert ((0 <= xs) & (xs < 1200)).all()
        assert ((0 <= ys) & (ys < 800)).all()

    def test_locations_roughly_uniform(self):
        h = GeographicHash(1000, 1000)
        xs, ys = h.locations(5000).T
        # Mean of uniform(0, 1000) is 500 +- a few percent at n=5000.
        assert abs(xs.mean() - 500) < 25
        assert abs(ys.mean() - 500) < 25
        # Each quadrant gets roughly a quarter.
        q = ((xs < 500) & (ys < 500)).mean()
        assert 0.2 < q < 0.3

    def test_invalid_dimensions(self):
        with pytest.raises(ValueError):
            GeographicHash(0, 100)


def _home_and_replica(table, locations):
    """Each location's (home, replica) Region pair from one batched call."""
    homes, replicas = table.home_and_replica(locations)
    return [(table.get(a), table.get(b))
            for a, b in zip(homes.tolist(), replicas.tolist())]


class TestRegionMapping:
    def test_home_region_is_closest_center(self):
        table = RegionTable.grid(1200, 1200, 9)
        locations = GeographicHash(1200, 1200).locations(100)
        for loc, (home, _) in zip(locations, _home_and_replica(table, locations)):
            dist_home = np.hypot(home.center[0] - loc[0], home.center[1] - loc[1])
            for region in table:
                dist = np.hypot(region.center[0] - loc[0], region.center[1] - loc[1])
                assert dist_home <= dist + 1e-9

    def test_replica_is_second_closest_and_distinct(self):
        table = RegionTable.grid(1200, 1200, 9)
        locations = GeographicHash(1200, 1200).locations(100)
        for loc, (home, replica) in zip(locations, _home_and_replica(table, locations)):
            assert home.region_id != replica.region_id
            d_home = np.hypot(home.center[0] - loc[0], home.center[1] - loc[1])
            d_rep = np.hypot(replica.center[0] - loc[0], replica.center[1] - loc[1])
            assert d_home <= d_rep
            for region in table:
                if region.region_id != home.region_id:
                    dist = np.hypot(region.center[0] - loc[0],
                                    region.center[1] - loc[1])
                    assert d_rep <= dist + 1e-9

    def test_single_region_degenerate_replica(self):
        table = RegionTable.grid(100, 100, 1)
        locations = GeographicHash(100, 100).locations(1)
        [(home, replica)] = _home_and_replica(table, locations)
        assert home.region_id == replica.region_id == 0

    def test_keys_spread_across_regions(self):
        table = RegionTable.grid(1200, 1200, 9)
        counts = {rid: 0 for rid in table.region_ids()}
        locations = GeographicHash(1200, 1200).locations(900)
        for home, _ in _home_and_replica(table, locations):
            counts[home.region_id] += 1
        # Every region homes a reasonable share (uniform would be 100).
        for rid, count in counts.items():
            assert 40 <= count <= 180, (rid, count)

    def test_home_and_replica_consistent_with_individual_calls(self):
        # A location's placement does not depend on the batch around it.
        table = RegionTable.grid(1200, 1200, 9)
        locations = GeographicHash(1200, 1200).locations(20)
        batched = _home_and_replica(table, locations)
        for key in range(20):
            assert _home_and_replica(table, locations[key:key + 1]) == [batched[key]]


class TestKeyRegionTable:
    """``PReCinCtNetwork.key_regions`` is the per-key stable sort, taken once."""

    @staticmethod
    def _assert_table_matches(net):
        from tests.reference_kernel import per_point_home_and_replica

        assert len(net.key_regions) == len(net.db)
        homes, replicas = per_point_home_and_replica(
            net.table, net.geohash.locations(len(net.db))
        )
        for key, (home, replica) in enumerate(net.key_regions):
            assert home is net.table.get(int(homes[key]))
            assert replica is net.table.get(int(replicas[key]))

    @pytest.mark.parametrize("n_regions", [1, 9, 64])
    @pytest.mark.parametrize("replication", [True, False])
    @pytest.mark.parametrize("max_speed", [None, 4.0], ids=["static", "mobile"])
    def test_table_equals_home_and_replica(self, n_regions, replication, max_speed):
        from repro import PReCinCtNetwork, SimulationConfig

        self._assert_table_matches(PReCinCtNetwork(SimulationConfig(
            n_nodes=40, n_regions=n_regions, n_items=120, duration=60.0,
            warmup=10.0, max_speed=max_speed, enable_replication=replication,
            seed=5,
        )))

    @pytest.mark.parametrize("n_regions", [1, 9, 64])
    def test_table_over_many_chunks(self, n_regions, monkeypatch):
        import repro.core.regions
        from repro import PReCinCtNetwork, SimulationConfig

        # Seven keys per chunk: 120 keys make 17 full chunks and a last
        # chunk of one key.
        monkeypatch.setattr(
            repro.core.regions, "KEY_TABLE_CHUNK_CELLS", 7 * n_regions
        )
        net = PReCinCtNetwork(SimulationConfig(
            n_nodes=40, n_regions=n_regions, n_items=120, duration=60.0,
            warmup=10.0, max_speed=4.0, enable_replication=True, seed=5,
        ))
        assert len(net.table.region_ids()) == n_regions
        self._assert_table_matches(net)

    def test_table_over_non_contiguous_region_ids(self):
        from repro import PReCinCtNetwork, SimulationConfig

        # Fig. 9b's shape: 20 static nodes leave some of 25 grid cells
        # empty, and the empty regions are deleted from the table.
        net = PReCinCtNetwork(SimulationConfig(
            n_nodes=20, n_regions=25, n_items=120, duration=60.0, warmup=10.0,
            max_speed=None, seed=5,
        ))
        ids = net.table.region_ids()
        assert len(ids) < 25 and ids != list(range(len(ids)))
        self._assert_table_matches(net)
