"""Tests for PReCinCtNetwork internals (repro.core.network helpers)."""

from dataclasses import replace

import numpy as np
import pytest

from repro.config import SimulationConfig
from repro.core.messages import KeyHandoff
from repro.core.network import PReCinCtNetwork


def make_static(**overrides):
    defaults = dict(
        n_nodes=40,
        width=800.0,
        height=800.0,
        max_speed=None,
        duration=300.0,
        warmup=50.0,
        n_items=100,
        seed=6,
    )
    defaults.update(overrides)
    return PReCinCtNetwork(SimulationConfig(**defaults))


class TestEmptyRegionDeletion:
    def test_sparse_static_topology_deletes_regions(self):
        net = make_static(n_nodes=8, n_regions=25)
        assert len(net.table) < 25
        assert net.stats.value("regions.deleted_empty") > 0

    def test_dense_topology_keeps_all_regions(self):
        net = make_static(n_nodes=40, n_regions=4)
        assert len(net.table) == 4

    def test_every_region_populated_after_deletion(self):
        net = make_static(n_nodes=10, n_regions=16)
        populated = {p.current_region_id for p in net.peers}
        assert set(net.table.region_ids()) <= populated

    def test_mobile_topology_keeps_all_regions(self):
        net = PReCinCtNetwork(
            SimulationConfig(
                n_nodes=8, n_regions=25, max_speed=5.0,
                duration=100.0, warmup=10.0, n_items=50, seed=6,
            )
        )
        assert len(net.table) == 25  # nodes wander; territory retained


class TestHandoffTargetSelection:
    def test_excludes_the_mover(self):
        net = make_static()
        region = net.peers[0].current_region_id
        target = net.pick_handoff_target(0, region)
        assert target != 0

    def test_prefers_central_member(self):
        net = make_static()
        region_id = net.peers[0].current_region_id
        target = net.pick_handoff_target(0, region_id)
        center = net.table.get(region_id).center
        positions = net.network.positions()

        def dist(peer_id):
            p = positions[peer_id]
            return float(np.hypot(p[0] - center[0], p[1] - center[1]))

        members = net._peers_in_region(region_id, exclude=0)
        assert dist(target) == pytest.approx(min(dist(m) for m in members))

    def test_empty_region_returns_none(self):
        net = make_static()
        region_id = net.peers[0].current_region_id
        for peer in net.peers:
            if peer.current_region_id == region_id:
                net.network.fail_node(peer.id)
        assert net.pick_handoff_target(-1, region_id) is None


class TestHandoffRedelivery:
    def test_exhausted_retries_orphan_the_keys(self):
        net = make_static()
        msg = KeyHandoff(
            from_peer=0, to_peer=1, entries=((5, 0, 0.0, 0.0, 0.0),),
            total_data_bytes=100.0, region_id=2, retries=2,
        )
        before = net.stats.value("peer.keys_orphaned")
        net._redeliver_handoff(3, msg)
        assert net.stats.value("peer.keys_orphaned") == before + 1

    def test_retry_targets_a_different_peer(self):
        net = make_static()
        region_id = net.peers[0].current_region_id
        failed_target = net.pick_handoff_target(-1, region_id)
        msg = KeyHandoff(
            from_peer=0, to_peer=failed_target,
            entries=((5, 0, 0.0, 0.0, 0.0),),
            total_data_bytes=100.0, region_id=region_id, retries=0,
        )
        net._redeliver_handoff(0, msg)
        assert net.stats.value("peer.handoff_retries") == 1


class TestUpdatePushPaths:
    def test_updater_inside_home_region_floods_directly(self):
        net = make_static()
        # Find a key homed where some peer resides.
        for key in range(len(net.db)):
            home = net.key_regions[key][0]
            members = net._peers_in_region(home.region_id)
            if members:
                updater = members[0]
                break
        net.db[key].bump_version(1.0)
        net.push_update_to_regions(updater, key, category="consistency")
        net.sim.run(until=5.0)
        # The home push became a regional flood, not a geo route.
        assert net.stats.value("net.sent.consistency") > 0

    def test_replication_off_pushes_once(self):
        net = make_static(enable_replication=False)
        requester = net.peers[0]
        key = next(k for k in range(len(net.db)) if k not in requester.static_keys)
        net.db[key].bump_version(1.0)
        flood_before = net.stats.value("flood.initiated")
        net.push_update_to_regions(0, key, category="consistency")
        net.sim.run(until=10.0)
        # Exactly one region receives the push (one localized flood).
        assert net.stats.value("flood.initiated") - flood_before <= 1


class TestReportShape:
    def test_report_includes_percentiles_and_categories(self):
        net = make_static(duration=200.0, warmup=40.0)
        report = net.run()
        assert report.latency_p95 >= report.latency_p50 >= 0.0
        assert any(k.startswith("sent.") for k in report.extra)
