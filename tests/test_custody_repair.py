"""Tests for custody repair (re-placing orphaned keys)."""

import pytest

from repro.core.network import PReCinCtNetwork
from tests.conftest import tiny_config
from tests.test_peer_protocol import make_net


class TestRepairMechanics:
    def test_orphans_repaired_when_region_repopulates(self):
        net = make_net()  # stationary, all regions populated
        mover = next(p for p in net.peers if p.static_keys)
        region_id = mover.current_region_id
        keys = set(mover.static_keys)
        # Empty the region except the mover, then move the mover out:
        # its keys are orphaned (no handoff target).
        others = [
            p
            for p in net.peers
            if p is not mover and p.current_region_id == region_id
        ]
        for peer in others:
            net.network.fail_node(peer.id)
        mover.on_region_change((region_id + 1) % len(net.table))
        assert net._orphaned_keys.get(region_id)
        # The region repopulates.
        for peer in others:
            net.network.revive_node(peer.id)
        repaired = net.repair_custody()
        assert repaired > 0
        net.sim.run(until=30.0)
        # Keys are custodied in the home region again (served by the
        # surviving replica copies' handoffs).
        for key in keys:
            holders = [
                p
                for p in net.peers
                if key in p.static_keys and p.current_region_id == region_id
            ]
            assert holders, f"key {key} not repaired"

    def test_repair_waits_while_region_empty(self):
        net = make_net()
        mover = next(p for p in net.peers if p.static_keys)
        region_id = mover.current_region_id
        for peer in net.peers:
            if peer is not mover and peer.current_region_id == region_id:
                net.network.fail_node(peer.id)
        mover.on_region_change((region_id + 1) % len(net.table))
        assert net.repair_custody() == 0  # nobody to repair onto
        assert net._orphaned_keys.get(region_id)

    def test_lost_keys_counted_when_no_copy_survives(self):
        net = make_net(enable_replication=False)
        mover = next(p for p in net.peers if p.static_keys)
        region_id = mover.current_region_id
        others = [
            p
            for p in net.peers
            if p is not mover and p.current_region_id == region_id
        ]
        for peer in others:
            net.network.fail_node(peer.id)
        mover.on_region_change((region_id + 1) % len(net.table))
        # Without replication the mover's cleared keys have no holder.
        for peer in others:
            net.network.revive_node(peer.id)
        net.repair_custody()
        assert net.stats.value("custody.lost") > 0


class TestRepairEndToEnd:
    def test_churn_run_repairs_custody(self):
        net = PReCinCtNetwork(
            tiny_config(
                churn_uptime=60.0,
                churn_downtime=30.0,
                churn_crash_fraction=0.0,
                duration=300.0,
                warmup=50.0,
                seed=43,
            )
        )
        net.run()
        # Orphaning happened at some point and repair activity followed,
        # or nothing was ever orphaned (both are healthy outcomes).
        orphaned = net.stats.value("peer.keys_orphaned")
        repaired = net.stats.value("custody.repaired")
        if orphaned > 0:
            assert repaired > 0 or net._orphaned_keys
