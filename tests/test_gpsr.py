"""Unit tests for GPSR routing (repro.routing.gpsr)."""

import numpy as np
import pytest

from repro.core.regions import RegionTable
from repro.routing import GeoEnvelope, NetworkStack
from tests.conftest import make_static_network


def run_route(positions, src, dest_point, dest_node=None, region=None, range_m=250.0):
    """Route a payload and report (delivered_at, hops, drops)."""
    net = make_static_network(positions, range_m=range_m, width=3000.0, height=3000.0)
    # Two regions: x below 350 (id 0) and from 350 to 700 (id 1).
    net.set_region_map(RegionTable.grid(700.0, 100.0, 2))
    stack = NetworkStack(net)
    delivered = []
    dropped = []
    stack.set_app_handler(lambda node, inner, pkt: delivered.append((node, inner, pkt)))
    stack.set_drop_handler(lambda node, pkt: dropped.append(node))
    stack.geo_send(
        src, "payload", 64, dest_point=dest_point, dest_node=dest_node, region=region
    )
    net.sim.run()
    return delivered, dropped, net


class TestGreedy:
    def test_routes_along_a_line(self):
        positions = [[i * 200.0, 0.0] for i in range(6)]
        delivered, dropped, net = run_route(
            positions, src=0, dest_point=(1000.0, 0.0), dest_node=5
        )
        assert dropped == []
        assert len(delivered) == 1
        node, inner, pkt = delivered[0]
        assert node == 5
        assert inner == "payload"
        assert pkt.hops == 5  # five forwarding hops on the chain

    def test_direct_neighbor_single_hop(self):
        positions = [[0.0, 0.0], [100.0, 0.0]]
        delivered, dropped, _ = run_route(
            positions, src=0, dest_point=(100.0, 0.0), dest_node=1
        )
        assert len(delivered) == 1 and delivered[0][0] == 1

    def test_arrival_by_radius(self):
        positions = [[0.0, 0.0], [200.0, 0.0], [400.0, 0.0]]
        delivered, dropped, _ = run_route(positions, src=0, dest_point=(401.0, 0.0))
        # Node 2 is within the default arrival radius of the point? No -
        # radius is 1.0 m; node 2 at distance 1.0 qualifies (inclusive).
        assert len(delivered) == 1
        assert delivered[0][0] == 2

    def test_region_arrival_at_first_inside_node(self):
        positions = [[0.0, 0.0], [200.0, 0.0], [400.0, 0.0], [600.0, 0.0]]
        delivered, dropped, _ = run_route(
            positions, src=0, dest_point=(500.0, 0.0), region=1
        )
        assert len(delivered) == 1
        # Node 2 (x=400) is the first node inside region 1.
        assert delivered[0][0] == 2

    def test_isolated_source_drops(self):
        positions = [[0.0, 0.0], [2000.0, 0.0]]
        delivered, dropped, net = run_route(
            positions, src=0, dest_point=(2000.0, 0.0), dest_node=1
        )
        assert delivered == []
        assert len(dropped) == 1
        assert net.stats.value("gpsr.dropped.isolated") == 1


class TestPerimeter:
    def test_routes_around_a_void(self):
        # A horseshoe: greedy from the left tip gets stuck facing the
        # destination across the void; perimeter mode goes around.
        positions = [
            [0.0, 0.0],      # 0 source
            [200.0, 0.0],    # 1 local maximum (void ahead)
            [200.0, 200.0],  # 2 upper detour
            [400.0, 200.0],  # 3
            [600.0, 200.0],  # 4
            [600.0, 0.0],    # 5 destination side
            [800.0, 0.0],    # 6 destination
        ]
        delivered, dropped, net = run_route(
            positions, src=0, dest_point=(800.0, 0.0), dest_node=6
        )
        assert dropped == []
        assert len(delivered) == 1
        assert delivered[0][0] == 6

    def test_unreachable_component_dropped(self):
        # Two clusters with a gap greater than radio range.
        positions = [
            [0.0, 0.0],
            [200.0, 0.0],
            [200.0, 200.0],
            [0.0, 200.0],
            [1500.0, 0.0],  # unreachable island
        ]
        delivered, dropped, net = run_route(
            positions, src=0, dest_point=(1500.0, 0.0), dest_node=4
        )
        assert delivered == []
        assert len(dropped) == 1

    def test_hop_budget_backstop(self):
        positions = [[i * 200.0, 0.0] for i in range(6)]
        net = make_static_network(positions, width=3000.0, height=3000.0)
        stack = NetworkStack(net)
        dropped = []
        stack.set_drop_handler(lambda node, pkt: dropped.append(node))
        env = GeoEnvelope(
            inner="x", dest_point=(1000.0, 0.0), dest_node=5, hops_remaining=2
        )
        stack.router.send(0, env, 64)
        net.sim.run()
        assert len(dropped) == 1
        assert net.stats.value("gpsr.dropped.hop_budget") == 1


class TestPathRecording:
    def test_envelope_path_records_visited_nodes(self):
        positions = [[i * 200.0, 0.0] for i in range(4)]
        net = make_static_network(positions, width=3000.0, height=3000.0)
        stack = NetworkStack(net)
        delivered = []
        stack.set_app_handler(lambda node, inner, pkt: delivered.append(pkt))
        env = stack.geo_send(0, "p", 64, dest_point=(600.0, 0.0), dest_node=3)
        net.sim.run()
        assert env.path == [0, 1, 2, 3]
