"""Unit tests for the one-hop radio (repro.net.network)."""

import numpy as np
import pytest

from repro.net import RadioParams
from repro.net.packet import Packet
from tests.conftest import make_static_network

# Three nodes in a line; 0-1 and 1-2 in range, 0-2 out of range.
LINE = [[0.0, 0.0], [200.0, 0.0], [400.0, 0.0]]


def collect(network):
    received = []
    network.set_receive_handler(lambda node, pkt: received.append((node, pkt)))
    return received


class TestBroadcast:
    def test_reaches_all_in_range(self):
        net = make_static_network(LINE)
        received = collect(net)
        pkt = Packet(payload="hello", size_bytes=100, src=0)
        receivers = net.broadcast(0, pkt)
        assert set(receivers) == {1}
        net.sim.run()
        assert [(n, p.payload) for n, p in received] == [(1, "hello")]

    def test_delivery_delayed_by_mac(self):
        net = make_static_network(LINE)
        times = []
        net.set_receive_handler(lambda node, pkt: times.append(net.sim.now))
        net.broadcast(1, Packet(payload="x", size_bytes=1000, src=1))
        net.sim.run()
        expected_min = net.radio.tx_delay(1000)
        assert len(times) == 2
        for t in times:
            assert expected_min <= t <= expected_min + net.radio.max_jitter_s

    def test_energy_charged_to_sender_and_receivers(self):
        net = make_static_network(LINE)
        net.broadcast(1, Packet(payload="x", size_bytes=100, src=1))
        p = net.energy.params
        assert net.energy.node_total(1) == pytest.approx(p.bcast_send(100))
        assert net.energy.node_total(0) == pytest.approx(p.bcast_recv(100))
        assert net.energy.node_total(2) == pytest.approx(p.bcast_recv(100))

    def test_dead_sender_sends_nothing(self):
        net = make_static_network(LINE)
        received = collect(net)
        net.fail_node(0)
        receivers = net.broadcast(0, Packet(payload="x", size_bytes=10, src=0))
        net.sim.run()
        assert receivers == []
        assert received == []

    def test_dead_receiver_not_delivered(self):
        net = make_static_network(LINE)
        received = collect(net)
        net.fail_node(1)
        net.broadcast(0, Packet(payload="x", size_bytes=10, src=0))
        net.sim.run()
        assert received == []


class TestUnicast:
    def test_delivers_to_neighbor(self):
        net = make_static_network(LINE)
        received = collect(net)
        ok = net.unicast(0, 1, Packet(payload="m", size_bytes=50, src=0, dst=1))
        assert ok
        net.sim.run()
        assert [(n, p.payload) for n, p in received] == [(1, "m")]

    def test_out_of_range_dropped(self):
        net = make_static_network(LINE)
        received = collect(net)
        ok = net.unicast(0, 2, Packet(payload="m", size_bytes=50, src=0, dst=2))
        assert not ok
        net.sim.run()
        assert received == []
        assert net.stats.value("net.unicast_dropped") == 1
        # Drop cause is accounted under its own key.
        assert net.stats.value("net.unicast_dropped.out_of_range") == 1
        assert net.stats.value("net.unicast_dropped.dead") == 0
        assert net.stats.value("net.unicast_dropped.injected") == 0

    def test_energy_includes_overhearers(self):
        net = make_static_network(LINE)
        net.unicast(1, 0, Packet(payload="m", size_bytes=100, src=1, dst=0))
        p = net.energy.params
        assert net.energy.node_total(1) == pytest.approx(p.p2p_send(100))
        assert net.energy.node_total(0) == pytest.approx(p.p2p_recv(100))
        # Node 2 overhears node 1's transmission and discards.
        assert net.energy.node_total(2) == pytest.approx(p.discard(100))

    def test_dead_destination_dropped_but_send_charged(self):
        net = make_static_network(LINE)
        net.fail_node(1)
        ok = net.unicast(0, 1, Packet(payload="m", size_bytes=50, src=0, dst=1))
        assert not ok
        assert net.energy.node_total(0) > 0  # sender still spent energy
        assert net.stats.value("net.unicast_dropped.dead") == 1
        assert net.stats.value("net.unicast_dropped.out_of_range") == 0

    def test_category_counted(self):
        net = make_static_network(LINE)
        net.unicast(0, 1, Packet(payload="m", size_bytes=50, src=0, dst=1, category="response"))
        net.broadcast(0, Packet(payload="m", size_bytes=50, src=0, category="request"))
        assert net.stats.value("net.sent.response") == 1
        assert net.stats.value("net.sent.request") == 1


class TestLiveness:
    def test_fail_and_revive(self):
        net = make_static_network(LINE)
        assert net.is_alive(1)
        net.fail_node(1)
        assert not net.is_alive(1)
        assert set(net.neighbors_of(0)) == set()
        net.revive_node(1)
        assert set(net.neighbors_of(0)) == {1}

    def test_positions_and_neighbors(self):
        net = make_static_network(LINE)
        assert net.position_of(2) == (400.0, 0.0)
        assert set(net.neighbors_of(1)) == {0, 2}
        assert set(net.nodes_near((0.0, 0.0)).tolist()) == {0, 1}

    # While nobody is dead the radio skips its liveness tests, so these
    # check that a death or revival in flight still decides delivery.

    def test_receiver_failing_in_flight_is_not_delivered(self):
        net = make_static_network(LINE)
        received = collect(net)
        net.broadcast(1, Packet(payload="x", size_bytes=10, src=1))
        net.fail_node(2)
        net.sim.run()
        assert [n for n, _ in received] == [0]
        assert net.stats.value("net.delivered") == 1

    def test_receiver_failing_and_reviving_in_flight_is_delivered(self):
        net = make_static_network(LINE)
        received = collect(net)
        net.broadcast(1, Packet(payload="x", size_bytes=10, src=1))
        net.fail_node(2)
        net.revive_node(2)
        net.sim.run()
        assert [n for n, _ in received] == [0, 2]
        assert net.stats.value("net.delivered") == 2

    def test_repeated_fail_and_revive_do_not_move_the_dead_count(self):
        net = make_static_network(LINE)
        received = collect(net)
        net.fail_node(2)
        net.fail_node(2)
        net.revive_node(2)
        assert net.alive.all() and net._dead == 0
        net.broadcast(1, Packet(payload="x", size_bytes=10, src=1))
        net.sim.run()
        assert [n for n, _ in received] == [0, 2]
        # Reviving a live node must not hide later deaths in flight.
        net.revive_node(0)
        net.revive_node(0)
        net.broadcast(1, Packet(payload="y", size_bytes=10, src=1))
        net.fail_node(0)
        net.fail_node(2)
        net.sim.run()
        assert [n for n, _ in received] == [0, 2]

    def test_unicast_receiver_failing_in_flight_is_not_delivered(self):
        net = make_static_network(LINE)
        received = collect(net)
        assert net.unicast(0, 1, Packet(payload="m", size_bytes=50, src=0, dst=1))
        net.fail_node(1)
        net.sim.run()
        assert received == []
        assert net.stats.value("net.delivered") == 0

    def test_unicast_receiver_failing_and_reviving_in_flight_is_delivered(self):
        net = make_static_network(LINE)
        received = collect(net)
        assert net.unicast(0, 1, Packet(payload="m", size_bytes=50, src=0, dst=1))
        net.fail_node(1)
        net.revive_node(1)
        net.sim.run()
        assert [n for n, _ in received] == [1]
        assert net.stats.value("net.delivered") == 1

    def test_repeated_fail_and_revive_then_unicast(self):
        net = make_static_network(LINE)
        received = collect(net)
        net.fail_node(1)
        net.fail_node(1)
        net.revive_node(1)
        assert net.unicast(0, 1, Packet(payload="m", size_bytes=50, src=0, dst=1))
        net.sim.run()
        assert [n for n, _ in received] == [1]

    def test_only_fail_and_revive_write_alive(self):
        """The radio's dead count is kept by fail_node and revive_node,
        so nothing else under src/ may write the ``alive`` mask."""
        import ast
        from pathlib import Path

        src = Path(__file__).resolve().parent.parent / "src"
        allowed = {"fail_node", "revive_node"}
        offenders = []
        for path in sorted(src.rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            for func in ast.walk(tree):
                if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                for node in ast.walk(func):
                    targets = (
                        node.targets if isinstance(node, ast.Assign)
                        else [node.target] if isinstance(node, ast.AugAssign)
                        else []
                    )
                    for target in targets:
                        base = target.value if isinstance(target, ast.Subscript) else None
                        name = (
                            base.attr if isinstance(base, ast.Attribute)
                            else base.id if isinstance(base, ast.Name) else None
                        )
                        if name == "alive" and func.name not in allowed:
                            offenders.append(f"{path.name}:{node.lineno} {func.name}")
        assert not offenders, offenders


#: Three nodes, one per 200 m cell of a 600 m x 100 m three-cell map
#: (region ids 0, 1, 2 from the left); 0-1 and 1-2 in range.
CELLS = [[100.0, 50.0], [300.0, 50.0], [500.0, 50.0]]


def _mapped_network():
    from repro.core.regions import RegionTable

    net = make_static_network(CELLS, width=600.0, height=100.0)
    table = RegionTable.grid(600.0, 100.0, 3)
    net.set_region_map(table)
    return net, table


class TestRegionColumn:
    """The radio's one membership rule: a region id per node, computed
    once per (topology generation, region-map version)."""

    def test_reused_while_positions_hold(self):
        net, _ = _mapped_network()
        column = net.region_column()
        assert column == [0, 1, 2]
        net.sim.schedule(3 * net.radio.position_refresh_s, lambda: None)
        net.sim.run()  # resampled, but nobody moved: same generation
        assert net.region_column() is column

    def test_follows_a_mobility_refresh(self):
        net, _ = _mapped_network()
        assert net.region_column() == [0, 1, 2]
        net.mobility._positions = np.array([[100.0, 50.0], [450.0, 50.0],
                                            [500.0, 50.0]])
        net.sim.schedule(net.radio.position_refresh_s, lambda: None)
        net.sim.run()
        assert net.region_column() == [0, 2, 2]

    def test_follows_fail_and_revive(self):
        net, _ = _mapped_network()
        assert net.region_column() == [0, 1, 2]
        # Moved, but no resample is due: the generation and column hold
        # until a liveness change rebuilds the index.
        net.mobility._positions = np.array([[250.0, 50.0], [300.0, 50.0],
                                            [500.0, 50.0]])
        assert net.region_column() == [0, 1, 2]
        net.fail_node(2)
        assert net.region_column() == [1, 1, 2]
        net.mobility._positions = np.array(CELLS)
        net.revive_node(2)
        assert net.region_column() == [0, 1, 2]

    def test_a_node_in_a_deleted_cell_is_in_no_region(self):
        net, table = _mapped_network()
        assert net.region_column() == [0, 1, 2]
        table.delete(1)  # a table change with no generation bump
        assert net.region_column() == [0, -1, 2]

    def test_a_deleted_cell_joins_no_regional_flood(self):
        from repro.routing import NetworkStack

        for deleted, want in ((False, [1]), (True, [])):
            net, table = _mapped_network()
            net.region_column()  # placed before the Delete, as at start-up
            if deleted:
                table.delete(1)
            stack = NetworkStack(net)
            heard = []
            stack.set_app_handler(lambda node, inner, pkt: heard.append(node))
            stack.flood_send(0, "m", 64, region=1)
            net.sim.run()
            assert heard == want

    def test_a_deleted_cell_is_no_route_to_region_arrival(self):
        from repro.routing import NetworkStack

        for deleted, want in ((False, [1]), (True, [])):
            net, table = _mapped_network()
            net.region_column()  # placed before the Delete, as at start-up
            if deleted:
                table.delete(1)
            stack = NetworkStack(net)
            heard = []
            stack.set_app_handler(lambda node, inner, pkt: heard.append(node))
            stack.geo_send(0, "m", 64, dest_point=(300.0, 50.0), region=1)
            net.sim.run()
            assert heard == want
            assert net.stats.value("gpsr.dropped") == (1 if deleted else 0)

    def test_a_region_scoped_send_needs_a_region_map(self):
        from repro.routing import NetworkStack

        net = make_static_network(CELLS, width=600.0, height=100.0)
        stack = NetworkStack(net)
        stack.flood_send(0, "m", 64, region=1)
        with pytest.raises(RuntimeError, match="no region map"):
            net.sim.run()

    def test_follows_the_table_version_across_a_startup_delete(self):
        from unittest import mock

        from repro.core.network import PReCinCtNetwork
        from repro.core.regions import RegionTable
        from tests.conftest import tiny_config

        versions = []
        lookup = RegionTable.regions_of_points

        def spy(table, points):
            versions.append(table.version)
            return lookup(table, points)

        with mock.patch.object(RegionTable, "regions_of_points", spy):
            net = PReCinCtNetwork(tiny_config(
                n_nodes=20, n_regions=25, max_speed=0.0, width=1000.0,
                height=1000.0))
            column = net.network.region_column()
        deleted = net.stats.value("regions.deleted_empty")
        assert deleted > 0 and net.table.version == deleted
        # Placed at version 0, read again at the post-Delete version.
        assert versions == [0, net.table.version]
        assert column == [peer.current_region_id for peer in net.peers]
        assert set(column) == set(net.table.region_ids())


class TestRadioParams:
    def test_tx_delay(self):
        r = RadioParams(bandwidth_bps=1e6, mac_overhead_s=0.001)
        assert r.tx_delay(1000) == pytest.approx(8 * 1000 / 1e6 + 0.001)

    def test_packet_size_validation(self):
        with pytest.raises(ValueError):
            Packet(payload="x", size_bytes=0, src=0)

    def test_next_hop_copy_preserves_identity(self):
        pkt = Packet(payload="x", size_bytes=10, src=0, category="request")
        hop = pkt.next_hop_copy(src=1, dst=2)
        assert hop.packet_id == pkt.packet_id
        assert hop.hops == 1
        assert hop.src == 1 and hop.dst == 2
        assert hop.category == "request"
        assert hop.created_at == pkt.created_at
