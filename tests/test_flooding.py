"""Unit tests for flooding (repro.routing.flooding)."""

import numpy as np
import pytest

from repro.core.regions import RegionTable
from repro.routing import FloodEnvelope, NetworkStack
from tests.conftest import make_static_network, tiny_config

# A 3x3 grid with 200 m spacing: each node reaches its 4-neighborhood
# (and diagonals are at 283 m — out of the 250 m range).
GRID9 = [[x * 200.0, y * 200.0] for y in range(3) for x in range(3)]

#: Three 200 m wide columns of 600 m: region 0 holds GRID9's left
#: column (nodes 0, 3, 6), whose x is 0.
COLUMNS = RegionTable.grid(600.0, 600.0, 3)


def run_flood(positions, origin, region=None, ttl=None, record_path=False, **kw):
    net = make_static_network(positions, width=3000.0, height=3000.0, **kw)
    net.set_region_map(COLUMNS)
    stack = NetworkStack(net)
    delivered = []
    stack.set_app_handler(lambda node, inner, pkt: delivered.append((node, inner, pkt)))
    stack.flood_send(origin, "msg", 64, region=region, ttl=ttl, record_path=record_path)
    net.sim.run()
    return delivered, net


class TestGlobalFlood:
    def test_reaches_every_connected_node_once(self):
        delivered, net = run_flood(GRID9, origin=4)
        nodes = sorted(n for n, _, _ in delivered)
        assert nodes == [0, 1, 2, 3, 5, 6, 7, 8]  # everyone but the origin

    def test_duplicates_suppressed(self):
        delivered, net = run_flood(GRID9, origin=0)
        nodes = [n for n, _, _ in delivered]
        assert len(nodes) == len(set(nodes))
        assert net.stats.value("flood.duplicate") > 0  # dense graph echoes

    def test_disconnected_island_not_reached(self):
        positions = GRID9 + [[2500.0, 2500.0]]
        delivered, _ = run_flood(positions, origin=0)
        assert 9 not in {n for n, _, _ in delivered}

    def test_every_node_rebroadcasts_once(self):
        delivered, net = run_flood(GRID9, origin=0)
        # 1 initiation + 8 rebroadcasts.
        assert net.stats.value("flood.initiated") == 1
        assert net.stats.value("flood.rebroadcast") == 8


class TestTTLFlood:
    def test_ttl_zero_reaches_only_neighbors(self):
        delivered, _ = run_flood(GRID9, origin=4, ttl=0)
        assert sorted(n for n, _, _ in delivered) == [1, 3, 5, 7]

    def test_ttl_one_reaches_two_hops(self):
        delivered, _ = run_flood(GRID9, origin=0, ttl=1)
        nodes = {n for n, _, _ in delivered}
        # 0's neighbors {1, 3} rebroadcast once: adds {2, 4, 6}.
        assert nodes == {1, 2, 3, 4, 6}

    def test_large_ttl_equivalent_to_global(self):
        d_global, _ = run_flood(GRID9, origin=0)
        d_ttl, _ = run_flood(GRID9, origin=0, ttl=99)
        assert {n for n, _, _ in d_global} == {n for n, _, _ in d_ttl}


class TestRegionalFlood:
    def test_out_of_region_nodes_drop_without_rebroadcast(self):
        delivered, net = run_flood(GRID9, origin=0, region=0)
        nodes = {n for n, _, _ in delivered}
        # Left column is nodes 0, 3, 6.
        assert nodes == {3, 6}
        assert net.stats.value("flood.out_of_scope") > 0

    def test_regional_flood_still_charges_out_of_scope_receivers(self):
        _, net = run_flood(GRID9, origin=0, region=0)
        # Node 1 (out of region) still overheard broadcasts -> energy.
        assert net.energy.node_total(1) > 0


class TestPathRecording:
    def test_recorded_path_is_a_valid_forwarder_chain(self):
        positions = [[i * 200.0, 0.0] for i in range(5)]
        net = make_static_network(positions, width=3000.0, height=3000.0)
        stack = NetworkStack(net)
        got = {}
        stack.set_app_handler(
            lambda node, inner, pkt: got.setdefault(node, pkt.payload.path)
        )
        stack.flood_send(0, "m", 64, record_path=True)
        net.sim.run()
        assert got[4] == (0, 1, 2, 3)
        assert got[1] == (0,)


class TestFloodSendReturnsTheEnvelopeInFlight:
    def test_record_path_flood(self):
        net = make_static_network([[0.0, 0.0], [200.0, 0.0], [400.0, 0.0]])
        stack = NetworkStack(net)
        heard = {}
        stack.set_app_handler(lambda node, inner, pkt: heard.setdefault(node, pkt.payload))
        envelope = stack.flood_send(0, "m", 64, record_path=True)
        assert envelope.path == (0,)
        assert envelope.seen is not None and envelope.seen[0]
        net.sim.run()
        assert heard[1] is envelope  # node 1 heard the origin's broadcast
        assert heard[2].path == (0, 1) and heard[2].seen is envelope.seen


class TestDedupStateLifetime:
    def test_no_flood_state_outlives_the_run(self):
        """The dedup mask rides on the flood's envelopes: once the last
        copy is delivered nothing holds an envelope, hence no mask, and
        the flooder itself keeps no per-flood state."""
        import gc

        from repro.core.network import PReCinCtNetwork

        net = PReCinCtNetwork(tiny_config(duration=80.0, warmup=10.0))
        net.run()
        assert net.stats.value("flood.initiated") > 0
        gc.collect()
        assert not [o for o in gc.get_objects() if isinstance(o, FloodEnvelope)]
        assert not [
            name for name, value in vars(net.stack.flooder).items()
            if isinstance(value, (dict, list, set))
        ]
