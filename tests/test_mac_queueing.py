"""Tests for the half-duplex MAC transmit queue (repro.net.network)."""

import numpy as np
import pytest

from repro.net import RadioParams
from repro.net.packet import Packet
from tests.conftest import make_static_network

PAIR = [[0.0, 0.0], [100.0, 0.0]]


def deterministic_net(positions):
    """Network with zero jitter so delays are exactly predictable."""
    net = make_static_network(positions, width=1000.0, height=1000.0)
    # Rebuild with a jitter-free radio.
    from repro.mobility import StationaryModel
    from repro.net import WirelessNetwork
    from repro.sim import RngRegistry, Simulator

    sim = Simulator()
    rngs = RngRegistry(1)
    mobility = StationaryModel(
        len(positions), 1000.0, 1000.0, rng=rngs.get("p"),
        positions=np.asarray(positions, dtype=float),
    )
    radio = RadioParams(max_jitter_s=0.0, mac_overhead_s=1e-3, bandwidth_bps=1e6)
    return WirelessNetwork(sim, mobility, rng=rngs.get("mac"), radio=radio)


class TestTransmitQueue:
    def test_back_to_back_sends_serialize(self):
        net = deterministic_net(PAIR)
        times = []
        net.set_receive_handler(lambda node, pkt: times.append(net.sim.now))
        tx = net.radio.tx_delay(1000)  # 8 ms + 1 ms = 9 ms
        for _ in range(3):
            net.unicast(0, 1, Packet(payload="m", size_bytes=1000, src=0, dst=1))
        net.sim.run()
        assert times == pytest.approx([tx, 2 * tx, 3 * tx])

    def test_different_senders_do_not_queue_on_each_other(self):
        net = deterministic_net([[0.0, 0.0], [100.0, 0.0], [200.0, 0.0]])
        times = []
        net.set_receive_handler(lambda node, pkt: times.append((node, net.sim.now)))
        tx = net.radio.tx_delay(500)
        net.unicast(0, 1, Packet(payload="a", size_bytes=500, src=0, dst=1))
        net.unicast(2, 1, Packet(payload="b", size_bytes=500, src=2, dst=1))
        net.sim.run()
        # Both arrive after one serialization time: independent radios.
        assert [t for _, t in times] == pytest.approx([tx, tx])

    def test_queue_drains_when_idle(self):
        net = deterministic_net(PAIR)
        times = []
        net.set_receive_handler(lambda node, pkt: times.append(net.sim.now))
        tx = net.radio.tx_delay(1000)
        net.unicast(0, 1, Packet(payload="m", size_bytes=1000, src=0, dst=1))
        net.sim.run()
        # Long idle gap: the next send is not delayed by history.
        net.sim.schedule(1.0, lambda: None)
        net.sim.run()
        idle_now = net.sim.now
        net.unicast(0, 1, Packet(payload="m", size_bytes=1000, src=0, dst=1))
        net.sim.run()
        assert times[1] == pytest.approx(idle_now + tx)

    def test_broadcast_also_occupies_the_radio(self):
        net = deterministic_net(PAIR)
        times = []
        net.set_receive_handler(lambda node, pkt: times.append(net.sim.now))
        tx = net.radio.tx_delay(1000)
        net.broadcast(0, Packet(payload="x", size_bytes=1000, src=0))
        net.unicast(0, 1, Packet(payload="y", size_bytes=1000, src=0, dst=1))
        net.sim.run()
        assert times == pytest.approx([tx, 2 * tx])

    def test_burst_queueing_scales_linearly(self):
        net = deterministic_net(PAIR)
        times = []
        net.set_receive_handler(lambda node, pkt: times.append(net.sim.now))
        tx = net.radio.tx_delay(200)
        n = 10
        for _ in range(n):
            net.unicast(0, 1, Packet(payload="m", size_bytes=200, src=0, dst=1))
        net.sim.run()
        assert times[-1] == pytest.approx(n * tx)


class TestBlockDrawnJitter:
    def test_hop_delays_match_one_scalar_draw_per_hop(self):
        """The radio fetches its jitter a block at a time; across several
        refills every hop still gets ``rng.random() * max_jitter_s`` from
        the same stream position, and the backlog it leaves is the same."""
        from repro.mobility import StationaryModel
        from repro.net import WirelessNetwork
        from repro.net.network import _JITTER_BLOCK
        from repro.sim import Simulator

        n_nodes = 3
        sim = Simulator()
        mobility = StationaryModel(
            n_nodes, 100.0, 100.0, rng=np.random.default_rng(0),
            positions=np.zeros((n_nodes, 2)),
        )
        net = WirelessNetwork(sim, mobility, rng=np.random.default_rng(2024))
        twin_rng = np.random.default_rng(2024)
        busy = [0.0] * n_nodes
        steps = 2 * _JITTER_BLOCK + 37
        got, want, backlogs = [], [], []

        def hop(k):
            src, size = k % n_nodes, 40.0 + (k % 7) * 100.0
            got.append(net._hop_delay(src, size))
            now = sim.now
            start = max(now, busy[src])
            jitter = twin_rng.random() * net.radio.max_jitter_s
            end = start + net.radio.tx_delay(size) + jitter
            busy[src] = end
            want.append(end - now)
            backlogs.append((net.mac_backlog().tobytes(),
                             np.maximum(np.asarray(busy) - now, 0.0).tobytes()))

        for k in range(steps):
            # Bursts at shared instants queue; the gaps let radios drain.
            sim.schedule_at(0.004 * (k // 5), hop, k)
        sim.run()
        assert len(got) == steps
        assert got == want
        assert all(a == b for a, b in backlogs)
        assert net.mac_backlog().dtype == np.float64
        # Both streams are at the same position after the last refill.
        drawn = -(-steps // _JITTER_BLOCK) * _JITTER_BLOCK
        assert len(net._jitters) == drawn - steps
        for _ in range(drawn - steps):
            twin_rng.random()
        assert net.rng.random() == twin_rng.random()
