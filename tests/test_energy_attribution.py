"""Span-level energy attribution (repro.energy.attribution).

Three layers of assurance:

* the radio's per-message charges on a hand-computable 3-node line
  topology match the paper's eq. 7-8 (broadcast) and eq. 9-10 + local
  overhearing (unicast) costs exactly — including that a sender is
  **never** charged for receiving or overhearing its own broadcast;
* the attributor's classification and bookkeeping contracts
  (span kinds, phases, regions, reset lockstep);
* the conservation law: attributed energy sums exactly to the ledger
  total (a hypothesis property over random charge sequences with
  dyadic coefficients, and a full-run integration check).
"""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.messages import (
    DataResponse,
    HomeRequest,
    Invalidation,
    LocalRequest,
    Poll,
    PollReply,
    UpdatePush,
)
from repro.energy import EnergyAttributor, EnergyLedger, EnergyParams
from repro.energy.attribution import classify_packet
from repro.net.packet import Packet
from repro.obs.tracer import Tracer
from repro.routing.envelopes import FloodEnvelope, GeoEnvelope
from tests.conftest import make_static_network, tiny_config

#: 3 nodes on a line, 200 m apart, 250 m range: 1 hears {0, 2}, the
#: ends hear only the middle.
LINE = [(0.0, 0.0), (200.0, 0.0), (400.0, 0.0)]

P = EnergyParams()


def _packet(payload, size=100.0, src=0, dst=None, category="request"):
    return Packet(payload=payload, size_bytes=size, src=src, dst=dst,
                  category=category)


def _home_request(request_id=7, to_replica=False):
    return HomeRequest(request_id=request_id, requester=0,
                       requester_pos=(0.0, 0.0), key=3, target_region_id=1,
                       to_replica=to_replica)


class TestThreeNodeLinePinnedCharges:
    """Per-message joules pinned against eq. 7-8 / 9-10 by hand."""

    def test_broadcast_from_middle_eq7_eq8(self):
        net = make_static_network(LINE)
        size = 100.0
        receivers = net.broadcast(1, _packet(_home_request(), size, src=1))
        # eq. 7: zeta = both line ends; the sender is not its own receiver.
        assert sorted(int(r) for r in receivers) == [0, 2]
        per_node = net.energy.per_node()
        assert per_node[1] == pytest.approx(P.bcast_send(size))
        assert per_node[0] == pytest.approx(P.bcast_recv(size))
        assert per_node[2] == pytest.approx(P.bcast_recv(size))
        # eq. 8: E = bcast_send + zeta * bcast_recv, zeta = 2.
        assert net.energy.total() == pytest.approx(
            P.bcast_send(size) + 2 * P.bcast_recv(size)
        )

    def test_broadcast_from_line_end_has_one_receiver(self):
        net = make_static_network(LINE)
        size = 80.0
        receivers = net.broadcast(0, _packet(_home_request(), size, src=0))
        assert [int(r) for r in receivers] == [1]
        assert net.energy.total() == pytest.approx(
            P.bcast_send(size) + P.bcast_recv(size)
        )

    def test_unicast_hop_eq9_eq10_plus_overhearing(self):
        net = make_static_network(LINE)
        size = 120.0
        ok = net.unicast(1, 2, _packet(_home_request(), size, src=1, dst=2))
        assert ok
        per_node = net.energy.per_node()
        # eq. 9-10: sender p2p-send, addressee p2p-recv; node 0 is in the
        # sender's range but not addressed, so it pays discard.
        assert per_node[1] == pytest.approx(P.p2p_send(size))
        assert per_node[2] == pytest.approx(P.p2p_recv(size))
        assert per_node[0] == pytest.approx(P.discard(size))

    def test_sender_never_charged_for_own_broadcast(self):
        """Audit of the claimed double-charge bug: in an all-in-range
        cluster the sender pays exactly bcast_send — no bcast_recv or
        discard ever lands on it."""
        cluster = [(0.0, 0.0), (10.0, 0.0), (0.0, 10.0), (10.0, 10.0)]
        net = make_static_network(cluster)
        size = 64.0
        receivers = net.broadcast(0, _packet(_home_request(), size, src=0))
        assert sorted(int(r) for r in receivers) == [1, 2, 3]
        assert 0 not in receivers
        assert net.energy.per_node()[0] == pytest.approx(P.bcast_send(size))
        by_cat = net.energy.total_by_category()
        assert by_cat["bcast_recv"] == pytest.approx(3 * P.bcast_recv(size))
        assert by_cat.get("discard", 0.0) == 0.0


class TestClassifyPacket:
    def test_geo_routed_request_is_gpsr_hop(self):
        env = GeoEnvelope(inner=_home_request(), dest_point=(300.0, 0.0))
        assert classify_packet(_packet(env)) == "gpsr.hop"

    def test_flooded_request_is_region_flood(self):
        inner = LocalRequest(request_id=1, requester=0,
                             requester_pos=(0.0, 0.0), key=2)
        env = FloodEnvelope(inner=inner, origin=0)
        assert classify_packet(_packet(env)) == "region.flood"

    def test_consistency_push_wins_over_envelope(self):
        push = UpdatePush(key=1, version=2, update_time=0.0, updater=0,
                          data_size=100.0)
        geo = GeoEnvelope(inner=push, dest_point=(1.0, 1.0))
        flood = FloodEnvelope(inner=push, origin=0)
        for packet in (_packet(push), _packet(geo), _packet(flood)):
            assert classify_packet(packet) == "consistency.push"
        inval = Invalidation(key=1, version=2, updater=0)
        assert classify_packet(_packet(inval)) == "consistency.push"

    def test_poll_traffic(self):
        poll = Poll(request_id=1, requester=0, requester_pos=(0.0, 0.0),
                    key=2, cached_version=1)
        reply = PollReply(request_id=1, key=2, current_version=2, ttr=10.0,
                          was_valid=False, data_size=50.0)
        assert classify_packet(_packet(poll)) == "consistency.poll"
        assert classify_packet(_packet(reply)) == "consistency.poll"

    def test_replica_failover(self):
        env = GeoEnvelope(inner=_home_request(to_replica=True),
                          dest_point=(1.0, 1.0))
        assert classify_packet(_packet(env)) == "failover.replica"
        # A plain (non-failover) home request in the same envelope is a hop.
        env2 = GeoEnvelope(inner=_home_request(), dest_point=(1.0, 1.0))
        assert classify_packet(_packet(env2)) == "gpsr.hop"

    def test_beacon_and_other(self):
        assert classify_packet(_packet(None, category="beacon")) == "gpsr.beacon"
        resp = DataResponse(request_id=1, key=2, version=1, responder=0,
                            responder_region_id=0, ttr=10.0, data_size=10.0)
        assert classify_packet(_packet(resp, category="response")) == "other"


class TestAttributorBookkeeping:
    def test_radio_charges_flow_through_observer(self):
        net = make_static_network(LINE)
        attributor = EnergyAttributor()
        net.energy.observer = attributor
        size = 100.0
        net.broadcast(1, _packet(_home_request(), size, src=1,
                                 category="request"))
        net.unicast(1, 0, _packet(_home_request(), size, src=1, dst=0,
                                  category="response"))
        assert attributor.total() == pytest.approx(net.energy.total(),
                                                   rel=1e-12)
        by_class = attributor._breakdown("energy.class.")
        assert by_class["bcast_send"] == pytest.approx(P.bcast_send(size))
        assert by_class["bcast_recv"] == pytest.approx(2 * P.bcast_recv(size))
        assert by_class["discard"] == pytest.approx(P.discard(size))
        by_component = attributor.by_component()
        assert set(by_component) == {"request", "response"}
        # The modeled (eq. 3-10) basis excludes promiscuous discard.
        modeled = attributor.by_component_modeled()
        assert modeled["response"] == pytest.approx(
            by_component["response"] - P.discard(size)
        )
        assert modeled["request"] == pytest.approx(by_component["request"])

    def test_zero_cost_charges_are_not_notified(self):
        ledger = EnergyLedger(3)
        attributor = EnergyAttributor()
        ledger.observer = attributor
        ledger.charge_bcast_recv(np.array([], dtype=int), 100.0)
        ledger.charge_discard(np.array([], dtype=int), 100.0)
        assert attributor.charges_seen == 0

    def test_reset_lockstep(self):
        ledger = EnergyLedger(2)
        attributor = EnergyAttributor()
        ledger.observer = attributor
        ledger.charge_p2p_send(0, 100.0)
        assert attributor.total() > 0.0
        ledger.reset()
        assert ledger.total() == 0.0
        assert attributor.total() == 0.0
        assert attributor.charges_seen == 0
        assert attributor.by_span() == {}

    def test_region_attribution_uses_sender_region(self):
        regions = {0: 0, 1: 0, 2: 3}
        attributor = EnergyAttributor(region_of=lambda n: regions[n])
        ledger = EnergyLedger(3)
        ledger.observer = attributor
        packet = _packet(_home_request(), 100.0, src=2)
        attributor.open(packet, sender=2)
        ledger.charge_p2p_send(2, 100.0)
        attributor.close()
        assert attributor.by_region() == {
            "3": pytest.approx(P.p2p_send(100.0))
        }

    def test_charges_outside_a_bracket_are_other_unattributed(self):
        ledger = EnergyLedger(2)
        attributor = EnergyAttributor()
        ledger.observer = attributor
        ledger.charge_p2p_send(0, 50.0)  # no open() bracket
        assert attributor.by_span() == {
            "other": pytest.approx(P.p2p_send(50.0))
        }
        assert attributor.by_phase() == {
            "unattributed": pytest.approx(P.p2p_send(50.0))
        }

    def test_charges_land_on_open_trace_phase(self):
        clock = [0.0]
        tracer = Tracer(lambda: clock[0])
        trace = tracer.begin(peer=0, key=3)
        tracer.bind(trace, request_id=7)
        tracer.phase(trace, "home")
        attributor = EnergyAttributor(tracer=tracer)
        ledger = EnergyLedger(3)
        ledger.observer = attributor
        env = GeoEnvelope(inner=_home_request(request_id=7),
                          dest_point=(1.0, 1.0))
        attributor.open(_packet(env, 100.0, src=0), sender=0)
        ledger.charge_p2p_send(0, 100.0)
        ledger.charge_p2p_recv(1, 100.0)
        attributor.close()
        expected = P.p2p_send(100.0) + P.p2p_recv(100.0)
        assert trace.open_phase.energy_uj == pytest.approx(expected)
        assert attributor.by_phase() == {"home": pytest.approx(expected)}
        assert attributor.by_span() == {"gpsr.hop": pytest.approx(expected)}
        # The exported span carries the joules.
        clock[0] = 1.0
        tracer.finish(trace, "home")
        spans = trace.to_dict()["spans"]
        home = [s for s in spans if s["name"] == "phase.home"]
        assert home and home[0]["energy_uj"] == pytest.approx(expected)


#: Dyadic coefficients and power-of-two sizes make every Feeney cost an
#: exactly-representable float, so the conservation law below is exact
#: equality, not approximate: numpy's pairwise ledger summation and the
#: attributor's sequential accumulation cannot disagree by rounding.
_DYADIC = EnergyParams(
    m_p2p_send=2.0, b_p2p_send=512.0,
    m_p2p_recv=0.5, b_p2p_recv=256.0,
    m_bcast_send=2.0, b_bcast_send=128.0,
    m_bcast_recv=0.5, b_bcast_recv=64.0,
    m_discard=0.5, b_discard=32.0,
)

_CHARGE = st.tuples(
    st.sampled_from(["p2p_send", "p2p_recv", "bcast_send", "bcast_recv",
                     "discard"]),
    st.integers(min_value=0, max_value=10),   # size = 2**k
    st.integers(min_value=0, max_value=7),    # node / receiver count
)


class TestSumIdentity:
    @given(st.lists(_CHARGE, max_size=60))
    def test_span_joules_sum_to_ledger_total(self, charges):
        ledger = EnergyLedger(8, _DYADIC)
        attributor = EnergyAttributor()
        ledger.observer = attributor
        for kind, size_exp, node in charges:
            size = float(2 ** size_exp)
            if kind == "p2p_send":
                ledger.charge_p2p_send(node, size)
            elif kind == "p2p_recv":
                ledger.charge_p2p_recv(node, size)
            elif kind == "bcast_send":
                ledger.charge_bcast_send(node, size)
            elif kind == "bcast_recv":
                ledger.charge_bcast_recv(np.arange(node), size)
            else:
                ledger.charge_discard(np.arange(node), size)
        assert sum(attributor.by_span().values()) == attributor.total()
        assert attributor.total() == ledger.total()
        assert sum(attributor.by_phase().values()) == attributor.total()
        assert sum(attributor.by_component().values()) == attributor.total()


class TestFullRunIntegration:
    def test_attributed_total_matches_ledger_on_real_run(self):
        from repro.core.network import PReCinCtNetwork
        from repro.obs.observers import Observers

        cfg = tiny_config(consistency="push-adaptive-pull", t_update=40.0)
        observers = Observers(tracing=True, energy_attribution=True)
        net = PReCinCtNetwork(cfg, observers=observers)
        net.run()
        attributor = observers.energy
        assert attributor.charges_seen > 0
        # Summation order differs (numpy pairwise vs sequential), so
        # agreement is to rounding noise, not exact.
        assert math.isclose(attributor.total(), net.network.energy.total(),
                            rel_tol=1e-9)
        assert math.isclose(sum(attributor.by_span().values()),
                            attributor.total(), rel_tol=1e-9)
        # The run exercises the scheme: both routed hops and floods
        # should carry energy.
        by_span = attributor.by_span()
        assert by_span.get("gpsr.hop", 0.0) > 0.0
        assert by_span.get("region.flood", 0.0) > 0.0
