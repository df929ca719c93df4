"""Unit tests for the fault-injection subsystem (repro.faults)."""

import json

import pytest

from repro.config import SimulationConfig
from repro.core.network import PReCinCtNetwork
from repro.faults.injectors import DUP_SPACING_S, MessageFaultInjector
from repro.faults.plan import FaultPlan, FaultSpec
from repro.net.packet import Packet
from repro.sim import RngRegistry, StatRegistry

from tests.conftest import make_static_network, tiny_config

LINE = [(0.0, 0.0), (200.0, 0.0), (400.0, 0.0)]


def collect(net):
    received = []
    net.set_receive_handler(lambda node, pkt: received.append((node, net.sim.now)))
    return received


def install(net, *specs, partitions=(), region_of=None):
    injector = MessageFaultInjector(
        specs,
        RngRegistry(seed=99),
        net.sim,
        net.stats,
        partitions=partitions,
        region_of=region_of,
    )
    net.set_fault_filter(injector)
    return injector


# ---------------------------------------------------------------------------
# plan parsing and validation
# ---------------------------------------------------------------------------

class TestPlanParsing:
    def test_parse_compact_expressions(self):
        plan = FaultPlan.parse([
            "drop:p=0.1,start=100,end=400,category=request",
            "delay:delay=0.05,p=0.5",
            "duplicate:copies=2",
            "reorder:window=0.02",
            "crash:at=200,nodes=3+7+9",
            "recover:at=300,region=2",
            "partition:start=100,end=200,regions=0+1",
        ])
        assert len(plan) == 7
        drop = plan.specs[0]
        assert drop.kind == "drop"
        assert drop.probability == 0.1
        assert (drop.start, drop.end) == (100.0, 400.0)
        assert drop.category == "request"
        assert plan.specs[1].delay_s == 0.05
        assert plan.specs[2].copies == 2
        assert plan.specs[4].nodes == (3, 7, 9)
        assert plan.specs[5].region == 2
        assert plan.specs[6].regions == (0, 1)
        assert plan.message_rules == plan.specs[:4]
        assert plan.node_events == plan.specs[4:6]
        assert plan.partitions == plan.specs[6:]

    def test_json_round_trip(self):
        plan = FaultPlan.parse(["drop:p=0.2,end=50", "crash:at=10,nodes=1"])
        assert FaultPlan.from_json(plan.to_json()) == plan
        assert FaultPlan.from_dict(json.loads(plan.to_json())) == plan

    def test_plan_is_hashable_and_picklable(self):
        import pickle

        plan = FaultPlan.parse(["drop:p=0.2", "partition:regions=0"])
        assert hash(plan) == hash(pickle.loads(pickle.dumps(plan)))

    @pytest.mark.parametrize("expr", [
        "explode:p=1",                 # unknown kind
        "drop:p=2.0",                  # probability out of range
        "drop:start=50,end=10",        # empty window
        "delay:p=0.5",                 # delay without delay_s
        "duplicate:copies=0",          # no copies
        "crash:nodes=1",               # crash without at
        "crash:at=10",                 # crash without targets
        "partition:start=0",           # partition without regions
        "drop:bogus=1",                # unknown parameter
        "drop:p",                      # malformed parameter
        "crash:at=nan,nodes=1",        # NaN event time
        "crash:at=-5,nodes=1",         # negative event time
        "drop:start=nan",              # NaN window start
        "partition:start=inf,regions=0",  # window never opens
    ])
    def test_invalid_specs_rejected(self, expr):
        with pytest.raises(ValueError):
            FaultPlan.parse([expr])

    def test_window_matching(self):
        spec = FaultSpec("drop", start=10.0, end=20.0, category="request", src=1)
        assert spec.matches(15.0, src=1, dst=2, category="request")
        assert not spec.matches(5.0, src=1, dst=2, category="request")
        assert not spec.matches(20.0, src=1, dst=2, category="request")
        assert not spec.matches(15.0, src=1, dst=2, category="response")
        assert not spec.matches(15.0, src=3, dst=2, category="request")

    def test_config_rejects_non_plan(self):
        with pytest.raises(ValueError):
            SimulationConfig(fault_plan="drop:p=1")  # type: ignore[arg-type]


# ---------------------------------------------------------------------------
# message injectors at the radio layer
# ---------------------------------------------------------------------------

class TestMessageFaults:
    def test_deterministic_drop_is_silent(self):
        net = make_static_network(LINE)
        received = collect(net)
        install(net, FaultSpec("drop"))
        # Silent loss: the sender sees success, nothing is delivered.
        ok = net.unicast(0, 1, Packet(payload="m", size_bytes=50, src=0, dst=1))
        assert ok
        net.sim.run()
        assert received == []
        assert net.stats.value("net.unicast_dropped") == 1
        assert net.stats.value("net.unicast_dropped.injected") == 1
        assert net.stats.value("faults.injected_drop") == 1

    def test_duplicate_delivers_extra_copies(self):
        net = make_static_network(LINE)
        received = collect(net)
        install(net, FaultSpec("duplicate", copies=2))
        net.unicast(0, 1, Packet(payload="m", size_bytes=50, src=0, dst=1))
        net.sim.run()
        assert len(received) == 3
        assert net.stats.value("faults.duplicated") == 2

    def test_delay_shifts_delivery_deterministically(self):
        plain = make_static_network(LINE)
        base_times = collect(plain)
        plain.unicast(0, 1, Packet(payload="m", size_bytes=50, src=0, dst=1))
        plain.sim.run()

        delayed = make_static_network(LINE)
        times = collect(delayed)
        install(delayed, FaultSpec("delay", delay_s=0.5))
        delayed.unicast(0, 1, Packet(payload="m", size_bytes=50, src=0, dst=1))
        delayed.sim.run()
        assert times[0][1] == pytest.approx(base_times[0][1] + 0.5)

    def test_reorder_permutes_arrival_order(self):
        net = make_static_network(LINE)
        order = []
        net.set_receive_handler(lambda node, pkt: order.append(pkt.payload))
        install(net, FaultSpec("reorder", delay_s=5.0, probability=0.5))
        for i in range(30):
            net.unicast(0, 1, Packet(payload=i, size_bytes=50, src=0, dst=1))
        net.sim.run()
        assert len(order) == 30
        assert order != sorted(order)  # some pair arrived out of order
        assert net.stats.value("faults.reordered") > 0

    def test_category_and_window_filters(self):
        net = make_static_network(LINE)
        received = collect(net)
        install(net, FaultSpec("drop", start=10.0, end=20.0, category="request"))
        # Wrong category inside the window: untouched.
        net.sim.schedule(15.0, net.unicast, 0, 1,
                         Packet(payload="a", size_bytes=50, src=0, dst=1,
                                category="response"))
        # Right category outside the window: untouched.
        net.sim.schedule(25.0, net.unicast, 0, 1,
                         Packet(payload="b", size_bytes=50, src=0, dst=1,
                                category="request"))
        # Right category inside the window: dropped.
        net.sim.schedule(15.0, net.unicast, 0, 1,
                         Packet(payload="c", size_bytes=50, src=0, dst=1,
                                category="request"))
        net.sim.run()
        assert len(received) == 2
        assert net.stats.value("faults.injected_drop") == 1

    def test_broadcast_drop_is_per_receiver(self):
        net = make_static_network([(0.0, 0.0), (100.0, 0.0), (100.0, 100.0)])
        received = collect(net)
        install(net, FaultSpec("drop", dst=1))
        net.broadcast(0, Packet(payload="x", size_bytes=10, src=0))
        net.sim.run()
        assert [n for n, _ in received] == [2]
        assert net.stats.value("net.broadcast_dropped.injected") == 1

    def test_same_seed_same_fault_decisions(self):
        outcomes = []
        for _ in range(2):
            net = make_static_network(LINE)
            received = collect(net)
            install(net, FaultSpec("drop", probability=0.5))
            for i in range(40):
                net.unicast(0, 1, Packet(payload=i, size_bytes=50, src=0, dst=1))
            net.sim.run()
            outcomes.append([p for _, p in received])
        assert outcomes[0] == outcomes[1]

    def test_partition_blocks_cross_group_traffic(self):
        net = make_static_network(LINE)
        payloads = []
        net.set_receive_handler(lambda node, pkt: payloads.append(pkt.payload))
        regions = {0: 0, 1: 0, 2: 1}
        install(
            net,
            partitions=(FaultSpec("partition", regions=(1,)),),
            region_of=lambda n: regions[n],
        )
        # Same side of the partition: delivered.
        net.unicast(0, 1, Packet(payload="inside", size_bytes=50, src=0, dst=1))
        # Exactly one endpoint in the partitioned group: blocked.
        net.unicast(1, 2, Packet(payload="across", size_bytes=50, src=1, dst=2))
        net.sim.run()
        assert payloads == ["inside"]
        assert net.stats.value("faults.partition_blocked") == 1

    def test_partition_window_heals(self):
        net = make_static_network(LINE)
        payloads = []
        net.set_receive_handler(lambda node, pkt: payloads.append(pkt.payload))
        regions = {0: 0, 1: 0, 2: 1}
        install(
            net,
            partitions=(FaultSpec("partition", start=10.0, end=20.0, regions=(1,)),),
            region_of=lambda n: regions[n],
        )
        for at, payload in [(5.0, "before"), (15.0, "during"), (25.0, "after")]:
            net.sim.schedule(at, net.unicast, 1, 2,
                             Packet(payload=payload, size_bytes=50, src=1, dst=2))
        net.sim.run()
        assert payloads == ["before", "after"]


# ---------------------------------------------------------------------------
# drop accounting (distinct net.* keys)
# ---------------------------------------------------------------------------

class TestDropAccounting:
    def test_dead_destination_key(self):
        net = make_static_network(LINE)
        net.fail_node(1)
        ok = net.unicast(0, 1, Packet(payload="m", size_bytes=50, src=0, dst=1))
        assert not ok
        assert net.stats.value("net.unicast_dropped") == 1
        assert net.stats.value("net.unicast_dropped.dead") == 1
        assert net.stats.value("net.unicast_dropped.out_of_range") == 0
        assert net.stats.value("net.unicast_dropped.injected") == 0

    def test_out_of_range_key(self):
        net = make_static_network(LINE)
        ok = net.unicast(0, 2, Packet(payload="m", size_bytes=50, src=0, dst=2))
        assert not ok
        assert net.stats.value("net.unicast_dropped") == 1
        assert net.stats.value("net.unicast_dropped.out_of_range") == 1
        assert net.stats.value("net.unicast_dropped.dead") == 0

    def test_aggregate_sums_all_causes(self):
        net = make_static_network(LINE)
        install(net, FaultSpec("drop", dst=1))
        net.unicast(0, 1, Packet(payload="a", size_bytes=50, src=0, dst=1))
        net.unicast(0, 2, Packet(payload="b", size_bytes=50, src=0, dst=2))
        net.fail_node(1)
        net.unicast(0, 1, Packet(payload="c", size_bytes=50, src=0, dst=1))
        assert net.stats.value("net.unicast_dropped") == 3
        assert net.stats.value("net.unicast_dropped.injected") == 1
        assert net.stats.value("net.unicast_dropped.out_of_range") == 1
        assert net.stats.value("net.unicast_dropped.dead") == 1


# ---------------------------------------------------------------------------
# scheduled node faults and partitions in a full simulation
# ---------------------------------------------------------------------------

class TestNodeFaults:
    def test_crash_and_recover_schedule(self):
        plan = FaultPlan((
            FaultSpec("crash", at=40.0, nodes=(2, 5)),
            FaultSpec("recover", at=80.0, nodes=(2, 5)),
        ))
        cfg = tiny_config(fault_plan=plan, enable_event_log=True)
        net = PReCinCtNetwork(cfg)
        net.sim.run(until=60.0)
        assert not net.network.is_alive(2)
        assert not net.network.is_alive(5)
        net.sim.run(until=100.0)
        assert net.network.is_alive(2)
        assert net.network.is_alive(5)
        assert net.stats.value("faults.crashes") == 2
        assert net.stats.value("faults.recoveries") == 2
        kinds = net.log.counts()
        assert kinds.get("fault.crash") == 2
        assert kinds.get("fault.recover") == 2

    def test_region_targeted_crash(self):
        cfg = tiny_config(max_speed=None)  # stationary: membership is fixed
        probe = PReCinCtNetwork(cfg)
        region_id = next(
            int(r) for r in probe._region_of_peer if r >= 0
        )
        members = probe._peers_in_region(region_id)
        assert members
        plan = FaultPlan((FaultSpec("crash", at=10.0, region=region_id),))
        net = PReCinCtNetwork(tiny_config(max_speed=None, fault_plan=plan))
        net.sim.run(until=20.0)
        for node in members:
            assert not net.network.is_alive(node)
        assert net.stats.value("faults.crashes") == len(members)

    def test_boundary_invariant_check_runs(self):
        plan = FaultPlan((FaultSpec("crash", at=5.0, nodes=(0,)),))
        net = PReCinCtNetwork(tiny_config(fault_plan=plan))
        net.faults.check_invariants = True
        net.sim.run(until=10.0)  # would raise InvariantViolation on breakage
        assert net.stats.value("faults.crashes") == 1

    def test_full_run_with_faults_completes(self):
        plan = FaultPlan.parse([
            "drop:p=0.1,start=30,end=90",
            "crash:at=50,nodes=1",
            "recover:at=90,nodes=1",
            "partition:start=60,end=100,regions=0",
        ])
        net = PReCinCtNetwork(tiny_config(fault_plan=plan))
        report = net.run()
        assert report.requests_issued > 0
        from repro.core.invariants import check_all

        check_all(net)
