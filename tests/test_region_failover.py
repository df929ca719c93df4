"""Whole-region failover under a scheduled fault plan.

Satellite of the fault-injection PR: crash EVERY node of a key's home
region mid-run (via a region-targeted ``crash`` FaultSpec, not direct
``fail_node`` calls) and assert the protocol's replication story — the
paper's failover path — holds end to end:

* a cross-region request issued after the crash still resolves,
* it is served out of the replica region (after the home phase times
  out, the requester's replica phase reaches the replica custodian),
* the value carries the correct (current) version, including when the
  key was updated before the crash.

The topology is pinned (``n_nodes=100, seed=12``, stationary) so the
home-phase GPSR path towards the dead region does not graze the replica
region: the request must fail over through the *replica phase* proper,
not an en-route intercept.  Preconditions are asserted so a topology
generator change fails loudly here instead of silently weakening the
test.
"""

from __future__ import annotations

import pytest

from repro.config import SimulationConfig
from repro.core.network import PReCinCtNetwork
from repro.faults.plan import FaultPlan, FaultSpec

CRASH_AT = 5.0
#: Pinned case (see module docstring): requester 0 asks for key 4 whose
#: home region 5 is crashed wholesale.
N_NODES = 100
SEED = 12
REQUESTER = 0
KEY = 4
HOME_RID = 5


def make_cfg(**overrides) -> SimulationConfig:
    defaults = dict(
        n_nodes=N_NODES,
        n_items=60,
        max_speed=None,  # stationary: region membership is fixed
        duration=10_000.0,
        warmup=1.0,
        seed=SEED,
        consistency="push-adaptive-pull",
        cache_fraction=0.2,
        enable_event_log=True,
    )
    defaults.update(overrides)
    return SimulationConfig(**defaults)


def build_faulted(**overrides) -> PReCinCtNetwork:
    plan = FaultPlan((FaultSpec("crash", at=CRASH_AT, region=HOME_RID),))
    return PReCinCtNetwork(make_cfg(fault_plan=plan, **overrides))


def assert_case_preconditions(net: PReCinCtNetwork) -> int:
    """Validate the pinned topology; return the replica region id."""
    home = net.key_regions[KEY][0]
    replica = net.key_regions[KEY][1]
    requester = net.peers[REQUESTER]
    assert home.region_id == HOME_RID, "topology changed; re-pin the case"
    assert replica.region_id != HOME_RID
    assert any(
        KEY in p.static_keys and p.current_region_id == HOME_RID
        for p in net.peers
    ), "no home custodian for the pinned key"
    assert any(
        KEY in p.static_keys and p.current_region_id == replica.region_id
        for p in net.peers
    ), "no replica custodian for the pinned key"
    assert requester.current_region_id not in (HOME_RID, replica.region_id)
    assert KEY not in requester.static_keys
    return replica.region_id


def test_whole_home_region_crash_fails_over_to_replica():
    net = build_faulted()
    assert_case_preconditions(net)
    home_members = net._peers_in_region(HOME_RID)
    net.sim.run(until=CRASH_AT + 1.0)
    # The fault plan took the entire home region down.
    assert home_members
    assert all(not net.network.is_alive(n) for n in home_members)
    assert net.stats.value("faults.crashes") == len(home_members)

    requester = net.peers[REQUESTER]
    requester.request(KEY)
    net.sim.run(until=CRASH_AT + 40.0)

    assert net.metrics.requests_served == 1
    served = net.metrics.served_by_class
    assert served.get("replica", 0) == 1, f"served_by_class={dict(served)}"
    item = requester.cache.get(KEY)
    assert item is not None
    assert item.version == net.db.version_of(KEY)
    # The crash boundary is visible in the audited event log.
    assert net.log.counts().get("fault.crash") == len(home_members)
    served_events = net.log.of_kind("request.served")
    assert len(served_events) == 1
    assert served_events[0].fields["serve_class"] == "replica"


def test_failover_serves_current_version_after_update():
    net = build_faulted()
    replica_rid = assert_case_preconditions(net)
    # Some live third peer (outside the doomed region) updates the key
    # before the crash; the push replicates the new version to the
    # replica custodian, which must survive the home region's death.
    updater = next(
        p for p in net.peers
        if p.current_region_id >= 0
        and p.current_region_id not in (HOME_RID, replica_rid)
        and p.id != REQUESTER
    )
    net.sim.schedule_at(2.0, updater.update, KEY)
    net.sim.run(until=CRASH_AT + 1.0)
    assert net.db.version_of(KEY) == 1

    requester = net.peers[REQUESTER]
    requester.request(KEY)
    net.sim.run(until=CRASH_AT + 40.0)

    assert net.metrics.requests_served >= 1
    item = requester.cache.get(KEY)
    assert item is not None
    assert item.version == 1, "failover served a stale version"


def test_without_replication_whole_region_crash_fails_requests():
    net = build_faulted(enable_replication=False)
    home = net.key_regions[KEY][0]
    assert home.region_id == HOME_RID
    net.sim.run(until=CRASH_AT + 1.0)
    requester = net.peers[REQUESTER]
    assert requester.current_region_id != HOME_RID
    assert KEY not in requester.static_keys
    requester.request(KEY)
    net.sim.run(until=CRASH_AT + 90.0)
    assert net.metrics.requests_failed >= 1
    assert net.metrics.requests_served == 0
