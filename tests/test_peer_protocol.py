"""Protocol-level tests of the PReCinCt peer (repro.core.peer).

These drive a fully wired, stationary PReCinCtNetwork event by event —
no workload generator — and assert on individual protocol flows:
search phases, caching, admission control, validation polls, update
pushes, invalidations, handoffs and replica failover.
"""

import pytest

from repro.config import SimulationConfig
from repro.core.network import PReCinCtNetwork


def make_net(**overrides) -> PReCinCtNetwork:
    defaults = dict(
        n_nodes=60,
        n_items=60,
        max_speed=None,  # stationary: deterministic topology
        duration=10_000.0,
        warmup=1.0,
        seed=5,
        consistency="push-adaptive-pull",
        # Generous cache: the tiny 60-item database would otherwise make
        # 1 % of total size smaller than a single item.
        cache_fraction=0.2,
    )
    defaults.update(overrides)
    return PReCinCtNetwork(SimulationConfig(**defaults))


def custodian_of(net: PReCinCtNetwork, key: int):
    """A peer in the key's home region holding it statically."""
    home = net.key_regions[key][0]
    for peer in net.peers:
        if key in peer.static_keys and peer.current_region_id == home.region_id:
            return peer
    return None


def replica_custodian_of(net: PReCinCtNetwork, key: int):
    replica = net.key_regions[key][1]
    for peer in net.peers:
        if key in peer.static_keys and peer.current_region_id == replica.region_id:
            return peer
    return None


def pick_cross_region_case(net: PReCinCtNetwork):
    """(requester, key): requester outside the key's home region, key
    custodied, requester not holding it."""
    for key in range(len(net.db)):
        home = net.key_regions[key][0]
        if custodian_of(net, key) is None:
            continue
        for peer in net.peers:
            if (
                peer.current_region_id >= 0
                and peer.current_region_id != home.region_id
                and key not in peer.static_keys
            ):
                return peer, key
    raise AssertionError("no cross-region case found; adjust seed")


class TestCustodianPlacement:
    def test_every_key_has_home_custodian(self):
        net = make_net()
        missing = [k for k in range(len(net.db)) if custodian_of(net, k) is None]
        assert missing == []

    def test_replica_custodians_exist(self):
        net = make_net()
        missing = [
            k for k in range(len(net.db)) if replica_custodian_of(net, k) is None
        ]
        assert missing == []

    def test_replication_disabled_places_home_only(self):
        net = make_net(enable_replication=False)
        total_custody = sum(len(p.static_keys) for p in net.peers)
        assert total_custody == len(net.db)


class TestSearch:
    def test_local_static_serve_is_instant(self):
        net = make_net()
        peer = next(p for p in net.peers if p.static_keys)
        key = next(iter(peer.static_keys))
        peer.request(key)
        assert net.metrics.served_by_class["local-static"] == 1
        assert net.metrics.average_latency == 0.0

    def test_remote_fetch_serves_and_caches(self):
        net = make_net()
        requester, key = pick_cross_region_case(net)
        requester.request(key)
        net.sim.run(until=20.0)
        assert net.metrics.requests_served == 1
        assert net.metrics.average_latency > 0.0
        # Cross-region data is admitted to the dynamic cache (§3.2).
        assert key in requester.cache

    def test_second_request_hits_local_cache(self):
        net = make_net()
        requester, key = pick_cross_region_case(net)
        requester.request(key)
        net.sim.run(until=20.0)
        requester.request(key)  # TTR is fresh: serve locally
        net.sim.run(until=40.0)
        assert net.metrics.served_by_class["local-cache"] == 1

    def test_regional_member_serves_after_neighbor_cached(self):
        net = make_net()
        requester, key = pick_cross_region_case(net)
        requester.request(key)
        net.sim.run(until=20.0)
        # Another peer in the same region now requests: the cached copy
        # of `requester` answers the regional flood.
        others = [
            p
            for p in net.peers
            if p.current_region_id == requester.current_region_id
            and p is not requester
            and key not in p.static_keys
        ]
        assert others, "region should have more members"
        others[0].request(key)
        net.sim.run(until=40.0)
        assert net.metrics.served_by_class["regional"] >= 1

    def test_same_region_response_not_cached(self):
        """Admission control: regionally served data is not re-cached."""
        net = make_net()
        requester, key = pick_cross_region_case(net)
        requester.request(key)
        net.sim.run(until=20.0)
        others = [
            p
            for p in net.peers
            if p.current_region_id == requester.current_region_id
            and p is not requester
            and key not in p.static_keys
        ]
        other = others[0]
        other.request(key)
        net.sim.run(until=40.0)
        assert key not in other.cache

    def test_no_cache_mode_never_caches(self):
        net = make_net(enable_cache=False, consistency="none")
        requester, key = pick_cross_region_case(net)
        requester.request(key)
        net.sim.run(until=20.0)
        assert net.metrics.requests_served == 1
        assert key not in requester.cache
        assert len(requester.cache) == 0


class TestReplicaFailover:
    def test_request_served_by_replica_when_home_custodian_dies(self):
        net = make_net()
        requester, key = pick_cross_region_case(net)
        home_peer = custodian_of(net, key)
        # Kill every home-region copy of the key (cached or static).
        net.network.fail_node(home_peer.id)
        requester.request(key)
        net.sim.run(until=30.0)
        assert net.metrics.requests_served == 1
        served = net.metrics.served_by_class
        assert served["replica"] + served["regional"] + served["intercept"] >= 1

    def test_failure_without_replication_fails_request(self):
        net = make_net(enable_replication=False)
        requester, key = pick_cross_region_case(net)
        home_peer = custodian_of(net, key)
        net.network.fail_node(home_peer.id)
        requester.request(key)
        net.sim.run(until=60.0)
        assert net.metrics.requests_failed == 1


class TestUpdatesAndConsistency:
    def test_update_bumps_version_and_reaches_custodian_ttr(self):
        net = make_net(consistency="push-adaptive-pull")
        requester, key = pick_cross_region_case(net)
        item = net.db[key]
        ttr_before = item.ttr
        net.sim.run(until=100.0)  # advance the clock for a real interval
        requester.update(key)
        net.sim.run(until=130.0)
        assert item.version == 1
        # Home custodian applied eq. 2: TTR moved towards the interval.
        assert item.ttr != ttr_before

    def test_push_refreshes_cached_copies_in_home_region(self):
        net = make_net(consistency="push-adaptive-pull")
        requester, key = pick_cross_region_case(net)
        requester.request(key)
        net.sim.run(until=20.0)
        assert requester.cache.get(key).version == 0
        # Some third peer updates; the push floods home+replica regions.
        updater = next(
            p for p in net.peers if p is not requester and key not in p.static_keys
        )
        updater.update(key)
        net.sim.run(until=40.0)
        # The requester is NOT in the home region, so its copy may lag —
        # but the custodian's state (shared db) must be current.
        assert net.db.version_of(key) == 1

    def test_plain_push_invalidation_evicts_remote_caches(self):
        net = make_net(consistency="plain-push")
        requester, key = pick_cross_region_case(net)
        requester.request(key)
        net.sim.run(until=20.0)
        assert key in requester.cache
        updater = next(
            p for p in net.peers if p is not requester and key not in p.static_keys
        )
        updater.update(key)
        net.sim.run(until=40.0)
        assert key not in requester.cache  # invalidation flood evicted it

    def test_pull_every_time_validates_own_cache_hit(self):
        net = make_net(consistency="pull-every-time")
        requester, key = pick_cross_region_case(net)
        requester.request(key)
        net.sim.run(until=20.0)
        before = net.stats.value("net.sent.consistency")
        requester.request(key)  # cached: must poll the home region
        net.sim.run(until=40.0)
        assert net.stats.value("net.sent.consistency") > before
        assert net.metrics.validated_serves >= 1

    def test_pwap_serves_fresh_copy_without_poll(self):
        net = make_net(consistency="push-adaptive-pull", default_ttr=1e6)
        requester, key = pick_cross_region_case(net)
        requester.request(key)
        net.sim.run(until=20.0)
        before = net.stats.value("net.sent.consistency")
        requester.request(key)
        net.sim.run(until=40.0)
        assert net.stats.value("net.sent.consistency") == before  # no poll
        assert net.metrics.served_by_class["local-cache"] == 1

    def test_pwap_polls_after_ttr_expiry(self):
        net = make_net(consistency="push-adaptive-pull", default_ttr=5.0)
        requester, key = pick_cross_region_case(net)
        requester.request(key)
        net.sim.run(until=20.0)
        before = net.stats.value("net.sent.consistency")
        requester.request(key)  # 20 s later: TTR (5 s) expired -> poll
        net.sim.run(until=40.0)
        assert net.stats.value("net.sent.consistency") > before


class TestHandoff:
    def test_region_change_hands_keys_to_stayer(self):
        net = make_net()
        mover = next(p for p in net.peers if p.static_keys)
        keys = set(mover.static_keys)
        old_region = mover.current_region_id
        new_region = (old_region + 1) % len(net.table)
        mover.on_region_change(new_region)
        net.sim.run(until=20.0)
        assert mover.static_keys == set()
        assert mover.current_region_id == new_region
        # Every key regains a custodian in the old region (replica
        # custodians elsewhere also hold copies; that's fine).
        for key in keys:
            assert any(
                key in peer.static_keys and peer.current_region_id == old_region
                for peer in net.peers
                if peer is not mover
            ), f"key {key} lost its home custodian"

    def test_region_change_resets_popularity(self):
        net = make_net()
        peer = net.peers[0]
        peer.observed_access[3] = 17
        peer.on_region_change((peer.current_region_id + 1) % len(net.table))
        assert peer.observed_access == {}

    def test_orphaned_keys_counted_when_region_empties(self):
        net = make_net()
        mover = next(p for p in net.peers if p.static_keys)
        # Kill every other peer in the mover's region.
        for peer in net.peers:
            if peer is not mover and peer.current_region_id == mover.current_region_id:
                net.network.fail_node(peer.id)
        mover.on_region_change((mover.current_region_id + 1) % len(net.table))
        assert net.stats.value("peer.keys_orphaned") > 0
