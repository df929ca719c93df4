"""Tests for the invariant checker — and, through it, deep end-to-end
state validation of whole simulations."""

import pytest

from repro.core.cache import CachedCopy
from repro.core.invariants import (
    InvariantViolation,
    attach_periodic_checker,
    check_all,
    check_cache_accounting,
    check_custody,
    check_version_monotonicity,
)
from repro.core.network import PReCinCtNetwork
from tests.conftest import tiny_config


class TestInvariantsHoldInRealRuns:
    def test_plain_mobile_run(self):
        net = PReCinCtNetwork(tiny_config(seed=3))
        net.run()
        check_all(net)

    def test_consistency_run(self):
        net = PReCinCtNetwork(
            tiny_config(consistency="push-adaptive-pull", t_update=40.0, seed=5)
        )
        net.run()
        check_all(net)

    def test_churn_run(self):
        net = PReCinCtNetwork(
            tiny_config(churn_uptime=80.0, churn_downtime=30.0, seed=7)
        )
        net.run()
        check_all(net)

    def test_dynamic_regions_run(self):
        net = PReCinCtNetwork(
            tiny_config(
                dynamic_regions=True,
                region_min_peers=2,
                region_max_peers=8,
                region_manage_interval=40.0,
                seed=9,
            )
        )
        net.run()
        check_all(net)

    def test_periodic_checker_runs_clean(self):
        net = PReCinCtNetwork(tiny_config(duration=120.0, warmup=20.0, seed=11))
        attach_periodic_checker(net, interval=15.0)
        net.run()  # raises on any violation


class TestViolationsDetected:
    def test_cache_accounting_violation(self):
        net = PReCinCtNetwork(tiny_config())
        net.peers[0].cache.used_bytes += 1000.0  # corrupt the books
        with pytest.raises(InvariantViolation):
            check_cache_accounting(net)

    def test_priority_lowered_behind_the_cache_is_caught(self):
        """The victim heap is exact only while every entry has a record
        at or below its priority; an edit that assigns ``priority``
        without going through ``PeerCache.hit`` shows up here, by peer
        and key, rather than as a wrong victim."""
        net = PReCinCtNetwork(tiny_config())
        cache = net.peers[2].cache
        for key in (4, 5):
            cache.insert(CachedCopy(key=key, size_bytes=10.0, version=0), now=0.0)
        check_cache_accounting(net)
        cache.get(5).priority += 1.0  # a raise is repaired lazily: legal
        check_cache_accounting(net)
        cache.get(5).priority -= 2.0
        with pytest.raises(InvariantViolation, match=r"peer 2: key 5 "):
            check_cache_accounting(net)

    def test_index_over_its_size_bound_is_caught(self):
        net = PReCinCtNetwork(tiny_config())
        cache = net.peers[1].cache
        cache.insert(CachedCopy(key=4, size_bytes=10.0, version=0), now=0.0)
        cache._heap.extend([cache._heap[0]] * 40)
        with pytest.raises(InvariantViolation, match=r"peer 1: victim index"):
            check_cache_accounting(net)

    def test_custody_violation(self):
        net = PReCinCtNetwork(tiny_config())
        # Give one key to four peers: exceeds replication degree + slack.
        for peer in net.peers[:4]:
            peer.static_keys.add(0)
        with pytest.raises(InvariantViolation):
            check_custody(net)

    def test_version_violation(self):
        net = PReCinCtNetwork(tiny_config())
        net.peers[0].cache.insert(
            CachedCopy(key=1, size_bytes=10.0, version=99), now=0.0
        )
        with pytest.raises(InvariantViolation):
            check_version_monotonicity(net)
