"""Tests for node churn (disconnection/rejoin; paper future work §7)."""

import pytest

from repro.config import SimulationConfig
from repro.core import network as network_module
from repro.core.network import PReCinCtNetwork
from tests.conftest import tiny_config


def run_churn(**overrides):
    defaults = dict(
        churn_uptime=60.0,
        churn_downtime=20.0,
        duration=250.0,
        warmup=50.0,
        seed=29,
    )
    defaults.update(overrides)
    net = PReCinCtNetwork(tiny_config(**defaults))
    report = net.run()
    return net, report


class TestChurn:
    def test_departures_and_rejoins_happen(self):
        net, report = run_churn()
        assert net.stats.value("churn.departures") > 5
        assert net.stats.value("churn.rejoins") > 5

    def test_network_survives_churn(self):
        net, report = run_churn()
        assert report.requests_served > 0
        assert report.delivery_ratio > 0.5

    def test_graceful_fraction_respected(self, monkeypatch):
        monkeypatch.setattr(network_module, "CHURN_CRASH_FRACTION", 0.0)
        net, _ = run_churn()
        assert net.stats.value("churn.graceful") == net.stats.value("churn.departures")

    def test_all_crashes_allowed(self, monkeypatch):
        monkeypatch.setattr(network_module, "CHURN_CRASH_FRACTION", 1.0)
        net, report = run_churn()
        assert net.stats.value("churn.graceful") == 0
        assert report.requests_served > 0

    def test_churn_generates_handoffs(self, monkeypatch):
        """Custody moves around under churn: graceful departures hand
        keys off, and crashed peers re-deliver them on rejoin."""
        monkeypatch.setattr(network_module, "CHURN_CRASH_FRACTION", 0.0)
        net, _ = run_churn(duration=300.0, seed=31)
        assert net.stats.value("peer.handoffs_received") > 0

    def test_custody_never_exceeds_initial(self):
        """Keys are moved or orphaned, never duplicated by churn."""
        net, _ = run_churn(seed=41)
        total = sum(len(p.static_keys) for p in net.peers)
        # Initial custody: one home + one replica copy per key.
        assert total <= 2 * len(net.db)

    def test_churn_disabled_by_default(self):
        net = PReCinCtNetwork(tiny_config())
        net.run()
        assert net.stats.value("churn.departures") == 0

    def test_crash_fraction_validation(self):
        # A constant of the churn model, not settable per run.
        assert network_module.CHURN_CRASH_FRACTION == 0.1
        with pytest.raises(TypeError):
            SimulationConfig(churn_crash_fraction=1.5)

    def test_dead_peer_does_not_serve(self):
        net, report = run_churn(seed=37)
        # Invariant: the run completed without dead peers transmitting
        # (the radio layer silently refuses); spot-check ledger sanity.
        assert net.network.energy.total() > 0
