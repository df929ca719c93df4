"""Tests for connectivity analysis (repro.analysis.connectivity)."""

import numpy as np
import pytest

from repro.analysis.connectivity import (
    ConnectivityReport,
    analyze_connectivity,
    components,
)
from repro.core import network as network_module
from repro.core.network import PReCinCtNetwork
from tests.conftest import make_static_network, tiny_config


class TestComponents:
    def test_single_chain(self):
        positions = np.array([[i * 200.0, 0.0] for i in range(5)])
        labels = components(positions, radius=250.0)
        assert len(set(labels)) == 1

    def test_two_islands(self):
        positions = np.array([[0.0, 0.0], [100.0, 0.0], [900.0, 0.0], [1000.0, 0.0]])
        labels = components(positions, radius=250.0)
        assert labels[0] == labels[1]
        assert labels[2] == labels[3]
        assert labels[0] != labels[2]

    def test_dead_nodes_break_bridges(self):
        positions = np.array([[0.0, 0.0], [200.0, 0.0], [400.0, 0.0]])
        alive = np.array([True, False, True])
        labels = components(positions, radius=250.0, alive=alive)
        assert labels[1] == -1
        assert labels[0] != labels[2]

    def test_matches_routing_properties_helper(self):
        from tests.test_routing_properties import unit_disk_components

        rng = np.random.default_rng(9)
        positions = rng.uniform(0, 900, (40, 2))
        ours = components(positions, radius=250.0)
        reference = unit_disk_components(positions)
        # Same partition (labels may be permuted).
        for i in range(40):
            for j in range(40):
                assert (ours[i] == ours[j]) == (reference[i] == reference[j])


class TestAnalyze:
    def test_connected_chain_report(self):
        net = make_static_network(
            [[i * 200.0, 0.0] for i in range(4)], width=1000.0, height=100.0
        )
        report = analyze_connectivity(net)
        assert report.is_connected
        assert report.n_alive == 4
        assert report.largest_fraction == 1.0
        assert report.mean_degree > 0

    def test_partition_detected(self):
        net = make_static_network(
            [[0.0, 0.0], [100.0, 0.0], [2000.0, 0.0]],
            width=2500.0,
            height=100.0,
        )
        report = analyze_connectivity(net)
        assert report.n_components == 2
        assert not report.is_connected
        assert report.largest_fraction == pytest.approx(2 / 3)

    def test_str_rendering(self):
        report = ConnectivityReport(10, 2, 0.8, 4.5)
        text = str(report)
        assert "2 component" in text and "80 %" in text

    def test_group_mobility_partitions_more(self, monkeypatch):
        """The diagnosis behind the group-mobility delivery drop."""
        monkeypatch.setattr(network_module, "GROUP_COUNT", 3)
        monkeypatch.setattr(network_module, "GROUP_RADIUS", 80.0)
        rw = PReCinCtNetwork(tiny_config(max_speed=8.0, seed=61))
        grouped = PReCinCtNetwork(
            tiny_config(
                max_speed=8.0,
                mobility_model="group",
                seed=61,
            )
        )
        def mean_components(net):
            samples = []
            for t in (50.0, 150.0, 250.0, 350.0, 450.0):
                net.sim.run(until=t)
                samples.append(analyze_connectivity(net.network).n_components)
            return sum(samples) / len(samples)

        assert mean_components(grouped) >= mean_components(rw)
