"""Connectivity analysis of the radio topology.

Many MP2P pathologies (failed requests, unreachable home regions,
group-mobility islands) are just partitions in disguise.  These helpers
compute the unit-disk graph's connected components from the network's
current positions — the first thing to check when delivery drops.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from repro.net.network import WirelessNetwork

__all__ = ["ConnectivityReport", "analyze_connectivity", "components"]


def components(positions: np.ndarray, radius: float, alive=None) -> np.ndarray:
    """Connected-component labels of the unit-disk graph.

    Dead nodes get label -1.  BFS over the adjacency derived from
    pairwise distances — O(N^2) memory, fine for simulation-scale N.
    """
    positions = np.asarray(positions, dtype=float)
    n = positions.shape[0]
    if alive is None:
        alive = np.ones(n, dtype=bool)
    d = np.hypot(
        positions[:, 0][:, None] - positions[:, 0][None, :],
        positions[:, 1][:, None] - positions[:, 1][None, :],
    )
    adjacency = (d <= radius) & ~np.eye(n, dtype=bool)
    adjacency &= alive[:, None] & alive[None, :]
    labels = np.full(n, -1, dtype=int)
    current = 0
    for start in range(n):
        if labels[start] != -1 or not alive[start]:
            continue
        stack = [start]
        labels[start] = current
        while stack:
            u = stack.pop()
            for v in np.flatnonzero(adjacency[u]):
                if labels[v] == -1:
                    labels[v] = current
                    stack.append(int(v))
        current += 1
    return labels


@dataclass(frozen=True)
class ConnectivityReport:
    """Snapshot of the topology's connectedness."""

    n_alive: int
    n_components: int
    largest_fraction: float
    mean_degree: float

    @property
    def is_connected(self) -> bool:
        return self.n_components <= 1

    def __str__(self) -> str:
        return (
            f"{self.n_alive} alive, {self.n_components} component(s), "
            f"largest {100 * self.largest_fraction:.0f} %, "
            f"mean degree {self.mean_degree:.1f}"
        )


def analyze_connectivity(network: "WirelessNetwork") -> ConnectivityReport:
    """Connectivity of the network's *current* sampled topology."""
    positions = network.positions()
    alive = network.alive
    labels = components(positions, network.radio.range_m, alive)
    n_alive = int(alive.sum())
    live_labels = labels[labels >= 0]
    if live_labels.size == 0:
        return ConnectivityReport(0, 0, 0.0, 0.0)
    counts = np.bincount(live_labels)
    degrees = [
        len(network.neighbors_of(int(i))) for i in np.flatnonzero(alive)
    ]
    return ConnectivityReport(
        n_alive=n_alive,
        n_components=int(counts.size),
        largest_fraction=float(counts.max() / n_alive),
        mean_degree=float(np.mean(degrees)) if degrees else 0.0,
    )
