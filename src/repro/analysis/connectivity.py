"""Connectivity analysis of the radio topology.

Many MP2P pathologies (failed requests, unreachable home regions,
group-mobility islands) are just partitions in disguise.  These helpers
compute the unit-disk graph's connected components from the network's
current positions — the first thing to check when delivery drops.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, List, Sequence, Tuple

import numpy as np

from repro.net.topology import SpatialGrid

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from repro.net.network import WirelessNetwork

__all__ = ["ConnectivityReport", "analyze_connectivity", "components"]


def _label(
    n: int, live: Sequence[int], neighbors_of: Callable[[int], List[int]]
) -> Tuple[np.ndarray, int]:
    """BFS component labels (-1 for dead nodes) and the live degree sum."""
    labels = [-1] * n
    degree_sum = 0
    current = 0
    for start in live:
        if labels[start] != -1:
            continue
        labels[start] = current
        stack = [start]
        while stack:
            nbrs = neighbors_of(stack.pop())
            degree_sum += len(nbrs)
            for v in nbrs:
                if labels[v] == -1:
                    labels[v] = current
                    stack.append(v)
        current += 1
    return np.array(labels, dtype=int), degree_sum


def components(positions: np.ndarray, radius: float, alive=None) -> np.ndarray:
    """Connected-component labels of the unit-disk graph.

    Dead nodes get label -1.  BFS over :class:`SpatialGrid` neighbor
    lists (the radio's squared-distance predicate), so memory is
    O(N x neighbors), not O(N^2).
    """
    positions = np.asarray(positions, dtype=float).reshape(-1, 2)
    n = positions.shape[0]
    alive = np.ones(n, dtype=bool) if alive is None else np.asarray(alive, dtype=bool)
    # Positions beyond the far edges are clamped into the boundary cells.
    width, height = positions.max(axis=0) if n else (radius, radius)
    grid = SpatialGrid(width, height, cell_size=radius)
    grid.rebuild(positions, alive)
    live = np.flatnonzero(alive).tolist()
    return _label(n, live, lambda i: grid.neighbors_of(i, radius))[0]


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
    live = np.flatnonzero(network.alive).tolist()
    if not live:
        return ConnectivityReport(0, 0, 0.0, 0.0)
    labels, degree_sum = _label(network.alive.size, live, network.neighbors_of)
    counts = np.bincount(labels[labels >= 0])
    return ConnectivityReport(
        n_alive=len(live),
        n_components=int(counts.size),
        largest_fraction=float(counts.max() / len(live)),
        mean_degree=degree_sum / len(live),
    )
