"""Unit tests for GPSR planarization filters (repro.routing.planarization)."""

import numpy as np
import pytest

from repro.routing import gabriel_neighbors


def gg_brute(self_pos, neighbor_pos, neighbor_ids):
    """Reference Gabriel filter: O(K^2) loops."""
    keep = []
    for i, v in enumerate(neighbor_pos):
        mid = (self_pos + v) / 2.0
        r_sq = np.sum((v - self_pos) ** 2) / 4.0
        witnessed = False
        for j, w in enumerate(neighbor_pos):
            if j == i:
                continue
            if np.sum((w - mid) ** 2) < r_sq * (1 - 1e-12):
                witnessed = True
                break
        if not witnessed:
            keep.append(neighbor_ids[i])
    return set(keep)


class TestGabriel:
    def test_matches_brute_force(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            k = int(rng.integers(2, 12))
            self_pos = np.zeros(2)
            neighbor_pos = rng.uniform(-100, 100, (k, 2))
            ids = np.arange(k)
            got = set(gabriel_neighbors(self_pos, neighbor_pos, ids).tolist())
            want = gg_brute(self_pos, neighbor_pos, ids)
            assert got == want

    def test_single_neighbor_always_kept(self):
        ids = np.array([7])
        out = gabriel_neighbors(np.zeros(2), np.array([[10.0, 0.0]]), ids)
        assert out.tolist() == [7]

    def test_witness_removes_long_edge(self):
        # w sits at the midpoint of the u-v edge: edge (u, v) must go.
        self_pos = np.zeros(2)
        neighbor_pos = np.array([[100.0, 0.0], [50.0, 1.0]])
        ids = np.array([0, 1])
        kept = set(gabriel_neighbors(self_pos, neighbor_pos, ids).tolist())
        assert kept == {1}

    def test_perpendicular_neighbors_all_kept(self):
        self_pos = np.zeros(2)
        neighbor_pos = np.array([[10.0, 0.0], [0.0, 10.0], [-10.0, 0.0], [0.0, -10.0]])
        ids = np.arange(4)
        kept = set(gabriel_neighbors(self_pos, neighbor_pos, ids).tolist())
        assert kept == {0, 1, 2, 3}

