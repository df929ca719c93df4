"""Unit tests for the spatial neighbor index (repro.net.topology)."""

import numpy as np
import pytest

from repro.net import SpatialGrid


def brute_force_within(positions, point, radius, alive=None):
    positions = np.asarray(positions, dtype=float)
    d = np.hypot(positions[:, 0] - point[0], positions[:, 1] - point[1])
    mask = d <= radius
    if alive is not None:
        mask &= alive
    return set(np.flatnonzero(mask))


class TestSpatialGrid:
    def test_matches_brute_force_random(self):
        rng = np.random.default_rng(0)
        positions = rng.uniform(0, 1000, (200, 2))
        grid = SpatialGrid(1000, 1000, cell_size=250)
        grid.rebuild(positions)
        for _ in range(50):
            point = tuple(rng.uniform(0, 1000, 2))
            got = set(grid.within_range(point, 250).tolist())
            want = brute_force_within(positions, point, 250)
            assert got == want

    def test_neighbors_exclude_self(self):
        positions = np.array([[0.0, 0.0], [10.0, 0.0], [500.0, 500.0]])
        grid = SpatialGrid(1000, 1000, cell_size=250)
        grid.rebuild(positions)
        n0 = set(grid.neighbors_of(0, 250))
        assert n0 == {1}

    def test_dead_nodes_excluded(self):
        positions = np.array([[0.0, 0.0], [10.0, 0.0], [20.0, 0.0]])
        alive = np.array([True, False, True])
        grid = SpatialGrid(1000, 1000, cell_size=250)
        grid.rebuild(positions, alive)
        assert set(grid.neighbors_of(0, 250)) == {2}

    def test_neighbors_requeried_at_a_smaller_radius(self):
        # The per-generation memo is keyed on the radius too: a second,
        # smaller radius must not be answered with the first one's set.
        rng = np.random.default_rng(2)
        positions = rng.uniform(0, 400, (80, 2))
        grid = SpatialGrid(400, 400, cell_size=100)
        grid.rebuild(positions)
        for radius in (100.0, 40.0, 100.0):
            for node in range(80):
                want = brute_force_within(positions, positions[node], radius)
                assert set(grid.neighbors_of(node, radius)) == want - {node}

    def test_radius_inclusive(self):
        positions = np.array([[0.0, 0.0], [250.0, 0.0]])
        grid = SpatialGrid(1000, 1000, cell_size=250)
        grid.rebuild(positions)
        assert set(grid.neighbors_of(0, 250)) == {1}

    def test_radius_larger_than_cell_rejected(self):
        grid = SpatialGrid(1000, 1000, cell_size=100)
        grid.rebuild(np.zeros((1, 2)))
        with pytest.raises(ValueError):
            grid.within_range((0, 0), 150)

    def test_positions_outside_plane_clamped_into_index(self):
        # Mobility float error can place a node at exactly width/height.
        positions = np.array([[1000.0, 1000.0], [999.0, 999.0]])
        grid = SpatialGrid(1000, 1000, cell_size=250)
        grid.rebuild(positions)
        assert set(grid.neighbors_of(0, 250)) == {1}

    def test_query_before_rebuild_raises(self):
        grid = SpatialGrid(100, 100, cell_size=50)
        with pytest.raises(RuntimeError):
            grid.within_range((0, 0), 50)
        with pytest.raises(RuntimeError):
            grid.neighbors_of(0, 50)

    def test_empty_population(self):
        grid = SpatialGrid(100, 100, cell_size=50)
        grid.rebuild(np.empty((0, 2)))
        assert grid.within_range((50, 50), 50).size == 0

    def test_all_dead(self):
        grid = SpatialGrid(100, 100, cell_size=50)
        grid.rebuild(np.zeros((3, 2)), np.zeros(3, dtype=bool))
        assert grid.within_range((0, 0), 50).size == 0

    def test_position_of(self):
        positions = np.array([[5.0, 7.0]])
        grid = SpatialGrid(100, 100, cell_size=50)
        grid.rebuild(positions)
        assert grid.position_of(0) == (5.0, 7.0)

    def test_invalid_cell_size(self):
        with pytest.raises(ValueError):
            SpatialGrid(100, 100, cell_size=0)

    def test_rebuild_replaces_old_state(self):
        grid = SpatialGrid(1000, 1000, cell_size=250)
        grid.rebuild(np.array([[0.0, 0.0], [10.0, 0.0]]))
        assert len(grid.neighbors_of(0, 250)) == 1
        grid.rebuild(np.array([[0.0, 0.0], [900.0, 900.0]]))
        assert len(grid.neighbors_of(0, 250)) == 0
