"""Unit tests for planar geometry helpers (repro.geom)."""

import math

import pytest

from repro.geom import angle_of, distance, normalize_angle


class TestDistances:
    def test_distance_3_4_5(self):
        assert distance((0, 0), (3, 4)) == 5.0


class TestAngles:
    def test_angle_of_cardinal_directions(self):
        assert angle_of((0, 0), (1, 0)) == pytest.approx(0.0)
        assert angle_of((0, 0), (0, 1)) == pytest.approx(math.pi / 2)
        assert angle_of((0, 0), (-1, 0)) == pytest.approx(math.pi)
        assert angle_of((0, 0), (0, -1)) == pytest.approx(3 * math.pi / 2)

    def test_normalize_angle_range(self):
        for theta in [-7.0, -math.pi, 0.0, math.pi, 9.42, 100.0]:
            n = normalize_angle(theta)
            assert 0.0 <= n < 2 * math.pi
            # Same direction modulo 2*pi.
            assert math.isclose(math.cos(n), math.cos(theta), abs_tol=1e-9)
            assert math.isclose(math.sin(n), math.sin(theta), abs_tol=1e-9)
