"""Planar geometry helpers shared by mobility, routing and regions.

Positions are 2-D points in metres, given as ``(x, y)`` tuples.
"""

from __future__ import annotations

import math
from typing import Tuple

Point = Tuple[float, float]

__all__ = [
    "Point",
    "distance",
    "angle_of",
    "normalize_angle",
]


def distance(a: Point, b: Point) -> float:
    """Euclidean distance between two points."""
    return math.hypot(a[0] - b[0], a[1] - b[1])


def angle_of(origin: Point, target: Point) -> float:
    """Angle of the vector origin->target in radians, in [0, 2*pi)."""
    return normalize_angle(math.atan2(target[1] - origin[1], target[0] - origin[0]))


def normalize_angle(theta: float) -> float:
    """Map an angle to [0, 2*pi)."""
    two_pi = 2.0 * math.pi
    theta = math.fmod(theta, two_pi)
    if theta < 0:
        theta += two_pi
    return theta
