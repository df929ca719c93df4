"""Geographic hash: key -> location (paper §2.2).

The paper's scheme hashes each key ``k_i`` to a location ``L_j`` in the
plane; the *home region* of the key is the region whose center is
closest to that location, and the *replica region* the second closest
(:meth:`repro.core.regions.RegionTable.home_and_replica`).  The hash
must be (i) deterministic and identical at every peer, and (ii) uniform
over the plane so keys spread evenly across regions.

We use a SplitMix64-style integer mixer — a small, dependency-free,
high-quality avalanche function — to derive two uniform coordinates from
the key.  Nothing about the scheme depends on the particular mixer; any
agreed-upon uniform hash works.
"""

from __future__ import annotations

from repro.geom import Point

__all__ = ["GeographicHash"]

_MASK64 = (1 << 64) - 1


def _splitmix64(x: int) -> int:
    """One round of the SplitMix64 mixer (public-domain constants)."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


class GeographicHash:
    """Deterministic key -> plane-location hash shared by all peers."""

    def __init__(self, width: float, height: float, salt: int = 0):
        if width <= 0 or height <= 0:
            raise ValueError(f"plane dimensions must be positive, got {width}x{height}")
        self.width = float(width)
        self.height = float(height)
        self.salt = int(salt)

    def location_of(self, key: int) -> Point:
        """The plane location ``L = h(k)`` for a key."""
        h = _splitmix64((key << 1) ^ self.salt)
        x_bits = h & 0xFFFFFFFF
        y_bits = (h >> 32) & 0xFFFFFFFF
        return (
            self.width * x_bits / 2**32,
            self.height * y_bits / 2**32,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"GeographicHash({self.width:g}x{self.height:g}, salt={self.salt})"
