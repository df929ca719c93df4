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

import numpy as np

__all__ = ["GeographicHash"]

_MASK64 = (1 << 64) - 1


class GeographicHash:
    """Deterministic key -> plane-location hash shared by all peers."""

    def __init__(self, width: float, height: float, salt: int = 0):
        if width <= 0 or height <= 0:
            raise ValueError(f"plane dimensions must be positive, got {width}x{height}")
        self.width = float(width)
        self.height = float(height)
        self.salt = int(salt)

    def locations(self, n: int) -> np.ndarray:
        """The plane locations ``L = h(k)`` of keys ``0..n-1``, ``(n, 2)``.

        One SplitMix64 round over ``(k << 1) ^ salt`` in wrapping
        ``uint64`` arithmetic; the low 32 bits scale to x, the high 32
        bits to y.
        """
        u = np.uint64
        x = np.arange(n, dtype=u) << u(1)
        x ^= u(self.salt & _MASK64)
        x += u(0x9E3779B97F4A7C15)
        x = (x ^ (x >> u(30))) * u(0xBF58476D1CE4E5B9)
        x = (x ^ (x >> u(27))) * u(0x94D049BB133111EB)
        x ^= x >> u(31)
        out = np.empty((n, 2))
        out[:, 0] = self.width * (x & u(0xFFFFFFFF)).astype(float) / 2**32
        out[:, 1] = self.height * (x >> u(32)).astype(float) / 2**32
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"GeographicHash({self.width:g}x{self.height:g}, salt={self.salt})"
