"""Shard routing: the paper's geographic hash as a service key-router.

The simulation maps keys to *home regions* with
:class:`~repro.core.geohash.GeographicHash` over a
:class:`~repro.core.regions.RegionTable` grid (§2.2).  The service
reuses the identical mapping — the plane is notional (no radios, no
mobility), but the hash gives a deterministic, uniform, *locality
aware* partition of the keyspace over N shards, and keeps the GD-LD
policy's region-distance term meaningful: a key hashed far from its
serving shard's center carries a higher re-fetch cost, exactly the
paper's reg_dst heuristic.

:class:`ShardDirectory` implements :class:`repro.ports.PeerDirectory`.
"""

from __future__ import annotations

import math
from typing import List

from repro.core.geohash import GeographicHash
from repro.core.regions import RegionTable

__all__ = ["ShardDirectory"]

#: Nominal plane side used for the hash; the value is arbitrary (any
#: agreed square works — only *relative* distances matter to GD-LD)
#: and matches the paper's 1200 m evaluation plane for familiarity.
PLANE_SIDE = 1200.0


class ShardDirectory:
    """Deterministic key -> shard (home/replica region) mapping.

    Parameters
    ----------
    n_shards:
        Number of region shards; the plane is grid-tiled exactly as
        the simulation tiles it (most-square rows x cols factoring).
    n_items:
        Number of keys (``0..n_items-1``); every key is placed once,
        at construction.
    salt:
        Hash salt (the service's seed) so deployments can re-balance
        by re-salting, mirroring ``GeographicHash(salt=seed)``.
    """

    def __init__(self, n_shards: int, n_items: int, salt: int = 0):
        if n_shards <= 0:
            raise ValueError(f"n_shards must be positive, got {n_shards}")
        self.n_shards = int(n_shards)
        self.table = RegionTable.grid(PLANE_SIDE, PLANE_SIDE, self.n_shards)
        self.geohash = GeographicHash(PLANE_SIDE, PLANE_SIDE, salt=salt)
        locations = self.geohash.locations(n_items)
        homes, replicas = self.table.home_and_replica(locations)
        #: Per key, indexed by key: home, replica, hashed location.
        self.homes: List[int] = homes.tolist()
        self._replicas: List[int] = replicas.tolist()
        self._locations: List[List[float]] = locations.tolist()
        self._centers = {r: self.table.get(r).center for r in self.region_ids()}

    # -- PeerDirectory protocol ---------------------------------------------

    def home_region(self, key: int) -> int:
        return self.homes[key]

    def replica_region(self, key: int) -> int:
        return self._replicas[key]

    def region_ids(self) -> List[int]:
        return self.table.region_ids()

    def key_distance(self, key: int, region_id: int) -> float:
        """Distance from the key's hashed location to a region center.

        This is the GD-LD reg_dst term the service books on admitted
        entries: how far the authoritative location of the key lies
        from the shard serving it.
        """
        x, y = self._locations[key]
        cx, cy = self._centers[region_id]
        return math.hypot(x - cx, y - cy)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ShardDirectory(n_shards={self.n_shards})"
