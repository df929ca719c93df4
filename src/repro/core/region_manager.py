"""Dynamic region management (the paper's future work, §7).

    "A dynamic region management scheme need[s] to be investigated to
    make PReCinCt adaptive to real network environments, therefor
    optimizing its performance."

This module implements that scheme on top of the §2.1 operations:

* a periodic census counts peers per region;
* an *underpopulated* region (fewer than ``min_peers`` members) is
  **merged** into the region whose center is nearest — small regions
  cannot sustain custody and suffer home-region failures;
* an *overpopulated* region (more than ``max_peers`` members) is
  **separated** along its longer axis — large regions make localized
  flooding expensive (the Fig. 9(b) effect);
* every table change is **disseminated** network-wide (the paper: "the
  peer needs to disseminate the update to all other peers in the whole
  network"), modeled as a global flood charged to the initiating peer;
* affected **keys are relocated**: after a change, each key must again
  have a custodian in its (possibly different) home region; transfers
  ride the normal :class:`KeyHandoff` machinery and are batched per
  (source, target) pair.

The manager is enabled with ``SimulationConfig(dynamic_regions=True)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Set, Tuple

import numpy as np

from repro.core.messages import CONTROL_BYTES

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from repro.core.network import PReCinCtNetwork

__all__ = ["DynamicRegionManager", "RegionTableUpdate"]


@dataclass
class RegionTableUpdate:
    """Network-wide notice that the region table changed (§2.1).

    Carries the new table version; the table content itself is shared
    state in the simulation, but the dissemination *cost* — one global
    flood sized by the table — is charged for real.
    """

    version: int
    n_regions: int
    initiator: int
    size_bytes: float = 0.0

    def __post_init__(self) -> None:
        if self.size_bytes == 0.0:
            # Center point + perimeter vertices per region (~40 B each).
            self.size_bytes = CONTROL_BYTES + 40.0 * self.n_regions


class DynamicRegionManager:
    """Adaptive Merge/Separate controller bound to a PReCinCtNetwork."""

    def __init__(
        self,
        host: "PReCinCtNetwork",
        check_interval: float = 60.0,
        min_peers: int = 2,
        max_peers: int = 24,
    ):
        if min_peers < 1:
            raise ValueError(f"min_peers must be >= 1, got {min_peers}")
        if max_peers <= min_peers:
            raise ValueError(
                f"need max_peers > min_peers, got {max_peers} <= {min_peers}"
            )
        if check_interval <= 0:
            raise ValueError(f"check_interval must be positive, got {check_interval}")
        self.host = host
        self.check_interval = float(check_interval)
        self.min_peers = min_peers
        self.max_peers = max_peers
        self.merges = 0
        self.separates = 0

    # -- census --------------------------------------------------------------

    def _census(self) -> Dict[int, int]:
        counts: Dict[int, int] = {rid: 0 for rid in self.host.table.region_ids()}
        for peer in self.host.peers:
            rid = peer.current_region_id
            if rid in counts and self.host.network.is_alive(peer.id):
                counts[rid] += 1
        return counts

    # -- the periodic pass ------------------------------------------------------

    def run_once(self) -> int:
        """One adaptation pass (census, adapt, disseminate, relocate):
        at most one merge or separate.  Returns the number applied."""
        return 1 if self._try_merge() or self._try_separate() else 0

    # -- merge / separate decisions ------------------------------------------------

    def _try_merge(self) -> bool:
        table = self.host.table
        if len(table) <= 1:
            return False
        counts = self._census()
        starving = [rid for rid, c in counts.items() if c < self.min_peers]
        if not starving:
            return False
        victim = min(starving, key=lambda rid: counts[rid])
        victim_center = table.get(victim).center
        # Merge into the nearest-center *adjacent* region (§2.1's Merge
        # joins neighboring regions); fall back to nearest-center if the
        # table has no adjacency (degenerate geometries).
        candidates = table.neighbors_of_region(victim)
        if not candidates:
            candidates = [r for r in table if r.region_id != victim]
        partner = min(
            candidates,
            key=lambda r: (r.center[0] - victim_center[0]) ** 2
            + (r.center[1] - victim_center[1]) ** 2,
        )
        merged = table.merge(victim, partner.region_id)
        self.merges += 1
        self.host.stats.count("regions.merged")
        self._after_change(merged.center)
        return True

    def _try_separate(self) -> bool:
        table = self.host.table
        counts = self._census()
        crowded = [rid for rid, c in counts.items() if c > self.max_peers]
        if not crowded:
            return False
        victim = max(crowded, key=lambda rid: counts[rid])
        region = table.get(victim)
        xs = [v[0] for v in region.vertices]
        ys = [v[1] for v in region.vertices]
        axis = "x" if (max(xs) - min(xs)) >= (max(ys) - min(ys)) else "y"
        first, _second = table.separate(victim, axis=axis)
        self.separates += 1
        self.host.stats.count("regions.separated")
        self._after_change(first.center)
        return True

    # -- dissemination and key relocation ----------------------------------------------

    def _after_change(self, near_point: Tuple[float, float]) -> None:
        host = self.host
        # Refresh every peer's region id against the new table (the
        # table geometry changed under their feet).
        positions = host.network.positions()
        ids = host.table.regions_of_points(positions)
        for peer in host.peers:
            rid = int(ids[peer.id])
            if rid >= 0:
                peer.current_region_id = rid
        host._region_of_peer = np.where(ids >= 0, ids, host._region_of_peer)
        self._disseminate(near_point)
        self._relocate_keys()

    def _disseminate(self, near_point: Tuple[float, float]) -> None:
        """Flood the table update network-wide from a peer near the
        changed region (§2.1 dissemination requirement)."""
        host = self.host
        candidates = host.network.nodes_near(near_point)
        if candidates.size == 0:
            alive = np.flatnonzero(host.network.alive)
            if alive.size == 0:
                return
            initiator = int(alive[0])
        else:
            initiator = int(candidates[0])
        msg = RegionTableUpdate(
            version=host.table.version,
            n_regions=len(host.table),
            initiator=initiator,
        )
        host.stack.flood_send(
            initiator, msg, msg.size_bytes, category="management"
        )

    def _relocate_keys(self) -> None:
        """Restore the invariant: every key has a custodian in its home
        region (and replica region when replication is on).

        Transfers are batched per (source peer, target peer) and sent as
        ordinary KeyHandoff messages so their cost is fully modeled.
        Copies stranded in regions that no longer want them are dropped.
        """
        host = self.host
        table = host.table
        # key -> peers currently holding it statically.
        holders: Dict[int, List[int]] = {}
        for peer in host.peers:
            for key in peer.static_keys:
                holders.setdefault(key, []).append(peer.id)

        batches: Dict[Tuple[int, int], List[int]] = {}
        for key, holder_ids in holders.items():
            home, replica = host.geohash.home_and_replica(key, table)
            desired: Set[int] = {home.region_id}
            if host.cfg.enable_replication and replica.region_id != home.region_id:
                desired.add(replica.region_id)
            holder_regions = {
                host.peers[h].current_region_id for h in holder_ids
            }
            missing = desired - holder_regions
            surplus = [
                h
                for h in holder_ids
                if host.peers[h].current_region_id not in desired
            ]
            for region_id in missing:
                target = host.pick_handoff_target(-1, region_id)
                if target is None:
                    host.stats.count("regions.relocation_unplaced")
                    continue
                # Prefer moving a surplus copy; otherwise replicate from
                # any holder (host-side copy, transfer still charged).
                if surplus:
                    source = surplus.pop()
                    host.peers[source].static_keys.discard(key)
                else:
                    source = holder_ids[0]
                batches.setdefault((source, target), []).append(key)
            # Surviving surplus copies are stale custody: drop them.
            for h in surplus:
                host.peers[h].static_keys.discard(key)
                host.stats.count("regions.custody_dropped")

        for (source, target), keys in batches.items():
            host.stats.count("regions.relocation_batches")
            host.send_custody(
                source, target, keys, host.peers[target].current_region_id,
                category="management",
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"DynamicRegionManager(min={self.min_peers}, max={self.max_peers}, "
            f"merges={self.merges}, separates={self.separates})"
        )
