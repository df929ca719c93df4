"""Test-side reference kernel: the scalar behaviour the vectorized kernel
replaced, rebuilt from seams production code keeps for other reasons.

No flag in ``src/`` selects any of this.  :func:`degrade` patches one
built :class:`~repro.core.network.PReCinCtNetwork` instance so that

* neighbor queries take the uncached 3x3 cell walk (the path dead nodes
  always take) instead of the per-generation memo,
* region membership comes from a column rebuilt on every read by one
  scalar scan per node over the table's live closed rectangles (lowest
  id wins a tie) instead of the radio's per-generation grid column,
* positions are read from the grid's numpy array instead of its
  per-generation list of float tuples,
* every broadcast schedules one delivery event per receiver (the path a
  fault filter always forces) instead of one batch event, so floods are
  handled per node and HELLO beacons are dispatched per receiver,
* MAC jitter is drawn one scalar ``rng.random()`` per hop instead of
  from the radio's block of pre-drawn values, and
* GPSR takes each greedy decision with numpy (a gather of the neighbor
  columns, ``np.hypot`` and ``argmin``) instead of on its memoized
  lists of Python complex positions, recomputes every perimeter
  decision instead of reading its per-generation memo, and planarizes
  each decision through the numpy filter
  :func:`repro.routing.planarization.gabriel_neighbors` instead of the
  router's scalar witness loop and its memo.

:func:`per_key_construction` builds networks the way construction worked
before it became one pass per table: one scalar SplitMix64 round in
Python integers per key for its hashed location (:func:`location_of`),
one stable ``np.argsort`` of the region centres per key for its home
and replica, and one membership scan plus one ``np.argsort`` walk per
(key, region) placement.
:func:`run_reference_scenario` builds under it.

The golden-digest suite requires a degraded run to fingerprint
byte-identically to the production kernel on every canonical scenario.
"""

from __future__ import annotations

from contextlib import contextmanager
from unittest import mock

import numpy as np

from repro.core.geohash import GeographicHash
from repro.core.network import PReCinCtNetwork
from repro.core.regions import RegionTable
from repro.faults.audit import SCENARIOS, RunDigest, eventlog_digest, report_digest
from repro.geom import Point, angle_of, distance
from repro.routing.planarization import gabriel_neighbors


def walk_neighbors(grid, node_id: int, radius: float):
    """``SpatialGrid.neighbors_of`` by the uncached cell walk."""
    ids = grid.within_range(grid.position_of(node_id), radius)
    return [nid for nid in ids.tolist() if nid != node_id]


def scalar_hop_delay(radio, src: int, size_bytes: float) -> float:
    """``WirelessNetwork._hop_delay`` with one Generator call per hop."""
    now = radio.sim.now
    start = max(now, radio._busy_until[src])
    jitter = radio.rng.random() * radio.radio.max_jitter_s
    end = start + radio.radio.tx_delay(size_bytes) + jitter
    radio._busy_until[src] = end
    return end - now


def array_position(grid, node_id: int):
    """``SpatialGrid.position_of`` read from the numpy position array."""
    p = grid._positions[node_id]
    return (float(p[0]), float(p[1]))


def numpy_planar_with_angles(grid, here, neighbors):
    """``GpsrRouter._planar_with_angles`` through the numpy Gabriel
    filter, recomputed on every call."""
    positions = grid._positions
    planar = gabriel_neighbors(
        np.asarray(here, dtype=float),
        positions[neighbors],
        np.asarray(neighbors, dtype=np.intp),
    )
    planar_ids = [int(nid) for nid in planar]
    angles = [
        angle_of(here, (positions[nid][0], positions[nid][1])) for nid in planar_ids
    ]
    return planar_ids, angles


def numpy_greedy_next(grid, here, dest, neighbors):
    """``GpsrRouter._greedy_next`` as one numpy step, recomputed on every
    call: the first neighbor at the least ``np.hypot`` distance, if it
    beats ``here``'s ``math.hypot`` distance."""
    positions = grid._positions
    dists = np.hypot(positions[neighbors, 0] - dest[0], positions[neighbors, 1] - dest[1])
    best = int(dists.argmin())
    if dists[best] < distance(here, dest):
        return neighbors[best]
    return None


def scalar_region_of(table, x: float, y: float) -> int:
    """The lowest live region id whose closed rectangle holds ``(x, y)``,
    or -1 (off the plane, NaN, or in a deleted cell)."""
    for region in table:
        (x0, y0), _, (x1, y1), _ = region.vertices
        if x0 <= x <= x1 and y0 <= y <= y1:
            return region.region_id
    return -1


def scalar_region_column(radio, table):
    """``WirelessNetwork.region_column`` by one scalar scan per node."""
    return [scalar_region_of(table, x, y) for x, y in radio.positions().tolist()]


def _pass_through(src, dst, packet):
    return None  # deliver normally


def degrade(net: PReCinCtNetwork) -> PReCinCtNetwork:
    """Strip every memo and batch from ``net`` (this instance only)."""
    radio = net.network
    grid = radio._grid
    grid.neighbors_of = lambda node_id, radius: walk_neighbors(grid, node_id, radius)
    grid.position_of = lambda node_id: array_position(grid, node_id)
    radio._region_column_key = None
    radio.region_column = lambda: scalar_region_column(radio, net.table)
    radio._hop_delay = lambda src, size_bytes: scalar_hop_delay(radio, src, size_bytes)
    if radio._fault_filter is None:
        radio.set_fault_filter(_pass_through)
    router = net.stack.router
    router._greedy_next = lambda node_id, here, dest, neighbors: (
        numpy_greedy_next(grid, here, dest, neighbors)
    )
    router._planar_with_angles = lambda node_id, here, neighbors: (
        numpy_planar_with_angles(grid, here, neighbors)
    )
    forward = router._forward

    def forward_unmemoized(node_id, packet):
        try:
            forward(node_id, packet)
        finally:
            router._perimeter_cache.clear()

    router._forward = forward_unmemoized
    return net


_MASK64 = (1 << 64) - 1


def location_of(h: GeographicHash, key: int) -> Point:
    """One key's ``GeographicHash.locations`` row, by one SplitMix64
    round in Python integers."""
    x = (((key << 1) ^ h.salt) + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    x ^= x >> 31
    return (h.width * (x & 0xFFFFFFFF) / 2**32, h.height * (x >> 32) / 2**32)


def scalar_locations(h: GeographicHash, n: int) -> np.ndarray:
    """``GeographicHash.locations`` by :func:`location_of`, key by key."""
    return np.array([location_of(h, key) for key in range(n)], dtype=float).reshape(n, 2)


def per_point_home_and_replica(table: RegionTable, locations):
    """``RegionTable.home_and_replica`` by one stable sort of the region
    centres' ``np.hypot`` distances per location: index 0 is the home,
    index 1 the replica (the home again with one region)."""
    ids = table.region_ids()
    centers = np.array([table.get(rid).center for rid in ids], dtype=float)
    homes, replicas = [], []
    for location in locations:
        diff = centers - np.asarray(location, dtype=float)
        order = np.argsort(np.hypot(diff[:, 0], diff[:, 1]), kind="stable")
        homes.append(ids[order[0]])
        replicas.append(ids[order[min(1, len(order) - 1)]])
    return np.array(homes, dtype=np.intp), np.array(replicas, dtype=np.intp)


def per_key_custodians(net: PReCinCtNetwork, locations) -> None:
    """``PReCinCtNetwork._assign_custodians`` with a fresh membership scan
    and an ``np.argsort`` walk for every (key, region) placement."""
    positions = net.network.positions()
    for key, (home, replica) in enumerate(net.key_regions):
        location = location_of(net.geohash, key)
        targets = [home.region_id]
        if net.cfg.enable_replication and replica.region_id != home.region_id:
            targets.append(replica.region_id)
        for region_id in targets:
            members = net._peers_in_region(region_id)
            placed = False
            if members:
                dists = [distance(tuple(positions[m]), location) for m in members]
                for member in [members[i] for i in np.argsort(dists)]:
                    if not net.peers[member].accept_static_keys([key]):
                        placed = True
                        break
            if not placed:
                net.stats.count("peer.keys_unplaced")
                net._orphaned_keys.setdefault(region_id, set()).add(key)


@contextmanager
def per_key_construction():
    """Networks built inside this block place keys one at a time."""
    with mock.patch.object(
        GeographicHash, "locations", scalar_locations
    ), mock.patch.object(
        RegionTable, "home_and_replica", per_point_home_and_replica
    ), mock.patch.object(PReCinCtNetwork, "_assign_custodians", per_key_custodians):
        yield


def run_reference_scenario(name: str, seed: int = 42) -> RunDigest:
    """``repro.faults.audit.run_scenario`` on the degraded kernel."""
    with per_key_construction():
        net = PReCinCtNetwork(SCENARIOS[name](seed))
    net = degrade(net)
    report = net.run()
    # A memo that filled means the oracle ran production paths.
    radio, router = net.network, net.stack.router
    assert not radio._grid._neighbor_cache and radio._grid._points is None
    assert radio._region_column_key is None
    assert not radio._jitters
    assert not router._angle_cache and not router._nbr_pos_cache
    assert not router._perimeter_cache and router._points is None
    return RunDigest(
        scenario=name,
        seed=seed,
        eventlog=eventlog_digest(net.log),
        report=report_digest(report),
    )
