"""Greedy Perimeter Stateless Routing (Karp & Kung, MobiCom 2000),
extended to route-to-region as described by the paper (§2.2, §6).

Forwarding rules
----------------
* **Greedy mode**: forward to the neighbor strictly closest to the
  destination point, if one is closer than the current node.
* **Perimeter mode** (entered at a local maximum): forward along faces of
  the Gabriel-graph planarization using the right-hand rule — the next
  edge is the one sequentially counterclockwise about the current node
  from the edge the packet arrived on.  The packet records the point
  ``Lp`` where it entered perimeter mode; any node strictly closer to the
  destination than ``Lp`` returns the packet to greedy mode.
* **Failure**: re-traversing the first perimeter edge means the
  destination is unreachable (disconnected component); the packet is
  dropped and the drop callback fires.  A hop budget backstops mobility
  races.

Simplification vs. full GPSR (recorded in DESIGN.md §7): the face-change
test on crossing the ``Lp``–destination line is folded into the
greedy-escape check; neighbor tables come from the ground-truth spatial
index (perfect beaconing).

Route-to-region: the envelope may carry a destination region id; the
first node *inside* that region (by the radio's region column) that
receives the packet is the arrival point (the paper's "point of
broadcast"), regardless of distance to the region center.
"""

from __future__ import annotations

import math
from typing import Callable, List, Optional, Sequence

from repro.geom import angle_of, distance
from repro.net.network import WirelessNetwork
from repro.net.packet import Packet
from repro.routing.envelopes import GREEDY, PERIMETER, GeoEnvelope

__all__ = ["GpsrRouter", "gabriel_planar"]

DropHandler = Callable[[int, Packet], None]

#: Memo-miss sentinel: a memoized perimeter decision may be None.
_MISS = object()


class GpsrRouter:
    """Stateless geographic router bound to a :class:`WirelessNetwork`.

    The router holds no per-destination state; all routing state lives in
    the packet's :class:`GeoEnvelope`, as in the real protocol.
    """

    def __init__(self, network: WirelessNetwork, on_drop: Optional[DropHandler] = None):
        self.network = network
        self.on_drop = on_drop
        self.stats = network.stats
        # Memos keyed on the network's topology generation (positions
        # are frozen within one): every node's position as a Python
        # complex, each node's neighbor positions as a list of them, the
        # planar neighbor set + its edge angles per node, and the
        # perimeter next hop per (node, arrival edge).  Contents are
        # bit-identical to a per-packet recompute.
        self._points: Optional[List[complex]] = None
        self._nbr_pos_cache: dict = {}
        self._angle_cache: dict = {}
        self._perimeter_cache: dict = {}
        self._cache_generation = -1
        # The "gpsr.hops" Counter, bumped in place from the first hop on
        # (when stats.count would create it); StatRegistry.reset zeroes
        # it in place, so the reference survives the warm-up reset.
        self._hops = None
        #: Optional ``callback(src, dst, packet)`` fired on every hop
        #: decision — the tracer's ``gpsr.hop`` span hook.
        self.on_hop = None

    # -- public API ------------------------------------------------------

    def send(
        self, src: int, envelope: GeoEnvelope, size_bytes: float, category: str = "data"
    ) -> Packet:
        """Inject a geo-routed packet at ``src`` and start forwarding.

        Returns the packet.  If ``src`` itself satisfies the arrival
        condition the packet is *not* self-delivered — callers decide
        local handling before invoking the router.
        """
        packet = Packet(
            payload=envelope,
            size_bytes=size_bytes,
            src=src,
            created_at=self.network.sim.now,
            category=category,
        )
        envelope.path.append(src)
        self._forward(src, packet)
        return packet

    def arrived(self, node_id: int, envelope: GeoEnvelope) -> bool:
        """Has the packet reached its routing destination at ``node_id``?"""
        if envelope.dest_node is not None:
            return node_id == envelope.dest_node
        region = envelope.region
        if region is not None:
            return self.network.region_column()[node_id] == region
        pos = self.network.position_of(node_id)
        return distance(pos, envelope.dest_point) <= envelope.arrival_radius

    # -- forwarding machinery ----------------------------------------------

    def _forward(self, node_id: int, packet: Packet) -> None:
        """Take the forwarding decision for ``packet`` at ``node_id``
        (whose path already ends at ``node_id``): transmit it one hop,
        or drop it."""
        envelope: GeoEnvelope = packet.payload
        if envelope.hops_remaining <= 0:
            self._drop(node_id, packet, "hop_budget")
            return
        envelope.hops_remaining -= 1

        neighbors, here, generation = self.network.neighborhood(node_id)
        if not neighbors:
            self._drop(node_id, packet, "isolated")
            return
        if generation != self._cache_generation:
            # The topology advanced: drop the per-generation memos.
            self._cache_generation = generation
            self._points = None
            self._nbr_pos_cache.clear()
            self._angle_cache.clear()
            self._perimeter_cache.clear()
        dest = envelope.dest_point

        if envelope.mode == PERIMETER:
            # Escape back to greedy as soon as we beat the entry point
            # (distance(here, dest), inline: the same math.hypot).
            here_to_dest = math.hypot(here[0] - dest[0], here[1] - dest[1])
            if here_to_dest < envelope.entry_distance:
                envelope.mode = GREEDY
                envelope.entry_point = None
                envelope.first_edge = None

        if envelope.mode == GREEDY:
            next_hop = self._greedy_next(node_id, here, dest, neighbors)
            if next_hop is not None:
                self._transmit(node_id, next_hop, packet, reset_prev=True)
                return
            # Local maximum: enter perimeter mode.
            envelope.mode = PERIMETER
            envelope.entry_point = here
            envelope.entry_distance = distance(here, dest)
            envelope.prev_node = None
            envelope.first_edge = None

        next_hop = self._perimeter_next(node_id, here, envelope, neighbors)
        if next_hop is None:
            self._drop(node_id, packet, "perimeter_dead_end")
            return
        edge = (node_id, next_hop)
        if envelope.first_edge is None:
            envelope.first_edge = edge
        elif edge == envelope.first_edge:
            # Completed a full face tour without escaping: unreachable.
            self._drop(node_id, packet, "unreachable")
            return
        self._transmit(node_id, next_hop, packet, reset_prev=False)

    def _greedy_next(
        self, node_id: int, here, dest, neighbors: List[int]
    ) -> Optional[int]:
        """Neighbor strictly closer to dest than we are, else None.

        Neighbor distances are ``abs`` of Python complex differences:
        CPython's complex ``abs`` and ``np.hypot`` both call the C
        library's ``hypot`` on the same two coordinate differences, so
        the distances (and the first minimum, hence ties) are the ones
        a numpy step computes — up to overflow, which a plane of finite
        size never reaches.  ``math.hypot`` rounds differently in the
        last bit on some inputs and must not stand in for either.  The
        distance from ``here`` stays :func:`repro.geom.distance`'s
        ``math.hypot``, inline.
        """
        nbr_points = self._nbr_pos_cache.get(node_id)
        if nbr_points is None:
            points = self._points
            if points is None:
                points = self._points = [
                    complex(x, y) for x, y in self.network.points()
                ]
            nbr_points = self._nbr_pos_cache[node_id] = [points[n] for n in neighbors]
        target = complex(dest[0], dest[1])
        dists = list(map(abs, [p - target for p in nbr_points]))
        best = min(dists)
        if best < math.hypot(here[0] - dest[0], here[1] - dest[1]):
            return neighbors[dists.index(best)]
        return None

    def _planar_with_angles(self, node_id: int, here, neighbors: List[int]):
        """Planar neighbor ids of ``node_id`` with their edge angles.

        Both are pure functions of the topology generation, so they are
        computed once per (generation, node) rather than once per
        perimeter-mode packet, on Python floats (:func:`gabriel_planar`).
        The angles come from :func:`repro.geom.angle_of` (CPython
        ``math.atan2``) — never a numpy reimplementation, whose libm
        could round differently and silently split the digests.
        """
        cached = self._angle_cache.get(node_id)
        if cached is not None:
            return cached
        position_of = self.network.position_of
        planar = gabriel_planar(here, neighbors, [position_of(nid) for nid in neighbors])
        angles = [angle_of(here, position_of(nid)) for nid in planar]
        result = self._angle_cache[node_id] = (planar, angles)
        return result

    def _perimeter_next(
        self, node_id: int, here, envelope: GeoEnvelope, neighbors: List[int]
    ) -> Optional[int]:
        """Right-hand-rule next hop on the planarized neighbor set.

        The answer is a pure function of the generation, the node and
        the reference direction, which is fixed by the arrival edge
        ``prev_node`` — or, on entry, by the angle towards the
        destination — so it is memoized per generation on that key.
        """
        prev = envelope.prev_node
        if prev is None:
            # Entering perimeter mode: the reference direction points at
            # the destination.  Keyed on that angle itself, in a 3-tuple
            # that never equals an arrival-edge key.
            ref = angle_of(here, envelope.dest_point)
            key = (node_id, None, ref)
        else:
            key = (node_id, prev)
        cached = self._perimeter_cache.get(key, _MISS)
        if cached is not _MISS:
            return cached
        planar_ids, angles = self._planar_with_angles(node_id, here, neighbors)
        if not planar_ids:
            self._perimeter_cache[key] = None
            return None
        # Reference direction: the edge we arrived on.  It is almost
        # always planar here too (the Gabriel test is symmetric), and
        # then its angle is already in the memo.
        if prev is not None:
            if prev in planar_ids:
                ref = angles[planar_ids.index(prev)]
            else:
                ref = angle_of(here, self.network.position_of(prev))
        best_id: Optional[int] = None
        best_angle = math.inf
        two_pi = 2.0 * math.pi
        for nid, theta in zip(planar_ids, angles):
            ccw = (theta - ref) % two_pi
            if ccw <= 1e-12:  # arrival edge itself: only as last resort
                ccw = two_pi
            if ccw < best_angle:
                best_angle = ccw
                best_id = nid
        self._perimeter_cache[key] = best_id
        return best_id

    def _transmit(self, src: int, dst: int, packet: Packet, reset_prev: bool) -> None:
        envelope: GeoEnvelope = packet.payload
        envelope.prev_node = None if reset_prev else src
        hop = packet.next_hop_copy(src=src, dst=dst)
        hops = self._hops
        if hops is None:
            hops = self._hops = self.stats.counter("gpsr.hops")
        hops.value += 1.0
        if self.on_hop is not None:
            self.on_hop(src, dst, packet)
        if not self.network.unicast(src, dst, hop):
            # Next hop died or moved away between decision and delivery.
            self._drop(src, packet, "link_failed")

    def _drop(self, node_id: int, packet: Packet, reason: str) -> None:
        self.stats.count("gpsr.dropped")
        self.stats.count(f"gpsr.dropped.{reason}")
        if self.on_drop is not None:
            self.on_drop(node_id, packet)


def gabriel_planar(here, ids: Sequence[int], points: Sequence) -> List[int]:
    """Gabriel-graph filter of one node's neighbors, on Python floats.

    Keeps ``ids[i]`` unless some other neighbor lies strictly inside the
    circle with diameter ``here``–``points[i]``; the first such witness
    ends the scan.  Each test is the float arithmetic of
    :func:`repro.routing.planarization.gabriel_neighbors` in the same
    order (midpoint ``(v + u) / 2``, squared radius ``|v - u|² / 4``
    shrunk by ``1 - 1e-12``), so both keep the same ids in the same
    order.
    """
    if len(ids) <= 1:
        return list(ids)
    ux, uy = here
    shrink = 1.0 - 1e-12
    kept = []
    for i, (vx, vy) in enumerate(points):
        mx = (vx + ux) / 2.0
        my = (vy + uy) / 2.0
        dx = vx - ux
        dy = vy - uy
        r2 = (dx * dx + dy * dy) / 4.0 * shrink
        for j, (wx, wy) in enumerate(points):
            if j != i:
                ex = wx - mx
                ey = wy - my
                if ex * ex + ey * ey < r2:
                    break
        else:
            kept.append(ids[i])
    return kept
