"""Flooding: network-wide, region-scoped, and TTL-bounded.

Three uses in the reproduction:

* **network-wide flooding** — the baseline retrieval scheme of §5.2.1 and
  the invalidation transport of the Plain-Push consistency scheme;
* **localized (regional) flooding** — PReCinCt's in-region resolution:
  after a request reaches its home region, it is flooded only among
  nodes whose region id is the flood's ("Peers located outside the home
  region drop the request message without further processing");
* **TTL-bounded flooding** — the expanding-ring baseline (Lv et al.),
  which retries with growing TTLs until the data is found.

Duplicate suppression is per (node, flood): every node processes and
rebroadcasts a given flood exactly once, exactly as in the paper's cost
model where a flood is processed by every node once.  The "processed"
mask travels on the flood's envelopes, so it is released with the last
in-flight copy.
"""

from __future__ import annotations

from repro.net.network import WirelessNetwork
from repro.net.packet import Packet
from repro.routing.envelopes import FloodEnvelope

__all__ = ["Flooder"]


class Flooder:
    """Flooding engine bound to a :class:`WirelessNetwork`."""

    def __init__(self, network: WirelessNetwork):
        self.network = network
        self.stats = network.stats
        self._n_nodes = network.n_nodes

    def flood(
        self,
        origin: int,
        envelope: FloodEnvelope,
        size_bytes: float,
        category: str = "data",
    ) -> Packet:
        """Start a flood at ``origin``; returns the packet it broadcast.

        The origin itself counts as having processed the flood (it will
        not re-process an echo of its own packet).  A ``record_path``
        flood sends a copy of ``envelope`` whose path starts at the
        origin, so the returned packet's payload is the envelope in
        flight.
        """
        if envelope.record_path:
            envelope = envelope.hop_copy(via=origin, ttl=envelope.ttl)
        # Duplicate suppression: one byte per node ("processed this
        # flood"), shared by every hop copy.
        seen = envelope.seen = bytearray(self._n_nodes)
        seen[origin] = 1
        packet = Packet(
            payload=envelope,
            size_bytes=size_bytes,
            src=origin,
            created_at=self.network.sim.now,
            category=category,
        )
        self.stats.count("flood.initiated")
        self.network.broadcast(origin, packet)
        return packet

    def handle(self, node_id: int, packet: Packet) -> bool:
        """Process a flood packet at a receiving node.

        Returns True exactly once per (node, flood): the first reception,
        in which case the caller should deliver the inner payload to the
        application layer.  Rebroadcast happens here when scope and TTL
        allow.
        """
        envelope: FloodEnvelope = packet.payload
        seen = envelope.seen
        if seen[node_id]:
            self.stats.count("flood.duplicate")
            return False
        seen[node_id] = 1

        # Region scoping: out-of-region nodes drop without processing.
        region = envelope.region
        if region is not None and self.network.region_column()[node_id] != region:
            self.stats.count("flood.out_of_scope")
            return False

        # Rebroadcast if TTL allows.
        ttl = envelope.ttl
        if ttl is None or ttl > 0:
            self.stats.count("flood.rebroadcast")
            self.network.broadcast(node_id, self._hop_maker(packet)(node_id))
        return True

    def handle_batch(self, receivers, packet: Packet, deliver) -> None:
        """Process one broadcast's whole receiver batch in order.

        ``receivers`` must be free of intra-batch duplicates — the
        caller passes one broadcast's neighbor list, whose ids are
        unique by construction (duplicate *suppression* is about the
        same node hearing different broadcasts of the same flood).

        Effect-for-effect identical to calling :meth:`handle` per
        receiver (fresh receivers keep their batch order, so
        rebroadcasts draw RNG jitter and schedule events in the same
        sequence); the duplicate, out-of-scope and rebroadcast counters
        are bumped once per batch, which yields the same totals.
        ``deliver(node_id, inner, packet)`` is invoked for each
        first-time in-scope reception.
        """
        envelope: FloodEnvelope = packet.payload
        seen = envelope.seen
        fresh = []
        for node_id in receivers:
            if not seen[node_id]:
                seen[node_id] = 1
                fresh.append(node_id)
        duplicates = len(receivers) - len(fresh)
        region = envelope.region
        network = self.network
        out_of_scope = 0
        if region is not None and fresh:
            column = network.region_column()
            in_scope = [n for n in fresh if column[n] == region]
            out_of_scope = len(fresh) - len(in_scope)
            fresh = in_scope
        ttl = envelope.ttl
        inner = envelope.inner
        if fresh and (ttl is None or ttl > 0):
            next_hop = self._hop_maker(packet)
            broadcast = network.broadcast
            for node_id in fresh:
                broadcast(node_id, next_hop(node_id))
                deliver(node_id, inner, packet)
            self.stats.count("flood.rebroadcast", len(fresh))
        else:
            for node_id in fresh:
                deliver(node_id, inner, packet)
        if duplicates:
            self.stats.count("flood.duplicate", duplicates)
        if out_of_scope:
            self.stats.count("flood.out_of_scope", out_of_scope)

    @staticmethod
    def _hop_maker(packet: Packet):
        """``node_id -> Packet``: the copy of a flood packet that
        ``node_id`` rebroadcasts."""
        envelope: FloodEnvelope = packet.payload
        ttl = envelope.ttl
        if ttl is None and not envelope.record_path:
            # hop_copy would change nothing: every hop shares the envelope.
            return packet.next_hop_copy
        next_ttl = None if ttl is None else ttl - 1

        def hop(node_id: int) -> Packet:
            copy = packet.next_hop_copy(node_id)
            copy.payload = envelope.hop_copy(via=node_id, ttl=next_ttl)
            return copy

        return hop
