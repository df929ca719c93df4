"""Network stack: multiplexes GPSR and flooding over the single radio upcall.

The :class:`~repro.net.network.WirelessNetwork` delivers every received
packet to one handler.  :class:`NetworkStack` owns that handler and
dispatches on envelope type:

* :class:`GeoEnvelope` — if the GPSR router reports arrival, the inner
  payload goes up to the application handler; otherwise (unless the
  application intercepts it) the router forwards it.
* :class:`FloodEnvelope` — handed to the flooder; first reception at each
  in-scope node goes up to the application handler.
* anything else — a bare one-hop message, delivered directly.

The application layer (the peer protocol in :mod:`repro.core.peer`)
registers a single ``handler(node_id, inner_payload, packet)`` upcall.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.geom import Point
from repro.net.network import WirelessNetwork
from repro.net.packet import Packet
from repro.routing.envelopes import FloodEnvelope, GeoEnvelope
from repro.routing.flooding import Flooder
from repro.routing.gpsr import GpsrRouter

__all__ = ["NetworkStack"]

AppHandler = Callable[[int, Any, Packet], None]
DropHandler = Callable[[int, Packet], None]
InterceptHandler = Callable[[int, Any, Packet], bool]
AppBatchHandler = Callable[[Any, Any, Packet], bool]


def _ignore(node_id: int, inner: Any, packet: Packet) -> None:
    """The application upcall while none is registered."""


class NetworkStack:
    """Routing facade used by the peer protocol layer."""

    def __init__(self, network: WirelessNetwork):
        self.network = network
        self.sim = network.sim
        self.stats = network.stats
        self.flooder = Flooder(network)
        self.router = GpsrRouter(network, on_drop=self._on_route_drop)
        self._app_handler: AppHandler = _ignore
        self._drop_handler: Optional[DropHandler] = None
        self._intercept_handler: Optional[InterceptHandler] = None
        self._app_batch_handler: Optional[AppBatchHandler] = None
        network.set_receive_handler(self._on_receive)
        network.set_batch_receive_handler(self._on_receive_batch)

    # -- wiring ----------------------------------------------------------

    def set_app_handler(self, handler: AppHandler) -> None:
        self._app_handler = handler

    def set_app_batch_handler(self, handler: AppBatchHandler) -> None:
        """Register the whole-broadcast application upcall.

        Called as ``handler(receiver_ids, inner, packet)`` with every
        live receiver of one bare (non-enveloped) broadcast; returning
        True consumes the batch, False falls back to one
        :meth:`set_app_handler` upcall per receiver.  Lets the
        application absorb per-receiver-stateless traffic (HELLO
        beacons) in O(1) instead of O(receivers) — observable effects
        must be identical either way.
        """
        self._app_batch_handler = handler

    def set_drop_handler(self, handler: DropHandler) -> None:
        """Called when a geo-routed packet is dropped (routing failure)."""
        self._drop_handler = handler

    def set_intercept_handler(self, handler: InterceptHandler) -> None:
        """Give the application a chance to absorb a geo-routed packet at
        an intermediate hop.

        Enables the paper's en-route cache serving (§3.1): "If a peer
        along the path to the home region has the requested data item d,
        then it serves the request without forwarding it further."  The
        handler returns True to absorb (the packet is delivered locally
        and not forwarded), False to let routing continue.
        """
        self._intercept_handler = handler

    # -- sending ---------------------------------------------------------

    def geo_send(
        self,
        src: int,
        inner: Any,
        size_bytes: float,
        dest_point: Point,
        dest_node: Optional[int] = None,
        region: Optional[int] = None,
        max_hops: int = 128,
        category: str = "data",
    ) -> GeoEnvelope:
        """Geo-route ``inner`` from ``src`` towards a point/region/node."""
        envelope = GeoEnvelope(
            inner=inner,
            dest_point=dest_point,
            dest_node=dest_node,
            region=region,
            hops_remaining=max_hops,
        )
        self.router.send(src, envelope, size_bytes, category=category)
        return envelope

    def flood_send(
        self,
        src: int,
        inner: Any,
        size_bytes: float,
        region: Optional[int] = None,
        ttl: Optional[int] = None,
        record_path: bool = False,
        category: str = "data",
    ) -> FloodEnvelope:
        """Flood ``inner`` from ``src`` (regional, TTL-bounded, or global).

        Returns the envelope in flight (for a ``record_path`` flood, the
        origin's hop copy).
        """
        envelope = FloodEnvelope(
            inner=inner, origin=src, region=region, ttl=ttl, record_path=record_path
        )
        return self.flooder.flood(src, envelope, size_bytes, category=category).payload

    def direct_send(
        self, src: int, dst: int, inner: Any, size_bytes: float, category: str = "data"
    ) -> bool:
        """One-hop unicast of a bare payload (neighbors only)."""
        packet = Packet(
            payload=inner,
            size_bytes=size_bytes,
            src=src,
            dst=dst,
            created_at=self.sim.now,
            category=category,
        )
        return self.network.unicast(src, dst, packet)

    # -- receiving -------------------------------------------------------

    def _on_receive(self, node_id: int, packet: Packet) -> None:
        payload = packet.payload
        if isinstance(payload, GeoEnvelope):
            router = self.router
            if router.arrived(node_id, payload):
                payload.path.append(node_id)
                self._app_handler(node_id, payload.inner, packet)
            elif (
                self._intercept_handler is not None
                and self._intercept_handler(node_id, payload.inner, packet)
            ):
                self.stats.count("stack.intercepted")
                self._app_handler(node_id, payload.inner, packet)
            else:
                payload.path.append(node_id)
                router._forward(node_id, packet)
        elif isinstance(payload, FloodEnvelope):
            if self.flooder.handle(node_id, packet):
                # The envelope (with its reverse path) stays reachable via
                # packet.payload for baseline reverse-path responses.
                self._app_handler(node_id, payload.inner, packet)
        else:
            self._app_handler(node_id, payload, packet)

    def _on_receive_batch(self, receivers, packet: Packet) -> bool:
        """Whole-broadcast upcall from the radio.

        Geo envelopes carry per-receiver routing state and take the
        per-receiver path; floods dedup and scope the whole batch, bare
        payloads go to the application's batch handler if it has one.
        """
        payload = packet.payload
        if isinstance(payload, GeoEnvelope):
            return False
        if isinstance(payload, FloodEnvelope):
            self.flooder.handle_batch(receivers, packet, self._app_handler)
            return True
        if self._app_batch_handler is not None:
            return self._app_batch_handler(receivers, payload, packet)
        return False

    def _on_route_drop(self, node_id: int, packet: Packet) -> None:
        if self._drop_handler is not None:
            self._drop_handler(node_id, packet)
