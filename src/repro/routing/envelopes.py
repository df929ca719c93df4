"""Routing envelopes.

The radio carries opaque payloads; the routing layer wraps application
messages in envelopes that tell the :class:`~repro.routing.stack.NetworkStack`
how to move them:

* :class:`GeoEnvelope` — geographic routing towards a point (optionally a
  region, by id), via GPSR greedy/perimeter forwarding.
* :class:`FloodEnvelope` — broadcast flooding with duplicate suppression,
  optionally scoped to a region (by id) and/or TTL-bounded.

Envelopes are mutable per logical packet (the same object travels with
every hop copy); GPSR keeps its greedy/perimeter state here, mirroring
the packet-header state of the real protocol.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, List, Optional, Tuple

from repro.geom import Point

__all__ = ["GeoEnvelope", "FloodEnvelope", "GREEDY", "PERIMETER"]

GREEDY = "greedy"
PERIMETER = "perimeter"


@dataclass
class GeoEnvelope:
    """A payload being geo-routed towards ``dest_point``.

    Delivery condition (checked at each receiving node, in order):

    1. ``dest_node`` is set and this node is it;
    2. ``region`` is set and this node's region id is it — the
       paper's route-to-region arrival ("the first node inside the
       destination region ... identified as the point of broadcast");
    3. neither is set and this node is within ``arrival_radius`` of
       ``dest_point``.

    GPSR header state (mode, perimeter entry point, previous hop, first
    perimeter edge) lives here, as in the protocol's packet header.
    """

    inner: Any
    dest_point: Point
    dest_node: Optional[int] = None
    region: Optional[int] = None
    arrival_radius: float = 1.0
    # -- GPSR header state --
    mode: str = GREEDY
    entry_point: Optional[Point] = None  # Lp: where perimeter mode began
    entry_distance: float = 0.0  # |Lp - dest| at perimeter entry
    prev_node: Optional[int] = None
    first_edge: Optional[Tuple[int, int]] = None  # e0: loop detection
    hops_remaining: int = 128
    path: List[int] = field(default_factory=list)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"GeoEnvelope(dest={self.dest_point}, mode={self.mode}, "
            f"hops_remaining={self.hops_remaining})"
        )


@dataclass
class FloodEnvelope:
    """A payload being flooded.

    ``region`` limits rebroadcast to nodes whose region id it is (the
    paper's *localized flooding*: nodes outside the home region drop the
    request without further processing).  ``ttl`` limits rebroadcast
    depth for the expanding-ring baseline; ``None`` means unbounded
    (plain network-wide flooding).

    ``record_path`` makes every hop append the forwarding node id to a
    per-copy ``path`` list, letting baseline schemes send responses back
    along the reverse path.

    ``seen`` is the flood's duplicate-suppression mask (a
    ``bytearray(n_nodes)``, non-zero where "this node already processed
    the flood"), created by
    :meth:`~repro.routing.flooding.Flooder.flood` and shared by reference
    with every hop copy, so it lives exactly as long as some copy of the
    flood is in flight.
    """

    inner: Any
    origin: int
    region: Optional[int] = None
    ttl: Optional[int] = None
    record_path: bool = False
    path: Tuple[int, ...] = ()
    seen: Any = field(default=None, compare=False, repr=False)

    def hop_copy(self, via: int, ttl: Optional[int]) -> "FloodEnvelope":
        """Copy for rebroadcast by ``via`` with decremented TTL."""
        return FloodEnvelope(
            inner=self.inner,
            origin=self.origin,
            region=self.region,
            ttl=ttl,
            record_path=self.record_path,
            path=self.path + (via,) if self.record_path else (),
            seen=self.seen,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        scope = "regional" if self.region is not None else "global"
        return f"FloodEnvelope(origin={self.origin}, scope={scope}, ttl={self.ttl})"
