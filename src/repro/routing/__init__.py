"""Multi-hop routing on top of the one-hop radio.

Implements the two retrieval substrates the paper evaluates:

* :mod:`repro.routing.gpsr` — Greedy Perimeter Stateless Routing (Karp &
  Kung, MobiCom 2000), extended per the paper to route *to regions*: a
  packet targets a region's center and is considered delivered at the
  first node found inside the region, by region id ("point of broadcast").
* :mod:`repro.routing.flooding` — network-wide flooding with duplicate
  suppression, scoped (regional) flooding, and TTL-bounded flooding for
  the expanding-ring baseline.

:class:`~repro.routing.stack.NetworkStack` multiplexes both over the
radio's single receive upcall and hands fully-routed payloads to the
application (peer protocol) layer.
"""

from repro.routing.envelopes import FloodEnvelope, GeoEnvelope
from repro.routing.flooding import Flooder
from repro.routing.gpsr import GpsrRouter
from repro.routing.planarization import gabriel_neighbors
from repro.routing.stack import NetworkStack

__all__ = [
    "FloodEnvelope",
    "Flooder",
    "GeoEnvelope",
    "GpsrRouter",
    "NetworkStack",
    "gabriel_neighbors",
]
