"""Closed-form energy analysis (paper §5, eqs. 3-13).

Implements the paper's analytical model for the energy consumed per
request under

* the **flooding** retrieval scheme (eq. 11): every node in the network
  processes the broadcast once, then the response returns over a chain
  of point-to-point hops, and
* the **PReCinCt** scheme (eqs. 12-13): the request travels ``I``
  point-to-point hops to the home region, is flooded only among the
  ``n = N / R`` nodes of that region, and the response returns over
  ``I`` point-to-point hops.

The hop-count estimate ``I`` (number of *intermediate* nodes between
requester and responder) defaults to the mean distance between two
uniform random points in the square divided by the radio range — the
standard geometric estimate; both schemes share it, so the comparison
shape is insensitive to its exact constant.

Used by the Fig. 9 validation benches, which overlay these curves on the
simulated measurements.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.energy import EnergyParams

__all__ = ["TheoreticalModel"]

#: E[distance] between two uniform points in a unit square (the exact
#: constant is (2 + sqrt(2) + 5*asinh(1)) / 15).
_MEAN_UNIT_SQUARE_DISTANCE = (2.0 + math.sqrt(2.0) + 5.0 * math.asinh(1.0)) / 15.0


def _check_nodes(n_nodes: int) -> None:
    if n_nodes <= 0:
        raise ValueError(f"n_nodes must be positive, got {n_nodes}")


@dataclass(frozen=True)
class TheoreticalModel:
    """The paper's energy model for one request.

    Parameters
    ----------
    area_side:
        Side of the (square) service area in metres (Fig. 9: 600 m).
    range_m:
        Radio transmission range ``r`` (250 m).
    request_bytes / response_bytes:
        On-air sizes of the request and of the data response.
    params:
        Linear energy coefficients (Feeney defaults).
    """

    area_side: float = 600.0
    range_m: float = 250.0
    request_bytes: float = 64.0
    response_bytes: float = 64.0 + 5632.0  # header + mean item (1-10 KiB uniform)
    params: EnergyParams = EnergyParams()
    #: Expected fraction of the radio range a greedy-forwarding hop
    #: advances towards the destination.  The paper leaves ``I``
    #: unspecified; unit-range hops (factor 1.0) underestimate path
    #: lengths at moderate density, where greedy progress per hop is
    #: well known to average roughly 60-70 % of the range.
    hop_progress: float = 0.65

    def __post_init__(self):
        if self.area_side <= 0:
            raise ValueError(f"area_side must be positive, got {self.area_side}")

    # -- building blocks ----------------------------------------------------

    @property
    def area(self) -> float:
        """Service area A (eq. 6 context)."""
        return self.area_side * self.area_side

    def node_density(self, n_nodes: int) -> float:
        """delta = N / A (eq. 6)."""
        return n_nodes / self.area

    def nodes_in_radio_range(self, n_nodes: int) -> float:
        """zeta = delta * pi * r^2 (eq. 7), capped at N - 1.

        The cap models what the paper calls *edge effects*: a disk of
        radius r cannot contain more receivers than exist.
        """
        zeta = self.node_density(n_nodes) * math.pi * self.range_m**2
        return min(zeta, max(n_nodes - 1, 0))

    def broadcast_total(self, n_nodes: int, size: float) -> float:
        """E_total_bd = E_bd_sd + zeta * E_bd_rv (eq. 8)."""
        zeta = self.nodes_in_radio_range(n_nodes)
        return self.params.bcast_send(size) + zeta * self.params.bcast_recv(size)

    def p2p_hop(self, size: float) -> float:
        """Energy of one point-to-point hop: send + receive (eqs. 9-10)."""
        return self.params.p2p_send(size) + self.params.p2p_recv(size)

    def intermediate_nodes(self) -> float:
        """I — expected intermediate nodes on a requester-responder path.

        E[path length] divided by the expected per-hop progress gives
        the expected hop count; intermediates are one fewer than hops
        (floored at zero for single-hop paths).
        """
        mean_distance = _MEAN_UNIT_SQUARE_DISTANCE * self.area_side
        hops = mean_distance / (self.range_m * self.hop_progress)
        return max(hops - 1.0, 0.0)

    # -- per-request energies (eqs. 11, 13) -----------------------------------

    def flooding_energy(self, n_nodes: int) -> float:
        """E_Flooding = N * E_total_bd + I * (E_p2p_sd + E_p2p_rv) (eq. 11), uJ."""
        _check_nodes(n_nodes)
        i = self.intermediate_nodes()
        return n_nodes * self.broadcast_total(
            n_nodes, self.request_bytes
        ) + i * self.p2p_hop(self.response_bytes)

    def precinct_energy(self, n_nodes: int, n_regions: int) -> float:
        """E_PReCinCt (eq. 13), uJ.

        ``I`` p2p hops carry the request to the home region, ``n = N/R``
        nodes flood it inside the region, and ``I`` p2p hops carry the
        response back.
        """
        _check_nodes(n_nodes)
        if n_regions <= 0:
            raise ValueError(f"n_regions must be positive, got {n_regions}")
        i = self.intermediate_nodes()
        n_per_region = n_nodes / n_regions
        request_leg = i * self.p2p_hop(self.request_bytes)
        # Flooding within one region: n nodes each broadcast once; zeta
        # for the in-region flood is bounded by the region population.
        zeta_region = min(
            self.node_density(n_nodes) * math.pi * self.range_m**2,
            max(n_per_region - 1.0, 0.0),
        )
        region_broadcast = self.params.bcast_send(
            self.request_bytes
        ) + zeta_region * self.params.bcast_recv(self.request_bytes)
        flood_leg = n_per_region * region_broadcast
        response_leg = i * self.p2p_hop(self.response_bytes)
        return request_leg + flood_leg + response_leg

    # -- convenience ------------------------------------------------------------

    def flooding_energy_mj(self, n_nodes: int) -> float:
        """Eq. 11 in millijoules (the unit of Fig. 9's y-axis)."""
        return self.flooding_energy(n_nodes) / 1000.0

    def precinct_energy_mj(self, n_nodes: int, n_regions: int) -> float:
        """Eq. 13 in millijoules."""
        return self.precinct_energy(n_nodes, n_regions) / 1000.0
