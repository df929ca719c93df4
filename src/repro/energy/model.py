"""Linear per-message energy model and per-node ledgers.

All energies are in microjoules (uJ) and message sizes in bytes, matching
the units of the WaveLAN measurements in Feeney & Nilsson (INFOCOM 2001),
which the paper cites as reference [6] for eq. (3):

    cost = m * size + b

The four traffic classes and their default coefficients:

========================  ======  ======
class                     m       b
========================  ======  ======
point-to-point send       1.9     454
point-to-point receive    0.5     356
broadcast send            1.9     266
broadcast receive         0.5     56
discard (overheard p2p)   0.5     24
========================  ======  ======

The *discard* class models promiscuous reception of point-to-point
traffic addressed to another node — cheaper than a full receive because
the MAC drops the frame early.  The paper's analysis only needs send and
receive costs (eqs. 4-10); discard accounting is kept because the energy
ledger reports it separately and ablations can zero it out.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

import numpy as np

__all__ = ["EnergyParams", "EnergyLedger"]


@dataclass(frozen=True)
class EnergyParams:
    """Coefficients of the linear energy model (uJ, sizes in bytes)."""

    m_p2p_send: float = 1.9
    b_p2p_send: float = 454.0
    m_p2p_recv: float = 0.5
    b_p2p_recv: float = 356.0
    m_bcast_send: float = 1.9
    b_bcast_send: float = 266.0
    m_bcast_recv: float = 0.5
    b_bcast_recv: float = 56.0
    m_discard: float = 0.5
    b_discard: float = 24.0
    #: Idle/listening power in milliwatts.  Real WaveLAN radios draw
    #: ~800-1100 mW just listening — often dominating total drain —
    #: but the paper's analysis (eqs. 3-13) models per-message costs
    #: only, so this defaults to 0 and is an opt-in extension.
    idle_mw: float = 0.0

    def p2p_send(self, size: float) -> float:
        """Energy to transmit a point-to-point message of ``size`` bytes (eq. 9)."""
        return self.m_p2p_send * size + self.b_p2p_send

    def p2p_recv(self, size: float) -> float:
        """Energy for the addressed node to receive a p2p message (eq. 10)."""
        return self.m_p2p_recv * size + self.b_p2p_recv

    def bcast_send(self, size: float) -> float:
        """Energy to transmit a broadcast message (eq. 4)."""
        return self.m_bcast_send * size + self.b_bcast_send

    def bcast_recv(self, size: float) -> float:
        """Energy for each in-range node to receive a broadcast (eq. 5)."""
        return self.m_bcast_recv * size + self.b_bcast_recv

    def discard(self, size: float) -> float:
        """Energy for a non-addressed node to overhear and drop a p2p message."""
        return self.m_discard * size + self.b_discard

    def idle(self, seconds: float) -> float:
        """Idle/listening energy for ``seconds`` of radio-on time (uJ)."""
        return self.idle_mw * 1000.0 * seconds


class EnergyLedger:
    """Per-node energy accounting.

    Maintains one ``list[float]`` per traffic category so experiments
    can report both total consumption and its breakdown.  The radio
    charges one node (or one neighbor list) per transmission, so the
    ledgers are plain Python lists updated element by element; readers
    reduce them through ``np.asarray(...)``, whose pairwise summation is
    the one the report digests were pinned with.  The per-receiver
    methods take any sequence of node ids; a repeated id is charged once
    per occurrence.

    An optional :attr:`observer` (duck-typed; see
    :class:`repro.energy.attribution.EnergyAttributor`) is notified of
    every debit with ``on_charge(category, cost_uj)`` and of
    :meth:`reset` with ``on_reset()``.  The observer sees aggregate
    costs only — it cannot perturb the per-node ledgers — so attribution
    stays a pure read of the same charges the ledger books.
    """

    CATEGORIES = ("p2p_send", "p2p_recv", "bcast_send", "bcast_recv", "discard")

    def __init__(self, n_nodes: int, params: EnergyParams = EnergyParams()):
        if n_nodes <= 0:
            raise ValueError(f"n_nodes must be positive, got {n_nodes}")
        self.n_nodes = n_nodes
        self.params = params
        self._by_category: Dict[str, List[float]] = {
            cat: [0.0] * n_nodes for cat in self.CATEGORIES
        }
        #: Charge observer with ``on_charge(category, cost_uj)`` /
        #: ``on_reset()`` callbacks; ``None`` disables notification.
        self.observer = None
        # size -> (bcast_send, bcast_recv) cost, for charge_broadcast.
        self._bcast_costs: Dict[float, tuple] = {}
        # size -> (p2p_send, discard, p2p_recv) cost, for charge_unicast.
        self._p2p_costs: Dict[float, tuple] = {}

    # -- charging --------------------------------------------------------

    def _notify(self, category: str, cost: float) -> None:
        if self.observer is not None and cost != 0.0:
            self.observer.on_charge(category, cost)

    def charge_p2p_send(self, node: int, size: float) -> float:
        cost = self.params.p2p_send(size)
        self._by_category["p2p_send"][node] += cost
        self._notify("p2p_send", cost)
        return cost

    def charge_p2p_recv(self, node: int, size: float) -> float:
        cost = self.params.p2p_recv(size)
        self._by_category["p2p_recv"][node] += cost
        self._notify("p2p_recv", cost)
        return cost

    def charge_bcast_send(self, node: int, size: float) -> float:
        cost = self.params.bcast_send(size)
        self._by_category["bcast_send"][node] += cost
        self._notify("bcast_send", cost)
        return cost

    def charge_bcast_recv(self, nodes: Sequence[int], size: float) -> float:
        """Charge every node in ``nodes``; returns the aggregate cost."""
        return self._charge_each("bcast_recv", nodes, self.params.bcast_recv(size))

    def charge_broadcast(self, src: int, receivers: Sequence[int], size: float) -> None:
        """Book one broadcast: :meth:`charge_bcast_send` at ``src``, then
        :meth:`charge_bcast_recv` over ``receivers``, with the same debits
        and observer notifications, in one call."""
        costs = self._bcast_costs.get(size)
        if costs is None:
            params = self.params
            costs = self._bcast_costs[size] = (
                params.bcast_send(size), params.bcast_recv(size)
            )
        send, recv = costs
        self._by_category["bcast_send"][src] += send
        ledger = self._by_category["bcast_recv"]
        for node in receivers:
            ledger[node] += recv
        observer = self.observer
        if observer is not None:
            if send != 0.0:
                observer.on_charge("bcast_send", send)
            total = recv * len(receivers)
            if total != 0.0:
                observer.on_charge("bcast_recv", total)

    def charge_unicast(
        self, src: int, dst: int, neighbors: Sequence[int], size: float
    ) -> bool:
        """Book one point-to-point transmission in one call.

        :meth:`charge_p2p_send` at ``src``, then :meth:`charge_discard`
        over every neighbor other than ``dst`` (in list order), then
        :meth:`charge_p2p_recv` at ``dst`` only if ``dst`` is among the
        neighbors — the same debits and observer notifications as those
        three calls.  Returns whether ``dst`` is among the neighbors.
        """
        costs = self._p2p_costs.get(size)
        if costs is None:
            params = self.params
            costs = self._p2p_costs[size] = (
                params.p2p_send(size), params.discard(size), params.p2p_recv(size)
            )
        send, discard, recv = costs
        self._by_category["p2p_send"][src] += send
        ledger = self._by_category["discard"]
        for node in neighbors:
            if node != dst:
                ledger[node] += discard
        reached = dst in neighbors
        if reached:
            self._by_category["p2p_recv"][dst] += recv
        observer = self.observer
        if observer is not None:
            if send != 0.0:
                observer.on_charge("p2p_send", send)
            overheard = len(neighbors) - (neighbors.count(dst) if reached else 0)
            if overheard:
                total = discard * overheard
                if total != 0.0:
                    observer.on_charge("discard", total)
            if reached and recv != 0.0:
                observer.on_charge("p2p_recv", recv)
        return reached

    def charge_discard(self, nodes: Sequence[int], size: float) -> float:
        """Charge overhearing nodes for a p2p message not addressed to them."""
        return self._charge_each("discard", nodes, self.params.discard(size))

    def _charge_each(self, category: str, nodes: Sequence[int], cost: float) -> float:
        if not len(nodes):
            return 0.0
        ledger = self._by_category[category]
        for node in nodes:
            ledger[node] += cost
        total = cost * len(nodes)
        self._notify(category, total)
        return total

    # -- reporting -------------------------------------------------------

    def node_total(self, node: int) -> float:
        """Total energy consumed by one node across all categories (uJ)."""
        return float(sum(ledger[node] for ledger in self._by_category.values()))

    def total(self) -> float:
        """Network-wide energy consumption (uJ)."""
        return float(sum(np.asarray(ledger).sum() for ledger in self._by_category.values()))

    def total_by_category(self) -> Dict[str, float]:
        return {
            cat: float(np.asarray(ledger).sum())
            for cat, ledger in self._by_category.items()
        }

    def per_node(self) -> np.ndarray:
        """``(n_nodes,)`` array of per-node totals (uJ)."""
        out = np.zeros(self.n_nodes)
        for ledger in self._by_category.values():
            out += np.asarray(ledger)
        return out

    def reset(self) -> None:
        """Zero all ledgers (e.g. after a warm-up phase)."""
        for ledger in self._by_category.values():
            ledger[:] = [0.0] * self.n_nodes
        if self.observer is not None:
            self.observer.on_reset()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"EnergyLedger(n={self.n_nodes}, total={self.total():.1f} uJ)"
