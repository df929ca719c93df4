"""One-hop wireless network with MAC delays and energy accounting.

:class:`WirelessNetwork` is the radio the routing layer drives.  It owns

* the mobility model (sampled lazily into a :class:`SpatialGrid`),
* per-node liveness (for failure-injection experiments),
* every node's region id per topology generation (:meth:`region_column`),
* the :class:`~repro.energy.EnergyLedger` charged on every transmission,
* simple MAC timing: serialization delay ``8 * size / bandwidth`` plus a
  fixed channel-access overhead plus uniform contention jitter.

Delivery is a scheduled event: the receiver's handler runs one MAC delay
after the send.  This keeps the paper's latency metric meaningful (hop
count x per-hop delay) without modeling 802.11 retransmissions; the
substitution is recorded in DESIGN.md §7.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

import numpy as np

from repro.energy import EnergyLedger, EnergyParams
from repro.geom import Point
from repro.mobility.base import MobilityModel
from repro.net.packet import Packet
from repro.net.topology import SpatialGrid
from repro.sim import Simulator, StatRegistry

__all__ = ["FaultFilter", "RadioParams", "WirelessNetwork"]

#: MAC jitter draws fetched from the ``"mac"`` stream per refill.
_JITTER_BLOCK = 1024

ReceiveHandler = Callable[[int, Packet], None]

#: Per-delivery fault hook (see :mod:`repro.faults.injectors`): called as
#: ``filter(src, dst, packet)`` for every delivery that would otherwise
#: succeed.  Returns ``None`` to deliver normally, ``[]`` to silently
#: drop, or a list of extra delays — one scheduled delivery per element
#: (``[0.0, 0.01]`` = the original plus a duplicate 10 ms later).
FaultFilter = Callable[[int, int, Packet], Optional[list]]

@dataclass(frozen=True)
class RadioParams:
    """Radio and MAC parameters (defaults follow the paper's §6.1)."""

    #: Nominal transmission range in metres.
    range_m: float = 250.0
    #: Channel bandwidth in bits per second (802.11b, 11 Mbps).
    bandwidth_bps: float = 11e6
    #: Fixed channel-access overhead per transmission, seconds.
    mac_overhead_s: float = 0.5e-3
    #: Maximum uniform contention jitter per transmission, seconds.
    #: Models 802.11 DCF backoff under neighborhood contention; the
    #: default (5 ms) reproduces multihop per-hop latencies in the
    #: 5-10 ms range observed on real 11 Mbps testbeds.
    max_jitter_s: float = 5.0e-3
    #: How often (virtual seconds) node positions are resampled into the
    #: spatial index.  At 20 m/s a 1 s staleness bounds position error to
    #: 20 m against a 250 m range.
    position_refresh_s: float = 1.0

    def tx_delay(self, size_bytes: float) -> float:
        """Deterministic part of the per-hop delay."""
        return 8.0 * size_bytes / self.bandwidth_bps + self.mac_overhead_s


class WirelessNetwork:
    """Unit-disk radio network bound to a simulator and mobility model."""

    def __init__(
        self,
        sim: Simulator,
        mobility: MobilityModel,
        rng: np.random.Generator,
        radio: RadioParams = RadioParams(),
        energy_params: EnergyParams = EnergyParams(),
        stats: Optional[StatRegistry] = None,
    ):
        self.sim = sim
        self.mobility = mobility
        self.radio = radio
        self.rng = rng
        self.n_nodes = mobility.n_nodes
        self.energy = EnergyLedger(self.n_nodes, energy_params)
        self.stats = stats if stats is not None else StatRegistry()
        self.alive = np.ones(self.n_nodes, dtype=bool)
        # Number of False entries in ``alive``, kept by fail_node and
        # revive_node: while it is 0 the radio skips every liveness test.
        self._dead = 0
        # Half-duplex sender serialization: a node's transmissions queue
        # behind each other; _busy_until[i] is when node i's radio frees.
        self._busy_until = [0.0] * self.n_nodes
        # Contention jitter still to be used, next draw last (see _hop_delay).
        self._jitters: List[float] = []
        # Radio-on (alive) time bookkeeping, for idle-power accounting.
        self._alive_since = np.zeros(self.n_nodes)
        self._accumulated_uptime = np.zeros(self.n_nodes)
        self._grid = SpatialGrid(mobility.width, mobility.height, cell_size=radio.range_m)
        self._last_sample_time = -np.inf
        self._receive_handler: Optional[ReceiveHandler] = None
        self._batch_receive_handler = None
        self._fault_filter: Optional[FaultFilter] = None
        # The region map (see set_region_map) and its per-generation
        # column of region ids, with the (generation, map version) key
        # the column was computed at.
        self._regions = None
        self._region_column: List[int] = []
        self._region_column_key = None
        # (kind, category) -> cached Counter triple; see _new_sent_counters.
        self._sent_counters: dict = {}
        # The "net.delivered" Counter, cached on the first delivery.
        self._delivered = None
        self._refresh_positions(force=True)

    # -- wiring ----------------------------------------------------------

    def set_receive_handler(self, handler: ReceiveHandler) -> None:
        """Register the single upcall invoked on every packet delivery."""
        self._receive_handler = handler

    def set_batch_receive_handler(self, handler) -> None:
        """Register an optional whole-broadcast upcall.

        Called as ``handler(live_receivers, packet)`` before the
        per-receiver loop of a batched broadcast delivery; returning
        True consumes the batch (the per-receiver handler is skipped).
        Implementations must produce effects identical to per-receiver
        delivery — this is a fan-out optimization, not a semantic hook.
        """
        self._batch_receive_handler = handler

    def set_fault_filter(self, fault_filter: Optional[FaultFilter]) -> None:
        """Install a per-delivery :data:`FaultFilter` (None uninstalls).

        Injected faults are *silent*: the sender still pays energy and
        channel time and gets a success return, so loss is discovered by
        upper-layer timeouts — unlike dead-destination and out-of-range
        drops, which model routing-layer knowledge and stay visible.
        """
        self._fault_filter = fault_filter

    def set_region_map(self, regions) -> None:
        """Install the region map that region-scoped sends resolve against.

        ``regions`` answers ``regions_of_points((N, 2) array)`` with
        ``(N,)`` region ids, -1 for a point in no region, and carries a
        ``version`` counter bumped on every change: a
        :class:`~repro.core.regions.RegionTable`.
        """
        self._regions = regions
        self._region_column_key = None

    # -- topology --------------------------------------------------------

    def _refresh_positions(self, force: bool = False) -> None:
        if not force and self.sim.now - self._last_sample_time < self.radio.position_refresh_s:
            return
        positions = self.mobility.positions_at(self.sim.now)
        if (
            not force
            and self._grid._positions is not None
            and np.array_equal(positions, self._grid._positions)
        ):
            # Nobody moved (static mobility, or a pause phase): keep the
            # current generation — and every cache keyed on it — alive.
            # Liveness changes always come through force=True rebuilds.
            self._last_sample_time = self.sim.now
            return
        self._grid.rebuild(positions, self.alive)
        self._last_sample_time = self.sim.now

    def region_column(self) -> List[int]:
        """Every node's region id at its sampled position, indexed by
        node id; -1 for a node in no region.

        The one region-membership rule: flood scope, route-to-region
        arrival and a peer's own region all read it.  Computed once per
        (topology generation, region-map version), so a table change
        with no generation bump still takes effect, and shared until
        then (do not mutate).
        """
        if self.sim.now - self._last_sample_time >= self.radio.position_refresh_s:
            self._refresh_positions()
        regions = self._regions
        if regions is None:
            raise RuntimeError("region-scoped send on a radio with no region map")
        key = (self._grid.generation, regions.version)
        if key != self._region_column_key:
            self._region_column = regions.regions_of_points(self._grid.positions).tolist()
            self._region_column_key = key
        return self._region_column

    def points(self) -> List[Point]:
        """Every node's current (sampled) position as a tuple of Python
        floats, indexed by node id: the spatial index's per-generation
        list, shared (do not mutate)."""
        self._refresh_positions()
        return self._grid.points()

    def position_of(self, node_id: int) -> Point:
        """Current (sampled) position of a node."""
        self._refresh_positions()
        return self._grid.position_of(node_id)

    def positions(self) -> np.ndarray:
        """Current (sampled) ``(N, 2)`` positions of all nodes."""
        self._refresh_positions()
        return self._grid.positions

    def neighbors_of(self, node_id: int) -> List[int]:
        """Live nodes currently within radio range of ``node_id``.

        The list is the spatial index's memo: callers must not mutate it.
        """
        self._refresh_positions()
        return self._grid.neighbors_of(node_id, self.radio.range_m)

    def neighborhood(self, node_id: int) -> Tuple[List[int], Point, int]:
        """``(neighbors_of(node_id), position_of(node_id), generation)``
        after one staleness test.

        A routing decision's whole read of the radio, taken from the
        grid's memos directly on a hit.  The list is the memo's: callers
        must not mutate it.  The generation is the spatial index's
        monotone rebuild counter: query results (neighbor sets,
        positions, planarizations) are pure functions of (generation,
        node), so routing layers key their per-topology caches on it.
        """
        if self.sim.now - self._last_sample_time >= self.radio.position_refresh_s:
            self._refresh_positions()
        grid = self._grid
        neighbors = grid._neighbor_cache.get(node_id)
        if neighbors is None:
            neighbors = grid.neighbors_of(node_id, self.radio.range_m)
        points = grid._points
        here = points[node_id] if points is not None else grid.position_of(node_id)
        return neighbors, here, grid.generation

    def nodes_near(self, point: Point) -> np.ndarray:
        """Live nodes within radio range of an arbitrary point."""
        self._refresh_positions()
        return self._grid.within_range(point, self.radio.range_m)

    def is_alive(self, node_id: int) -> bool:
        return bool(self.alive[node_id])

    def fail_node(self, node_id: int) -> None:
        """Crash a node: it stops receiving and forwarding immediately."""
        if self.alive[node_id]:
            self._accumulated_uptime[node_id] += self.sim.now - self._alive_since[node_id]
            self._dead += 1
        self.alive[node_id] = False
        self._refresh_positions(force=True)

    def revive_node(self, node_id: int) -> None:
        if not self.alive[node_id]:
            self._alive_since[node_id] = self.sim.now
            self._dead -= 1
        self.alive[node_id] = True
        self._refresh_positions(force=True)

    def uptime_seconds(self) -> np.ndarray:
        """Per-node radio-on time so far (for idle-power accounting)."""
        uptime = self._accumulated_uptime.copy()
        uptime[self.alive] += self.sim.now - self._alive_since[self.alive]
        return uptime

    def reset_uptime(self) -> None:
        """Restart uptime accounting (end-of-warm-up hook)."""
        self._accumulated_uptime.fill(0.0)
        self._alive_since.fill(self.sim.now)

    def idle_energy_uj(self) -> float:
        """Total idle/listening energy so far (0 unless idle_mw is set)."""
        params = self.energy.params
        if params.idle_mw <= 0:
            return 0.0
        return float(sum(params.idle(t) for t in self.uptime_seconds()))

    # -- MAC timing ------------------------------------------------------

    def mac_backlog(self, now: float = None) -> np.ndarray:
        """Per-node remaining MAC send-queue time (seconds).

        A pure read of the half-duplex backlog — safe for telemetry
        samplers (no RNG, no position refresh, no state change).
        """
        if now is None:
            now = self.sim.now
        return np.maximum(np.asarray(self._busy_until) - now, 0.0)

    def _hop_delay(self, src: int, size_bytes: float) -> float:
        """Delay from now until this transmission completes.

        The sender's radio is half-duplex: a transmission starts only
        after the node's previous one (queueing delay), then occupies
        the channel for the serialization time plus contention jitter.
        Bursty traffic — e.g. every member of a region answering a
        flood — therefore queues, as on a real shared medium.
        """
        now = self.sim.now
        busy = self._busy_until[src]
        start = busy if busy > now else now  # max(now, busy)
        # The "mac" stream feeds nothing else, so its draws are fetched a
        # block at a time: ``rng.random(n)`` yields the same doubles as n
        # calls of ``rng.random()``, and scaling them elementwise gives
        # the values ``rng.random() * max_jitter_s`` would, in order.
        jitters = self._jitters
        if not jitters:
            block = self.rng.random(_JITTER_BLOCK) * self.radio.max_jitter_s
            jitters = self._jitters = block[::-1].tolist()
        radio = self.radio
        # radio.tx_delay(size_bytes), inline (same float operations).
        tx_delay = 8.0 * size_bytes / radio.bandwidth_bps + radio.mac_overhead_s
        end = start + tx_delay + jitters.pop()
        self._busy_until[src] = end
        return end - now

    def _new_sent_counters(self, kind: str, category: str) -> tuple:
        """The three per-send Counters of a ``(kind, category)`` pair.

        The radio caches them in ``_sent_counters`` and bumps them in
        place.  They are created on the first send of each pair — the
        same moment plain ``stats.count`` calls would create them — and
        ``StatRegistry.reset`` zeroes counters in place, so the cached
        references stay live across the end-of-warm-up reset.
        """
        stats = self.stats
        counters = self._sent_counters[(kind, category)] = (
            stats.counter(kind),
            stats.counter("net.bytes_sent"),
            stats.counter(f"net.sent.{category}"),
        )
        return counters

    # -- transmission primitives -----------------------------------------

    def broadcast(self, src: int, packet: Packet) -> List[int]:
        """One-hop broadcast from ``src``.

        Every live node in radio range receives the packet after one MAC
        delay.  Energy: broadcast-send for the sender, broadcast-receive
        for each in-range node (paper eq. 8).  Returns the receiver ids
        (the neighbor memo's list: callers must not mutate it).
        """
        if self._dead and not self.alive[src]:
            return []
        # neighbors_of(src), reading the grid's memo directly on a hit
        # (the radio is the grid's only client: the memo is at range_m).
        if self.sim.now - self._last_sample_time >= self.radio.position_refresh_s:
            self._refresh_positions()
        receivers = self._grid._neighbor_cache.get(src)
        if receivers is None:
            receivers = self._grid.neighbors_of(src, self.radio.range_m)
        size = packet.size_bytes
        energy = self.energy
        attributor = energy.observer
        if attributor is not None:
            attributor.open(packet, sender=src)
        try:
            energy.charge_broadcast(src, receivers, size)
        finally:
            if attributor is not None:
                attributor.close()
        category = packet.category
        c_kind, c_bytes, c_cat = self._sent_counters.get(
            ("net.broadcast_sent", category)
        ) or self._new_sent_counters("net.broadcast_sent", category)
        c_kind.value += 1.0
        c_bytes.value += size
        c_cat.value += 1.0
        delay = self._hop_delay(src, size)
        if self._fault_filter is None:
            # All receivers share one delivery time, and nothing scheduled
            # later can obtain an earlier (time, seq) key — so a
            # single batch event delivering in receiver order is
            # order-equivalent to one event per receiver.  Fault filters
            # can perturb per-receiver timing, so they keep the loop.
            if receivers:
                self.sim.schedule(delay, self._deliver_batch, receivers, packet)
            return receivers
        for receiver in receivers:
            deliveries = self._filter_delivery(src, receiver, packet)
            if deliveries is None:
                self.stats.count("net.broadcast_dropped.injected")
                continue
            for extra in deliveries:
                self.sim.schedule(delay + extra, self._deliver, receiver, packet)
        return receivers

    def unicast(self, src: int, dst: int, packet: Packet) -> bool:
        """One-hop point-to-point transmission from ``src`` to ``dst``.

        Energy: p2p-send for the sender, p2p-receive for the addressed
        node, discard for every other live node in range (overhearing).
        Returns False (and counts a drop) if ``dst`` is dead or has moved
        out of range since the routing decision.  Drops are accounted
        under distinct keys: ``net.unicast_dropped.dead``,
        ``net.unicast_dropped.out_of_range`` and (from the fault filter)
        ``net.unicast_dropped.injected``, with ``net.unicast_dropped``
        as the aggregate.  Injected drops are silent — the method still
        returns True, and the loss surfaces as an upper-layer timeout.
        """
        if self._dead or self._fault_filter is not None:
            return self._unicast_checked(src, dst, packet)
        # neighbors_of(src), reading the grid's memo directly on a hit.
        if self.sim.now - self._last_sample_time >= self.radio.position_refresh_s:
            self._refresh_positions()
        neighbors = self._grid._neighbor_cache.get(src)
        if neighbors is None:
            neighbors = self._grid.neighbors_of(src, self.radio.range_m)
        size = packet.size_bytes
        energy = self.energy
        attributor = energy.observer
        if attributor is None:
            reached = energy.charge_unicast(src, dst, neighbors, size)
        else:
            attributor.open(packet, sender=src)
            try:
                reached = energy.charge_unicast(src, dst, neighbors, size)
            finally:
                attributor.close()
        category = packet.category
        c_kind, c_bytes, c_cat = self._sent_counters.get(
            ("net.unicast_sent", category)
        ) or self._new_sent_counters("net.unicast_sent", category)
        c_kind.value += 1.0
        c_bytes.value += size
        c_cat.value += 1.0
        if not reached:
            self.stats.count("net.unicast_dropped")
            self.stats.count("net.unicast_dropped.out_of_range")
            return False
        self.sim.schedule(self._hop_delay(src, size), self._deliver, dst, packet)
        return True

    def _unicast_checked(self, src: int, dst: int, packet: Packet) -> bool:
        """:meth:`unicast` while a node is dead or a fault filter is
        installed: the liveness tests and per-delivery filtering, with
        one ledger call per traffic class."""
        if self._dead and not self.alive[src]:
            return False
        energy = self.energy
        attributor = energy.observer
        if attributor is not None:
            attributor.open(packet, sender=src)
        try:
            size = packet.size_bytes
            energy.charge_p2p_send(src, size)
            category = packet.category
            c_kind, c_bytes, c_cat = self._sent_counters.get(
                ("net.unicast_sent", category)
            ) or self._new_sent_counters("net.unicast_sent", category)
            c_kind.value += 1.0
            c_bytes.value += size
            c_cat.value += 1.0
            neighbors = self.neighbors_of(src)
            overhearers = [node for node in neighbors if node != dst]
            energy.charge_discard(overhearers, size)
            if self._dead and not self.alive[dst]:
                self.stats.count("net.unicast_dropped")
                self.stats.count("net.unicast_dropped.dead")
                return False
            if len(overhearers) == len(neighbors):  # dst not among the neighbors
                self.stats.count("net.unicast_dropped")
                self.stats.count("net.unicast_dropped.out_of_range")
                return False
            deliveries = (
                (0.0,) if self._fault_filter is None
                else self._filter_delivery(src, dst, packet)
            )
            delay = self._hop_delay(src, size)
            if deliveries is None:
                # Silent channel loss: the frame was transmitted (energy
                # and channel time spent, receiver discards a corrupt
                # frame) but never reaches the application.
                self.stats.count("net.unicast_dropped")
                self.stats.count("net.unicast_dropped.injected")
                energy.charge_discard((dst,), size)
                return True
            energy.charge_p2p_recv(dst, size)
            for extra in deliveries:
                self.sim.schedule(delay + extra, self._deliver, dst, packet)
            return True
        finally:
            if attributor is not None:
                attributor.close()

    def _filter_delivery(self, src: int, dst: int, packet: Packet):
        """Apply the installed fault filter to one would-be delivery.

        Returns the list of delivery delays (``[0.0]`` when the delivery
        is untouched) or ``None`` when the delivery is injected-dropped.
        """
        plan = self._fault_filter(src, dst, packet)
        if plan is None:
            return [0.0]
        if not plan:
            return None
        return list(plan)

    def _delivered_counter(self):
        """The ``net.delivered`` Counter, created on the first delivery
        (as ``stats.count`` would) and bumped in place from then on."""
        counter = self._delivered
        if counter is None:
            counter = self._delivered = self.stats.counter("net.delivered")
        return counter

    def _deliver(self, node_id: int, packet: Packet) -> None:
        if self._dead and not self.alive[node_id]:
            return  # died in flight
        (self._delivered or self._delivered_counter()).value += 1.0
        if self._receive_handler is not None:
            self._receive_handler(node_id, packet)

    def _deliver_batch(self, receivers: List[int], packet: Packet) -> None:
        """Deliver one broadcast to all its receivers in a single event.

        One heap entry stands in for ``len(receivers)`` logical delivery
        events; the counter is topped up so ``events_executed`` counts
        logical events, the same number the per-receiver path (taken
        under a fault filter) executes.

        ``net.delivered`` is bumped once for the whole batch: counter
        values are integers in float64, exact up to 2**53, so one add of
        ``k`` equals ``k`` adds of one, and nothing inside a single
        event's execution reads the counter in between.
        """
        self.sim.events_executed += len(receivers) - 1
        if self._dead:
            alive = self.alive
            receivers = [node for node in receivers if alive[node]]
            if not receivers:
                return
        (self._delivered or self._delivered_counter()).value += len(receivers)
        batch_handler = self._batch_receive_handler
        if batch_handler is not None and batch_handler(receivers, packet):
            return
        handler = self._receive_handler
        if handler is not None:
            for receiver in receivers:
                handler(receiver, packet)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"WirelessNetwork(n={self.n_nodes}, range={self.radio.range_m:g} m, "
            f"alive={int(self.alive.sum())})"
        )
