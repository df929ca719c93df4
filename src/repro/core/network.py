"""PReCinCtNetwork — the simulation facade.

Wires every substrate together from one :class:`SimulationConfig`:

    Simulator ── WirelessNetwork ── NetworkStack ── Peers (protocol)
        │             │                                │
    RngRegistry   MobilityModel                  RegionTable / GeographicHash
        │             │                                │
    StatRegistry  EnergyLedger                   Database / ConsistencyScheme

and runs the experiment loop: initial custodian placement, the periodic
inter-region mobility sweep, the workload processes, the warm-up
statistics reset, and final report generation.

This is the main entry point of the library::

    from repro import PReCinCtNetwork, SimulationConfig

    net = PReCinCtNetwork(SimulationConfig(n_nodes=80, max_speed=6.0))
    report = net.run()
    print(report.row())
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.analysis.metrics import RequestMetrics, RunReport
from repro.config import SimulationConfig
from repro.core.cache import PeerCache
from repro.core.consistency import (
    ConsistencyScheme,
    PlainPush,
    PullEveryTime,
    PushAdaptivePull,
)
from repro.core.geohash import GeographicHash
from repro.core.messages import (
    DataResponse,
    HomeRequest,
    Invalidation,
    KeyHandoff,
    LocalRequest,
    Poll,
    PollReply,
    UpdatePush,
)
from repro.core.peer import PHASE_HOME, PHASE_LOCAL, PHASE_POLL, PHASE_REPLICA, Peer
from repro.core.regions import Region, RegionTable
from repro.core.replacement import (
    GDLDPolicy,
    GDSizePolicy,
    LRUPolicy,
    ReplacementPolicy,
)
from repro.energy import EnergyParams
from repro.geom import Point, distance
from repro.mobility import RandomWaypointModel, StationaryModel
from repro.net import RadioParams, WirelessNetwork
from repro.net.packet import Packet
from repro.routing import GeoEnvelope, NetworkStack
from repro.sim import RngRegistry, Simulator, StatRegistry
from repro.workload import Database, WorkloadGenerator, ZipfSampler

__all__ = ["PReCinCtNetwork", "build_radio"]

#: How often peers check their position for inter-region moves (§2.3), s.
REGION_CHECK_INTERVAL = 1.0
#: How often orphaned keys are retried for custody repair, s.
CUSTODY_REPAIR_INTERVAL = 10.0
#: Zipf skew of the *update* key distribution.  The paper specifies
#: Zipf for accesses only; updates are uniform.
UPDATE_ZIPF_THETA = 0.0
#: On-air size of one GPSR HELLO beacon (node id + position), bytes.
HELLO_BEACON_BYTES = 24.0
#: Keys prefetched per evaluation, and the regional access count a key
#: needs before it is prefetch-worthy.
PREFETCH_BATCH = 1
PREFETCH_MIN_COUNT = 2
#: RPGM groups and their radius (m) for ``mobility_model="group"``, and
#: streets per axis for ``"manhattan"``.
GROUP_COUNT = 6
GROUP_RADIUS = 120.0
N_STREETS = 7
#: Fraction of churn departures that are sudden crashes (no key
#: handoff); the paper assumes "most users quit the network gracefully".
CHURN_CRASH_FRACTION = 0.1


def build_radio(
    cfg: SimulationConfig,
    sim: Simulator,
    rngs: RngRegistry,
    stats: StatRegistry,
) -> WirelessNetwork:
    """The radio network every simulated scheme runs on.

    Its ``mobility`` is the model ``cfg.mobility_model`` names
    (stationary placement when ``cfg.max_speed`` is unset), and its
    radio range, bandwidth and idle power come from ``cfg``, so
    PReCinCt and the baselines share one substrate per config.
    """
    mobile = bool(cfg.max_speed and cfg.max_speed > 0)
    if not mobile or cfg.mobility_model == "stationary":
        mobility = StationaryModel(
            cfg.n_nodes, cfg.width, cfg.height, rng=rngs.get("placement")
        )
    elif cfg.mobility_model == "manhattan":
        from repro.mobility import ManhattanModel

        mobility = ManhattanModel(
            cfg.n_nodes,
            cfg.width,
            cfg.height,
            rng=rngs.get("mobility"),
            n_streets=N_STREETS,
            max_speed=cfg.max_speed,
        )
    elif cfg.mobility_model == "group":
        from repro.mobility import GroupMobilityModel

        mobility = GroupMobilityModel(
            cfg.n_nodes,
            cfg.width,
            cfg.height,
            rng=rngs.get("mobility"),
            n_groups=GROUP_COUNT,
            group_radius=GROUP_RADIUS,
            max_speed=cfg.max_speed,
            pause_time=cfg.pause_time,
        )
    else:
        mobility = RandomWaypointModel(
            cfg.n_nodes,
            cfg.width,
            cfg.height,
            max_speed=cfg.max_speed,
            pause_time=cfg.pause_time,
            rng=rngs.get("mobility"),
        )
    return WirelessNetwork(
        sim,
        mobility,
        rng=rngs.get("mac"),
        radio=RadioParams(range_m=cfg.range_m, bandwidth_bps=cfg.bandwidth_bps),
        energy_params=EnergyParams(idle_mw=cfg.idle_power_mw),
        stats=stats,
    )


class PReCinCtNetwork:
    """A fully wired PReCinCt simulation."""

    def __init__(self, cfg: SimulationConfig, observers=None):
        self.cfg = cfg
        self.sim = Simulator()
        self.rngs = RngRegistry(cfg.seed)
        self.stats = StatRegistry()
        self.metrics = RequestMetrics()

        # -- substrates ------------------------------------------------------
        self.network = build_radio(cfg, self.sim, self.rngs, self.stats)
        self.mobility = self.network.mobility
        self.stack = NetworkStack(self.network)

        # -- PReCinCt state ---------------------------------------------------
        self.table = RegionTable.grid(cfg.width, cfg.height, cfg.n_regions)
        self.geohash = GeographicHash(cfg.width, cfg.height, salt=cfg.seed)
        self.db = Database(
            cfg.n_items,
            rng=self.rngs.get("database"),
            min_size_bytes=cfg.min_item_bytes,
            max_size_bytes=cfg.max_item_bytes,
        )
        self.scheme = self._make_scheme(cfg)
        self.scheme.bind(self)
        capacity = cfg.cache_fraction * self.db.total_bytes
        self.peers: List[Peer] = [
            Peer(i, self, PeerCache(capacity, policy=self._make_policy(cfg)))
            for i in range(cfg.n_nodes)
        ]

        # -- wiring -------------------------------------------------------------
        self.stack.set_app_handler(self._dispatch)
        self.stack.set_app_batch_handler(self._dispatch_batch)
        self.stack.set_intercept_handler(self._intercept)
        self.stack.set_drop_handler(self._on_route_drop)
        self.network.set_region_map(self.table)

        self._region_of_peer = np.full(cfg.n_nodes, -1, dtype=np.intp)
        #: Keys whose home region currently has no custodian, keyed by
        #: region id; repaired when the region repopulates (§2.4 spirit).
        self._orphaned_keys: Dict[int, set] = {}
        self._assign_initial_regions()
        if not (cfg.max_speed and cfg.max_speed > 0):
            # Static topology: apply the paper's Delete operation (§2.1)
            # to regions with no peers, so keys hash to *populated*
            # regions.  (Under mobility nodes re-enter empty territory,
            # so the table keeps all regions there.)
            self._drop_empty_regions()
        locations = self.geohash.locations(len(self.db))
        #: ``(home, replica)`` region pair of every key, indexed by key,
        #: from the table, which is final from here on (§2.2, §2.4).
        homes, replicas = self.table.home_and_replica(locations)
        region = self.table.get
        self.key_regions: List[Tuple[Region, Region]] = [
            (region(h), region(r)) for h, r in zip(homes.tolist(), replicas.tolist())
        ]
        self._assign_custodians(locations.tolist())
        for item in self.db.items:
            item.ttr = self.scheme.initial_ttr(item)

        if cfg.enable_event_log:
            from repro.sim.eventlog import EventLog

            self.log: Optional["EventLog"] = EventLog()
        else:
            self.log = None
        if cfg.fault_plan:
            from repro.faults.injectors import FaultController

            self.faults: Optional["FaultController"] = FaultController(
                self, cfg.fault_plan
            )
            self.faults.install()
        else:
            self.faults = None
        if cfg.resilience:
            from repro.resilience import ResilienceManager

            # The "resilience" stream is an independent SeedSequence
            # spawn: backoff jitter can never perturb mobility, MAC,
            # workload, or fault randomness (see obs/sampling.py for
            # the same pattern).
            self.resilience: Optional["ResilienceManager"] = (
                ResilienceManager.from_config(
                    cfg,
                    rng=self.rngs.get("resilience"),
                    stats=self.stats,
                    event_hook=self.trace,
                )
            )
        else:
            self.resilience = None

        # -- observability (pure observers: digest-neutral by design) --------
        # All observer wiring lives in Observers.attach; the engine
        # just accepts a composition object (or builds the default one,
        # which arms nothing).
        from repro.obs.observers import Observers

        if observers is None:
            observers = Observers()
        self.observers = observers.attach(self)
        self._ran = False

    # -- observer delegation (the Observers object owns the instances) ------

    @property
    def tracer(self):
        return self.observers.tracer

    @property
    def telemetry(self):
        return self.observers.telemetry

    @property
    def recorder(self):
        return self.observers.recorder

    @property
    def energy_attribution(self):
        return self.observers.energy

    @property
    def anomaly(self):
        return self.observers.anomaly

    def trace(self, kind: str, **fields) -> None:
        """Record a protocol event when event logging is enabled."""
        if self.log is not None:
            self.log.record(self.sim.now, kind, **fields)

    # -- observability hooks (all pure readers of simulation state) ----------

    def _on_gpsr_hop(self, src: int, dst: int, packet: Packet) -> None:
        """Router hop hook: attribute the hop to the carried request."""
        inner = getattr(packet.payload, "inner", None)
        request_id = getattr(inner, "request_id", None)
        if request_id is not None:
            self.tracer.point_by_request(
                request_id, "gpsr.hop", peer=src, to=int(dst)
            )

    def _on_fault_fired(self, kind: str, src: int, dst: int, packet: Packet) -> None:
        """Fault-injector hook: tag the affected request's trace."""
        payload = packet.payload
        inner = getattr(payload, "inner", payload)
        request_id = getattr(inner, "request_id", None)
        if request_id is not None:
            self.tracer.tag_fault(request_id, kind)

    def _on_engine_crash(self, exc: BaseException) -> None:
        if self.recorder is not None:
            self.recorder.dump(
                "engine-crash",
                context={"error": repr(exc)},
                sim_time=self.sim.now,
            )

    def _telemetry_snapshot(self) -> Dict[str, float]:
        """One telemetry row: counters, cache fill, MAC backlog.

        MUST stay a pure reader — no RNG draws, no stat writes, and no
        ``positions()``/``neighbors_of()`` calls (their lazy refresh is
        time-dependent and would perturb later routing decisions).
        """
        out = {f"stat.{k}": v for k, v in self.stats.counters().items()}
        occupancy: Dict[int, float] = {}
        entries: Dict[int, float] = {}
        for peer in self.peers:
            rid = peer.current_region_id
            if rid < 0:
                continue
            occupancy[rid] = occupancy.get(rid, 0.0) + peer.cache.used_bytes
            entries[rid] = entries.get(rid, 0.0) + len(peer.cache)
        for rid in sorted(occupancy):
            out[f"cache.region{rid}.bytes"] = occupancy[rid]
            out[f"cache.region{rid}.entries"] = entries[rid]
        if occupancy:
            # max/mean per-region cache fill; 1.0 = perfectly balanced.
            mean = sum(occupancy.values()) / len(occupancy)
            out["region.occupancy_imbalance"] = (
                max(occupancy.values()) / mean if mean > 0 else 0.0
            )
        if self.resilience is not None:
            out.update(self.resilience.telemetry())
        backlog = self.network.mac_backlog()
        out["mac.backlog_total_s"] = float(backlog.sum())
        out["mac.backlog_max_s"] = float(backlog.max()) if backlog.size else 0.0
        out["energy.total_uj"] = self.network.energy.total()
        out["energy.uj_per_request"] = (
            out["energy.total_uj"] / max(1, self.metrics.requests_issued)
        )
        # Progress/throughput gauges for the live dashboard.
        out["engine.events"] = float(self.sim.events_executed)
        out["request.issued"] = float(self.metrics.requests_issued)
        out["request.failed"] = float(self.metrics.requests_failed)
        out["request.served"] = float(
            sum(self.metrics.served_by_class.values())
        )
        out["request.byte_hit_ratio"] = self.metrics.byte_hit_ratio
        return out

    # -- factories ------------------------------------------------------------

    @staticmethod
    def _make_scheme(cfg: SimulationConfig) -> ConsistencyScheme:
        if cfg.consistency == "plain-push":
            return PlainPush()
        if cfg.consistency == "pull-every-time":
            return PullEveryTime()
        if cfg.consistency == "push-adaptive-pull":
            return PushAdaptivePull(alpha=cfg.ttr_alpha, default_ttr=cfg.default_ttr)
        return ConsistencyScheme()

    @staticmethod
    def _make_policy(cfg: SimulationConfig) -> ReplacementPolicy:
        if cfg.replacement_policy == "gd-ld":
            return GDLDPolicy(wr=cfg.gdld_wr, wd=cfg.gdld_wd, ws=cfg.gdld_ws)
        if cfg.replacement_policy == "gd-size":
            return GDSizePolicy()
        if cfg.replacement_policy == "lfu":
            from repro.core.replacement import LFUPolicy

            return LFUPolicy()
        return LRUPolicy()

    # -- initial placement -------------------------------------------------------

    def _assign_initial_regions(self) -> None:
        column = self.network.region_column()
        for peer, region_id in zip(self.peers, column):
            peer.current_region_id = region_id
        self._region_of_peer = np.array(column, dtype=np.intp)

    def _drop_empty_regions(self) -> None:
        """Delete unpopulated regions from the region table (§2.1).

        With few nodes and many nominal regions (Fig. 9b's 20 nodes /
        25 regions), some grid cells hold no peer; the paper's Delete
        operation removes such regions so every key's home region can
        actually serve it."""
        populated = set(int(r) for r in self._region_of_peer if r >= 0)
        for region_id in list(self.table.region_ids()):
            if region_id not in populated and len(self.table) > 1:
                self.table.delete(region_id)
                self.stats.count("regions.deleted_empty")

    def _peers_in_region(self, region_id: int, exclude: int = -1) -> List[int]:
        members = np.flatnonzero(
            (self._region_of_peer == region_id) & self.network.alive
        )
        # The sweep array can lag a peer's own region state (handoffs,
        # rejoins, region-table changes happen between sweeps); confirm
        # membership against the peer itself.
        return [
            int(p)
            for p in members
            if p != exclude and self.peers[int(p)].current_region_id == region_id
        ]

    def _assign_custodians(self, locations: List[Point]) -> None:
        """Place each key's authoritative copy (and replica) at the peer
        closest to the key's hashed location within the home (replica)
        region (§2.2, §2.4)."""
        positions = self.network.positions().tolist()
        # _peers_in_region of every region at once: members stay put
        # while custody is placed.
        alive = self.network.alive.tolist()
        members_of: Dict[int, List[int]] = {}
        for peer, region_id in zip(self.peers, self._region_of_peer.tolist()):
            if alive[peer.id] and peer.current_region_id == region_id:
                members_of.setdefault(region_id, []).append(peer.id)
        for key, (home, replica) in enumerate(self.key_regions):
            location = locations[key]
            targets = [home.region_id]
            if self.cfg.enable_replication and replica.region_id != home.region_id:
                targets.append(replica.region_id)
            for region_id in targets:
                members = members_of.get(region_id)
                if not members:
                    self.stats.count("peer.keys_unplaced")
                    self._orphaned_keys.setdefault(region_id, set()).add(key)
                    continue
                dists = [distance(positions[m], location) for m in members]
                # Closest member first (stable order); a full static
                # store (bounded §3.1 split) passes custody to the next
                # closest.
                placed = False
                for i in sorted(range(len(dists)), key=dists.__getitem__):
                    member = members[i]
                    if not self.peers[member].accept_static_keys([key]):
                        placed = True
                        break
                if not placed:
                    self.stats.count("peer.keys_unplaced")
                    self._orphaned_keys.setdefault(region_id, set()).add(key)

    # -- services used by peers and schemes -----------------------------------------

    def position_of(self, peer_id: int):
        return self.network.position_of(peer_id)

    def pick_handoff_target(self, mover: int, region_id: int) -> Optional[int]:
        """Best peer to inherit a mover's keys (§2.3): prefer members
        near the region center (low probability of leaving soon)."""
        members = self._peers_in_region(region_id, exclude=mover)
        if not members:
            return None
        center = self.table.get(region_id).center
        position_of = self.network.position_of
        dists = [distance(position_of(m), center) for m in members]
        return members[dists.index(min(dists))]

    def on_keys_orphaned(self, region_id: int, keys: List[int]) -> None:
        """A mover left an empty region: its keys have no home custodian
        until re-placement; the replica region keeps serving (§2.4) and
        the custody-repair pass re-places them when members return."""
        self.stats.count("peer.keys_orphaned", len(keys))
        self._orphaned_keys.setdefault(region_id, set()).update(keys)

    def spill_custody(self, holder: int, region_id: int, keys: List[int]) -> None:
        """Re-route custody that overflowed a peer's static store.

        Tries another member of the same region (a fresh KeyHandoff);
        with nobody able to take it, the keys are orphaned and left to
        custody repair / the replica region (§2.4).
        """
        target = self.pick_handoff_target(holder, region_id)
        if target is None:
            self.on_keys_orphaned(region_id, keys)
            return
        self.stats.count("peer.custody_spills")
        # retries=1: one spill hop left before orphaning
        self.send_custody(holder, target, keys, region_id, retries=1)

    def send_custody(
        self,
        source: int,
        target: int,
        keys: List[int],
        region_id: int,
        retries: int = 0,
    ) -> None:
        """Geo-route custody of ``keys`` from ``source`` to ``target``:
        one :class:`KeyHandoff` carrying each key's authoritative state
        and its data bytes (§2.3)."""
        db = self.db
        entries = tuple(
            (
                key,
                db[key].version,
                db[key].last_update_time,
                db[key].last_update_interval,
                db[key].ttr,
            )
            for key in keys
        )
        msg = KeyHandoff(
            from_peer=source,
            to_peer=target,
            entries=entries,
            total_data_bytes=float(sum(db[key].size_bytes for key in keys)),
            region_id=region_id,
            retries=retries,
        )
        self.stack.geo_send(
            source,
            msg,
            msg.size_bytes,
            dest_point=self.position_of(target),
            dest_node=target,
            category="handoff",
        )

    def repair_custody(self) -> int:
        """Re-place orphaned keys whose home region has members again.

        For each repairable key the surviving copy (usually the replica
        custodian) sends a :class:`KeyHandoff` to the best member of the
        repopulated region; a key with *no* surviving copy anywhere is
        counted as lost (the data is gone until re-published).  Returns
        the number of keys queued for repair.
        """
        repaired = 0
        for region_id in list(self._orphaned_keys):
            keys = self._orphaned_keys.get(region_id)
            if not keys:
                del self._orphaned_keys[region_id]
                continue
            target = self.pick_handoff_target(-1, region_id)
            if target is None:
                continue  # still empty; try again later
            batches: Dict[int, List[int]] = {}
            for key in sorted(keys):
                already_covered = any(
                    key in p.static_keys
                    and p.current_region_id == region_id
                    and self.network.is_alive(p.id)
                    for p in self.peers
                )
                if already_covered:
                    # Re-placed through another path (a handoff retry)
                    # while queued for repair.
                    keys.discard(key)
                    continue
                holder = next(
                    (
                        p.id
                        for p in self.peers
                        if key in p.static_keys and self.network.is_alive(p.id)
                    ),
                    None,
                )
                if holder is None:
                    self.stats.count("custody.lost")
                    keys.discard(key)
                    continue
                batches.setdefault(holder, []).append(key)
                keys.discard(key)
                repaired += 1
            for source, batch in batches.items():
                self.stats.count("custody.repaired", len(batch))
                self.send_custody(source, target, batch, region_id)
            if not keys:
                del self._orphaned_keys[region_id]
        return repaired

    def push_update_to_regions(self, updater: int, key: int, category: str) -> None:
        """The Push phase (Fig. 2): deliver an update to the home and
        replica regions of ``key``."""
        item = self.db[key]
        home, replica = self.key_regions[key]
        targets = [home]
        if self.cfg.enable_replication and replica.region_id != home.region_id:
            targets.append(replica)
        updater_peer = self.peers[updater]
        tracer = self.tracer
        utrace = tracer.begin(updater, key) if tracer is not None else None
        for region in targets:
            if utrace is not None:
                tracer.point(
                    utrace, "consistency.push", peer=updater,
                    region=region.region_id,
                )
            msg = UpdatePush(
                key=key,
                version=item.version,
                update_time=self.sim.now,
                updater=updater,
                data_size=item.size_bytes,
                target_region_id=region.region_id,
            )
            if updater_peer.current_region_id == region.region_id:
                # Already inside the target region: apply locally and
                # flood to the other members directly.
                updater_peer.process_update_push(msg)
                self.stack.flood_send(
                    updater,
                    msg,
                    msg.size_bytes,
                    region=region.region_id,
                    category=category,
                )
            else:
                self.stack.geo_send(
                    updater,
                    msg,
                    msg.size_bytes,
                    dest_point=region.center,
                    region=region.region_id,
                    category=category,
                )
        if utrace is not None:
            tracer.finish(utrace, "update-push")

    def flood_invalidation(self, updater: int, key: int, category: str) -> None:
        """Plain-Push: network-wide invalidation flood."""
        msg = Invalidation(key=key, version=self.db.version_of(key), updater=updater)
        tracer = self.tracer
        if tracer is not None:
            utrace = tracer.begin(updater, key)
            tracer.point(utrace, "consistency.push", peer=updater, scope="global")
            tracer.finish(utrace, "update-invalidate")
        self.stack.flood_send(updater, msg, msg.size_bytes, category=category)

    # -- message dispatch ---------------------------------------------------------------

    def _dispatch(self, node_id: int, inner, packet: Packet) -> None:
        if type(inner) is tuple and inner and inner[0] == "hello":
            # HELLO beacons outnumber every other message type when
            # beaconing is on; short-circuit before the isinstance chain.
            self.stats.count("peer.beacons_heard")
            return
        peer = self.peers[node_id]
        by_geo = isinstance(packet.payload, GeoEnvelope)
        if isinstance(inner, LocalRequest):
            peer.on_local_request(inner)
        elif isinstance(inner, HomeRequest):
            peer.on_home_request(inner, by_geo)
        elif isinstance(inner, DataResponse):
            peer.on_response(inner)
        elif isinstance(inner, UpdatePush):
            peer.on_update_push(inner, by_geo, inner.target_region_id)
        elif isinstance(inner, Invalidation):
            peer.on_invalidation(inner)
        elif isinstance(inner, Poll):
            peer.on_poll(inner, by_geo)
        elif isinstance(inner, PollReply):
            peer.on_poll_reply(inner)
        elif isinstance(inner, KeyHandoff):
            peer.on_key_handoff(inner)
        else:
            from repro.core.digest import DigestAnnounce

            if isinstance(inner, DigestAnnounce):
                peer.on_digest_announce(inner)
            else:  # pragma: no cover - future message types
                self.stats.count("dispatch.unknown")

    def _dispatch_batch(self, receivers, inner, packet: Packet) -> bool:
        """Whole-broadcast dispatch for per-receiver-stateless messages.

        HELLO beacons touch no per-peer state — their only observable
        effect is the ``peer.beacons_heard`` counter, which one batched
        add reproduces exactly (integer counts in float64 are exact).
        Everything else falls back to per-receiver dispatch.
        """
        if type(inner) is tuple and inner and inner[0] == "hello":
            self.stats.count("peer.beacons_heard", len(receivers))
            return True
        return False

    def _intercept(self, node_id: int, inner, packet: Packet) -> bool:
        """En-route cache serving (§3.1) for geo-routed requests."""
        if isinstance(inner, HomeRequest):
            return self.peers[node_id].try_intercept(inner)
        return False

    def _on_route_drop(self, node_id: int, packet: Packet) -> None:
        """Fail fast on routing drops: move the affected request to its
        next phase instead of waiting out the timer."""
        payload = packet.payload
        inner = payload.inner if isinstance(payload, GeoEnvelope) else payload
        if isinstance(inner, HomeRequest):
            requester = self.peers[inner.requester]
            pending = requester.pending.get(inner.request_id)
            if pending is not None and pending.phase in (PHASE_HOME, PHASE_REPLICA):
                requester._on_timeout(inner.request_id, pending.phase)
        elif isinstance(inner, Poll):
            requester = self.peers[inner.requester]
            pending = requester.pending.get(inner.request_id)
            if pending is not None and pending.phase == PHASE_POLL:
                requester._on_timeout(inner.request_id, PHASE_POLL)
        elif isinstance(inner, KeyHandoff):
            self._redeliver_handoff(node_id, inner)

    def _redeliver_handoff(self, node_id: int, msg: KeyHandoff) -> None:
        """A key-handoff carrier was dropped: re-target it from where it
        died so custody is not silently lost (§2.3/§2.4 durability)."""
        if msg.retries >= 2:
            self.on_keys_orphaned(msg.region_id, [e[0] for e in msg.entries])
            return
        target = self.pick_handoff_target(msg.to_peer, msg.region_id)
        if target is None:
            self.on_keys_orphaned(msg.region_id, [e[0] for e in msg.entries])
            return
        retry = KeyHandoff(
            from_peer=node_id,
            to_peer=target,
            entries=msg.entries,
            total_data_bytes=msg.total_data_bytes,
            region_id=msg.region_id,
            retries=msg.retries + 1,
        )
        self.stats.count("peer.handoff_retries")
        self.stack.geo_send(
            node_id,
            retry,
            retry.size_bytes,
            dest_point=self.position_of(target),
            dest_node=target,
            category="handoff",
        )

    # -- timers ------------------------------------------------------------------------------

    def _every(self, interval: float, work, *args, rng=None) -> None:
        """Run ``work(*args)`` every ``interval`` virtual seconds.

        A start event is scheduled now, at delay 0; it schedules the
        first wakeup ``interval`` later or, given ``rng``, at a uniform
        offset within the first period (drawn in the start event, which
        desynchronizes per-peer timers).  Each wakeup does its work,
        then schedules the next one.
        """
        sim = self.sim
        interval = float(interval)

        def tick() -> None:
            work(*args)
            sim.schedule(interval, tick)

        def start() -> None:
            first = interval if rng is None else float(rng.uniform(0.0, interval))
            sim.schedule(first, tick)

        sim.schedule(0.0, start)

    # -- regional digests (Summary-Cache optimization) -----------------------------------

    def _announce_digest(self, peer_id: int) -> None:
        """Periodic cache-summary announcement (ref. [5])."""
        if self.network.is_alive(peer_id):
            self.peers[peer_id].announce_digest()

    # -- GPSR beaconing cost model ----------------------------------------------------------

    def _beacon(self, peer_id: int) -> None:
        """Periodic GPSR HELLO broadcast (pure cost accounting).

        Neighbor tables still come from the ground-truth index; the
        beacon only charges the traffic and energy real beaconing would
        cost, so energy results can include it when desired.
        """
        if self.network.is_alive(peer_id):
            beacon = Packet(
                payload=("hello", peer_id),
                size_bytes=HELLO_BEACON_BYTES,
                src=peer_id,
                category="beacon",
            )
            self.network.broadcast(peer_id, beacon)

    # -- popularity prefetching (ref. [14] extension) --------------------------------------

    def _prefetch(self, peer_id: int) -> None:
        """Periodically pull the hottest uncached regional keys."""
        if self.network.is_alive(peer_id):
            peer = self.peers[peer_id]
            for key in peer.prefetch_candidates(PREFETCH_BATCH, PREFETCH_MIN_COUNT):
                peer.prefetch(key)

    # -- churn (node disconnections; paper future work) ---------------------------------
    #
    # Each peer alternates between connected and disconnected states.
    # Up-times and down-times are exponential; each departure is graceful
    # (keys handed off first) or a crash, with probability CHURN_CRASH_FRACTION.

    def _churn_up(self, peer_id: int) -> None:
        """The peer is connected: draw its up-time, schedule its departure."""
        uptime = float(self.rngs.get("churn").exponential(self.cfg.churn_uptime))
        self.sim.schedule(uptime, self._churn_depart, peer_id)

    def _churn_depart(self, peer_id: int) -> None:
        cfg = self.cfg
        rng = self.rngs.get("churn")
        peer = self.peers[peer_id]
        graceful = bool(rng.random() >= CHURN_CRASH_FRACTION)
        peer.prepare_departure(graceful)
        self.network.fail_node(peer_id)
        self.stats.count("churn.departures")
        if graceful:
            self.stats.count("churn.graceful")
        downtime = float(rng.exponential(cfg.churn_downtime))
        self.sim.schedule(downtime, self._churn_rejoin, peer_id)

    def _rejoin(self, peer_id: int) -> None:
        """Reconnect a departed peer: revive its radio and, if it stands
        in a region, rejoin it there (churn rejoins, fault recoveries)."""
        self.network.revive_node(peer_id)
        new_region = self.network.region_column()[peer_id]
        if new_region >= 0:
            self._region_of_peer[peer_id] = new_region
            self.peers[peer_id].on_rejoin(new_region)

    def _churn_rejoin(self, peer_id: int) -> None:
        self._rejoin(peer_id)
        self.stats.count("churn.rejoins")
        self._churn_up(peer_id)

    # -- mobility sweep ----------------------------------------------------------------

    def _region_sweep(self) -> None:
        """Periodic position check for inter-region mobility (§2.3)."""
        ids = np.array(self.network.region_column(), dtype=np.intp)
        changed = np.flatnonzero(
            (ids != self._region_of_peer) & (ids >= 0) & self.network.alive
        )
        self._region_of_peer = np.where(ids >= 0, ids, self._region_of_peer)
        for peer_id in changed:
            self.peers[int(peer_id)].on_region_change(int(ids[peer_id]))
            self.stats.count("peer.region_changes")

    # -- run control -------------------------------------------------------------------------

    def _end_warmup(self) -> None:
        self.metrics.reset()
        self.stats.reset()
        self.network.energy.reset()
        self.network.reset_uptime()

    def run(self) -> RunReport:
        """Execute the configured simulation and return its report."""
        if self._ran:
            raise RuntimeError("PReCinCtNetwork.run() may only be called once")
        self._ran = True
        cfg = self.cfg
        sampler = ZipfSampler(cfg.n_items, cfg.zipf_theta, self.rngs.get("zipf"))
        update_sampler = ZipfSampler(
            cfg.n_items, UPDATE_ZIPF_THETA, self.rngs.get("zipf-updates")
        )
        self.read_sampler = sampler
        if cfg.popularity_shift_at is not None:
            def shift() -> None:
                sampler.reshuffle()
                self.stats.count("workload.popularity_shift")
                self.trace("workload.popularity_shift")

            self.sim.schedule(cfg.popularity_shift_at, shift)
        WorkloadGenerator(
            self.sim,
            cfg.n_nodes,
            sampler,
            rng=self.rngs.get("workload"),
            t_request=cfg.t_request,
            t_update=cfg.t_update,
            on_request=lambda peer, key: self.peers[peer].request(key),
            on_update=lambda peer, key: self.peers[peer].update(key),
            stop_at=cfg.duration,
            update_sampler=update_sampler,
        )
        # Timer start order is part of the run's identity: it fixes the
        # event sequence numbers and the order of the RNG draws.
        if cfg.max_speed and cfg.max_speed > 0:
            self._every(REGION_CHECK_INTERVAL, self._region_sweep)
        if (cfg.max_speed and cfg.max_speed > 0) or cfg.churn_uptime is not None:
            self._every(CUSTODY_REPAIR_INTERVAL, self.repair_custody)
        if cfg.churn_uptime is not None:
            for peer_id in range(cfg.n_nodes):
                self.sim.schedule(0.0, self._churn_up, peer_id)
        if cfg.enable_digest:
            rng = self.rngs.get("digest")
            for peer_id in range(cfg.n_nodes):
                self._every(cfg.digest_interval, self._announce_digest, peer_id, rng=rng)
        if cfg.enable_prefetch:
            rng = self.rngs.get("prefetch")
            for peer_id in range(cfg.n_nodes):
                self._every(cfg.prefetch_interval, self._prefetch, peer_id, rng=rng)
        if cfg.gpsr_beacon_interval is not None:
            rng = self.rngs.get("beacons")
            for peer_id in range(cfg.n_nodes):
                self._every(cfg.gpsr_beacon_interval, self._beacon, peer_id, rng=rng)
        if cfg.warmup > 0:
            self.sim.schedule(cfg.warmup, self._end_warmup)
        if self.telemetry is not None:
            self.telemetry.start()
        try:
            self.sim.run(until=cfg.duration)
        finally:
            # Final catch-up sample, live-sink end marker, last
            # dashboard frame — also on crash, so a live export is
            # never left without its terminator.
            self.observers.finish()
        return self.report()

    def report(self, label: Optional[str] = None) -> RunReport:
        if label is None:
            label = (
                f"precinct[{self.cfg.replacement_policy},{self.cfg.consistency},"
                f"n={self.cfg.n_nodes},R={self.cfg.n_regions}]"
            )
        measured = self.cfg.duration - self.cfg.warmup
        return RunReport.from_run(
            label,
            duration=measured,
            metrics=self.metrics,
            stats=self.stats,
            energy_total_uj=self.network.energy.total()
            + self.network.idle_energy_uj(),
            eventlog_dropped=self.log.dropped if self.log is not None else 0,
        )
