"""The flooding and expanding-ring retrieval baselines (§1, §5.2.1).

Protocol
--------
A requester floods a :class:`FloodRequest` with path recording.  The
data owner (each key is custodied by exactly one peer — there are no
regions and no cooperative caching here) answers the first copy it sees
with a :class:`ReversePathResponse` that unwinds the recorded path one
point-to-point hop at a time — exactly the cost structure of the paper's
eq. 11 (``N`` broadcast processings + ``I`` p2p hops back).

The *expanding ring* variant floods with TTL 1, and on timeout retries
with doubled TTL until the maximum is reached (Lv et al. [12]) — saving
energy when the data is nearby at the cost of repeated rounds.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, Tuple

from repro.analysis.metrics import RequestMetrics, RunReport
from repro.config import SimulationConfig
from repro.core.network import build_radio
from repro.net.packet import Packet
from repro.routing import NetworkStack
from repro.sim import RngRegistry, Simulator, StatRegistry
from repro.workload import Database, WorkloadGenerator, ZipfSampler

__all__ = ["FloodingConfig", "FloodingRetrievalNetwork"]

_request_ids = itertools.count(1)


@dataclass
class FloodRequest:
    """Network-wide (or TTL-bounded) search for a key."""

    request_id: int
    requester: int
    key: int
    size_bytes: float = 64.0


@dataclass
class ReversePathResponse:
    """The data item unwinding the recorded flood path hop by hop.

    ``path`` is the forwarder chain recorded by the flood (origin
    first); ``next_index`` points at the hop to visit next, walking the
    path backwards to the requester.
    """

    request_id: int
    key: int
    requester: int
    path: Tuple[int, ...]
    next_index: int
    data_size: float
    size_bytes: float = 0.0

    def __post_init__(self) -> None:
        if self.size_bytes == 0.0:
            self.size_bytes = 64.0 + self.data_size


@dataclass(frozen=True)
class FloodingConfig:
    """Knobs specific to the baseline (shares SimulationConfig otherwise)."""

    #: Use the expanding-ring TTL ladder instead of one full flood.
    expanding_ring: bool = False
    #: First TTL of the ladder.
    initial_ttl: int = 1
    #: TTL multiplier per round.
    ttl_factor: int = 2
    #: Give up beyond this TTL (also the TTL of the final, full flood).
    max_ttl: int = 16
    #: Per-round wait before enlarging the ring (s).
    round_timeout: float = 1.0


@dataclass
class _Pending:
    request_id: int
    key: int
    requester: int
    issued_at: float
    size_bytes: float
    ttl: int
    timeout_handle: object = None


class FloodingRetrievalNetwork:
    """The flooding baseline wired to the shared substrates."""

    def __init__(self, cfg: SimulationConfig, flood_cfg: FloodingConfig = FloodingConfig()):
        self.cfg = cfg
        self.flood_cfg = flood_cfg
        self.sim = Simulator()
        self.rngs = RngRegistry(cfg.seed)
        self.stats = StatRegistry()
        self.metrics = RequestMetrics()
        self.network = build_radio(cfg, self.sim, self.rngs, self.stats)
        self.mobility = self.network.mobility
        self.stack = NetworkStack(self.network)
        self.stack.set_app_handler(self._dispatch)
        self.db = Database(
            cfg.n_items,
            rng=self.rngs.get("database"),
            min_size_bytes=cfg.min_item_bytes,
            max_size_bytes=cfg.max_item_bytes,
        )
        # One owner per key, assigned uniformly (no regions here).
        owner_rng = self.rngs.get("owners")
        self._owner_of = owner_rng.integers(0, cfg.n_nodes, size=cfg.n_items)
        self._owned: Dict[int, set] = {i: set() for i in range(cfg.n_nodes)}
        for key, owner in enumerate(self._owner_of):
            self._owned[int(owner)].add(key)
        self._pending: Dict[int, _Pending] = {}
        self._answered: set = set()
        self._ran = False

    # -- requester side ------------------------------------------------------

    def request(self, peer_id: int, key: int) -> None:
        self.metrics.on_request_issued()
        size = self.db.size_of(key)
        if key in self._owned[peer_id]:
            self.metrics.on_served("local-static", 0.0, size, stale=False, validated=True)
            return
        request_id = next(_request_ids)
        ttl = self.flood_cfg.initial_ttl if self.flood_cfg.expanding_ring else -1
        pending = _Pending(request_id, key, peer_id, self.sim.now, size, ttl)
        self._pending[request_id] = pending
        self._flood_round(peer_id, pending)

    def _flood_round(self, peer_id: int, pending: _Pending) -> None:
        msg = FloodRequest(pending.request_id, peer_id, pending.key)
        ttl = pending.ttl if pending.ttl >= 0 else None
        self.stack.flood_send(
            peer_id,
            msg,
            msg.size_bytes,
            ttl=ttl,
            record_path=True,
            category="request",
        )
        timeout = (
            self.flood_cfg.round_timeout
            if self.flood_cfg.expanding_ring
            else self.cfg.home_timeout
        )
        pending.timeout_handle = self.sim.schedule(
            timeout, self._on_timeout, pending.request_id
        )

    def _on_timeout(self, request_id: int) -> None:
        pending = self._pending.get(request_id)
        if pending is None:
            return
        if self.flood_cfg.expanding_ring and pending.ttl < self.flood_cfg.max_ttl:
            # Enlarge the ring and retry (Lv et al.).
            pending.ttl = min(
                pending.ttl * self.flood_cfg.ttl_factor, self.flood_cfg.max_ttl
            )
            self._flood_round(pending.requester, pending)
            return
        del self._pending[request_id]
        self.metrics.on_request_failed()

    # -- dispatch ---------------------------------------------------------------

    def _dispatch(self, node_id: int, inner, packet: Packet) -> None:
        if isinstance(inner, FloodRequest):
            self._on_flood_request(node_id, inner, packet)
        elif isinstance(inner, ReversePathResponse):
            self._on_response_hop(node_id, inner)

    def _on_flood_request(self, node_id: int, msg: FloodRequest, packet: Packet) -> None:
        if msg.key not in self._owned[node_id]:
            return
        # Answer each logical request only once (duplicate floods from
        # expanding-ring retries carry the same request_id).
        answer_key = (msg.request_id, node_id)
        if answer_key in self._answered:
            return
        self._answered.add(answer_key)
        envelope = packet.payload  # FloodEnvelope with the recorded path
        path = tuple(envelope.path)
        response = ReversePathResponse(
            request_id=msg.request_id,
            key=msg.key,
            requester=msg.requester,
            path=path,
            next_index=len(path) - 1,
            data_size=self.db.size_of(msg.key),
        )
        self._forward_response(node_id, response)

    def _forward_response(self, node_id: int, msg: ReversePathResponse) -> None:
        """Send the response one hop back along the recorded path."""
        while msg.next_index >= 0:
            target = msg.path[msg.next_index]
            msg.next_index -= 1
            if target == node_id:
                continue
            if self.stack.direct_send(
                node_id, target, msg, msg.size_bytes, category="response"
            ):
                return
            # Hop gone (moved/died): try the next-older node on the path.
            self.stats.count("baseline.path_break")
        # Path fully broken before reaching the requester: drop; the
        # requester's timeout will fire.
        self.stats.count("baseline.response_lost")

    def _on_response_hop(self, node_id: int, msg: ReversePathResponse) -> None:
        if node_id == msg.requester:
            pending = self._pending.pop(msg.request_id, None)
            if pending is None:
                return
            if pending.timeout_handle is not None:
                self.sim.cancel(pending.timeout_handle)
            latency = self.sim.now - pending.issued_at
            self.metrics.on_served(
                "home", latency, msg.data_size, stale=False, validated=True
            )
            return
        self._forward_response(node_id, msg)

    # -- run control -------------------------------------------------------------

    def run(self) -> RunReport:
        if self._ran:
            raise RuntimeError("run() may only be called once")
        self._ran = True
        cfg = self.cfg
        sampler = ZipfSampler(cfg.n_items, cfg.zipf_theta, self.rngs.get("zipf"))
        WorkloadGenerator(
            self.sim,
            cfg.n_nodes,
            sampler,
            rng=self.rngs.get("workload"),
            t_request=cfg.t_request,
            on_request=self.request,
            stop_at=cfg.duration,
        )
        if cfg.warmup > 0:
            self.sim.schedule(cfg.warmup, self._end_warmup)
        self.sim.run(until=cfg.duration)
        mode = "expanding-ring" if self.flood_cfg.expanding_ring else "flooding"
        return RunReport.from_run(
            f"{mode}[n={cfg.n_nodes}]",
            duration=cfg.duration - cfg.warmup,
            metrics=self.metrics,
            stats=self.stats,
            energy_total_uj=self.network.energy.total(),
        )

    def _end_warmup(self) -> None:
        self.metrics.reset()
        self.stats.reset()
        self.network.energy.reset()
