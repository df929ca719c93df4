"""The PReCinCt peer protocol (paper §2-§4, algorithm of Fig. 1).

Each :class:`Peer` owns

* a **static store** — the set of keys homed (or replicated) in its
  region that it custodians; values are authoritative,
* a **dynamic cache** — :class:`~repro.core.cache.PeerCache` holding
  opportunistically cached copies under GD-LD/GD-Size replacement,
* an **observed access table** — per-key counts of requests seen in the
  peer's region, feeding GD-LD's popularity term,
* a table of **pending requests** — the search state machine.

Search state machine (Fig. 1)
-----------------------------
::

    request(k):
      own static store? ——— serve (local-static)
      own cache, fresh?  —— serve (local-cache)       [scheme may demand a
      own cache, stale TTR — POLL home region ———————— validation poll first]
      else ——— LOCAL: flood request in own region, wait local_timeout
                  |—— response  → serve (regional)
                  |—— timeout   → HOME: GPSR to home region (point of
                       broadcast floods within the region), wait home_timeout
                          |—— response → serve (home)     [en-route caches may
                          |—— timeout  → REPLICA: retry     intercept and serve]
                               second-closest region, wait replica_timeout
                                  |—— response → serve (replica)
                                  |—— timeout  → FAILED

Inter-region mobility (§2.3): a sweep in the network facade detects
region crossings; the departing peer hands its static keys to the
region member closest to the region center (the paper's low-mobility /
central / has-space heuristic), via a :class:`KeyHandoff` message.
While the handoff is in flight the keys are unavailable at the home
region and requests fail over to the replica region (§2.4).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Optional, Set

from repro.core.cache import CachedCopy, PeerCache
from repro.core.messages import (
    CONTROL_BYTES,
    DataResponse,
    HomeRequest,
    Invalidation,
    KeyHandoff,
    LocalRequest,
    Poll,
    PollReply,
    UpdatePush,
    next_request_id,
)

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from repro.core.network import PReCinCtNetwork

__all__ = ["Peer", "PendingRequest"]

# Search phases.
PHASE_LOCAL = "local"
PHASE_HOME = "home"
PHASE_REPLICA = "replica"
PHASE_POLL = "poll"


@dataclass
class PendingRequest:
    """Requester-side state of one in-flight request."""

    request_id: int
    key: int
    issued_at: float
    phase: str
    size_bytes: float
    timeout_handle: object = None
    #: For PHASE_POLL: the version being validated with the home region.
    poll_version: int = 0
    #: For PHASE_POLL after a remote serve (Pull-Every-time): the serve
    #: class to record if the copy validates, e.g. "regional".
    serve_class: Optional[str] = None
    #: Poll attempts so far (0 = home region; 1 = replica region).
    poll_retries: int = 0
    #: Set once validation proved impossible (home and replica both
    #: unresponsive): accept the next response unvalidated rather than
    #: looping forever — the owner is gone, strong validation cannot
    #: succeed.
    no_validate: bool = False
    #: True for proactive prefetch fetches (ref. [14]): network costs
    #: are charged but user-facing metrics are not touched.
    prefetch: bool = False
    #: The request's :class:`repro.obs.tracer.Trace` when tracing is
    #: enabled (None otherwise; prefetches are never traced).
    trace: object = None
    #: In-phase retries sent so far (resilience layer; reset per phase).
    attempts: int = 0
    #: Absolute fail-fast deadline (``issued_at + request_deadline``);
    #: None when the resilience layer is off or for prefetches.
    deadline: Optional[float] = None
    #: True once the circuit breaker steered this request around its
    #: suspected home region: a replica serve is then classed "degraded".
    degraded: bool = False
    #: True when this request is the half-open breaker probe for its
    #: home region: its outcome decides whether the breaker closes.
    probe: bool = False


class Peer:
    """One mobile peer running the PReCinCt protocol."""

    def __init__(self, peer_id: int, host: "PReCinCtNetwork", cache: PeerCache):
        self.id = peer_id
        self.host = host
        self._cfg = host.cfg
        self.cache = cache
        #: Keys this peer custodians (authoritative copies).
        self.static_keys: Set[int] = set()
        #: Per-key access counts observed in the current region (GD-LD ac).
        self.observed_access: Dict[int, int] = {}
        self.current_region_id: int = -1
        self.pending: Dict[int, PendingRequest] = {}
        #: Regional members' cache digests (Summary-Cache optimization);
        #: None unless cfg.enable_digest.
        self.digests = None
        if host.cfg.enable_digest:
            from repro.core.digest import RegionDigestView

            self.digests = RegionDigestView(ttl=3.0 * host.cfg.digest_interval)

    # -- small helpers ------------------------------------------------------

    @property
    def _sim(self):
        return self.host.sim

    def _note_access(self, key: int) -> int:
        """Record one observed access to ``key`` in this region."""
        count = self.observed_access.get(key, 0) + 1
        self.observed_access[key] = count
        entry = self.cache.get(key)
        if entry is not None:
            entry.access_count = count
        return count

    def _position(self):
        return self.host.position_of(self.id)

    # -- static store (custody) accounting ---------------------------------

    def static_bytes(self) -> float:
        """Bytes currently held in the static store."""
        db = self.host.db
        return float(sum(db.size_of(k) for k in self.static_keys))

    def static_capacity(self) -> float:
        """Static-store budget (inf when unbounded, the default)."""
        fraction = self._cfg.static_capacity_fraction
        if fraction is None:
            return float("inf")
        return fraction * self.host.db.total_bytes

    def accept_static_keys(self, keys) -> list:
        """Take custody of ``keys`` up to the static budget (§3.1).

        Returns the overflow — keys that did not fit — for the caller
        to spill elsewhere.  Keys are accepted smallest-first so a
        nearly full store still absorbs as much custody as possible.
        """
        db = self.host.db
        budget = self.static_capacity()
        if budget != math.inf:
            budget -= self.static_bytes()
        overflow = []
        for key in sorted(keys, key=db.size_of):
            if key in self.static_keys:
                continue
            size = db.size_of(key)
            if size <= budget:
                self.static_keys.add(key)
                budget -= size
            else:
                overflow.append(key)
        return overflow

    # ======================================================================
    # Requester side
    # ======================================================================

    def request(self, key: int) -> None:
        """Issue a read for ``key`` (workload entry point; Fig. 1 Search)."""
        now = self._sim.now
        size = self.host.db.size_of(key)
        self.host.metrics.on_request_issued()
        self.host.trace("request.issued", peer=self.id, key=key)
        self._note_access(key)
        tracer = self.host.tracer
        rtrace = tracer.begin(self.id, key) if tracer is not None else None

        # 1. Own static store: authoritative, zero network cost.
        if key in self.static_keys:
            self.host.metrics.on_served(
                "local-static", 0.0, size, stale=False, validated=True
            )
            self.host.trace("request.served", peer=self.id, key=key,
                            serve_class="local-static", latency=0.0)
            if tracer is not None:
                tracer.point(rtrace, "cache.lookup", peer=self.id,
                             result="static")
                tracer.finish(rtrace, "local-static")
            return

        entry = self.cache.hit(key, now) if self._cfg.enable_cache else None
        if entry is not None:
            if self.host.scheme.needs_validation(entry, now):
                if tracer is not None:
                    tracer.point(rtrace, "cache.lookup", peer=self.id,
                                 result="hit-needs-validation")
                self._start_poll(key, entry, size, now, trace=rtrace)
                return
            stale = entry.version < self.host.db.version_of(key)
            self.host.metrics.on_served(
                "local-cache", 0.0, size, stale=stale, validated=False
            )
            self.host.trace("request.served", peer=self.id, key=key,
                            serve_class="local-cache", latency=0.0, stale=stale)
            if tracer is not None:
                tracer.point(rtrace, "cache.lookup", peer=self.id,
                             result="hit-fresh")
                tracer.finish(rtrace, "local-cache")
            return

        if tracer is not None:
            tracer.point(rtrace, "cache.lookup", peer=self.id, result="miss")

        # 2. Not locally available: search the region, then the home region.
        if self._cfg.enable_cache:
            if self.digests is not None and not self.digests.possibly_in_region(
                key, now
            ):
                # Summary-Cache shortcut: every fresh regional digest
                # rules the key out, so the local flood cannot succeed.
                self.host.stats.count("digest.local_skipped")
                self._start_home_search(
                    key, size, now, searched_locally=False, trace=rtrace
                )
                return
            self._start_local_search(key, size, now, trace=rtrace)
        else:
            # §5.2.2 analytical setting: no caching, straight to the
            # home region.
            self._start_home_search(
                key, size, now, searched_locally=False, trace=rtrace
            )

    # -- phase transitions -----------------------------------------------------

    def _effective_timeout(self, pending: PendingRequest, timeout: float) -> float:
        """Clamp a phase timer to the request's remaining deadline budget."""
        if pending.deadline is None:
            return timeout
        return min(timeout, max(pending.deadline - self._sim.now, 0.0))

    def _register(self, pending: PendingRequest, timeout: float) -> None:
        res = self.host.resilience
        if res is not None and not pending.prefetch:
            pending.deadline = res.deadline_for(pending.issued_at)
        self.pending[pending.request_id] = pending
        pending.timeout_handle = self._sim.schedule(
            self._effective_timeout(pending, timeout),
            self._on_timeout, pending.request_id, pending.phase,
        )
        if pending.trace is not None:
            tracer = self.host.tracer
            tracer.bind(pending.trace, pending.request_id)
            tracer.phase(pending.trace, pending.phase)

    def _retarget(self, pending: PendingRequest, phase: str, timeout: float) -> None:
        if pending.timeout_handle is not None:
            self._sim.cancel(pending.timeout_handle)
        pending.phase = phase
        pending.attempts = 0  # the retry budget is per phase
        pending.timeout_handle = self._sim.schedule(
            self._effective_timeout(pending, timeout),
            self._on_timeout, pending.request_id, phase,
        )
        if pending.trace is not None:
            self.host.tracer.phase(pending.trace, phase)

    def _finish(self, request_id: int) -> Optional[PendingRequest]:
        pending = self.pending.pop(request_id, None)
        if pending is not None and pending.timeout_handle is not None:
            self._sim.cancel(pending.timeout_handle)
        res = self.host.resilience
        if res is not None:
            res.note_done(request_id)
        return pending

    def _start_local_search(
        self, key: int, size: float, now: float, trace=None
    ) -> None:
        request_id = next_request_id()
        pending = PendingRequest(request_id, key, now, PHASE_LOCAL, size,
                                 trace=trace)
        self._register(pending, self._cfg.local_timeout)
        msg = LocalRequest(request_id, self.id, self._position(), key)
        if trace is not None:
            self.host.tracer.point(trace, "region.flood", peer=self.id,
                                   region=self.current_region_id)
        self.host.stack.flood_send(
            self.id, msg, msg.size_bytes, region=self.current_region_id,
            category="request",
        )

    def _start_home_search(
        self,
        key: int,
        size: float,
        now: float,
        request_id: Optional[int] = None,
        searched_locally: bool = True,
        category: str = "request",
        trace=None,
    ) -> None:
        if request_id is None:
            request_id = next_request_id()
            pending = PendingRequest(request_id, key, now, PHASE_HOME, size,
                                     trace=trace)
            self._register(pending, self._cfg.home_timeout)
        home = self.host.key_regions[key][0]
        pending = self.pending.get(request_id)
        if pending is not None and pending.trace is not None:
            self.host.tracer.point(
                pending.trace, "geohash.resolve", peer=self.id,
                home=home.region_id,
            )
        probe = False
        res = self.host.resilience
        if (
            res is not None
            and pending is not None
            and not pending.prefetch
            and self._cfg.enable_replication
            and home.region_id != self.current_region_id
        ):
            verdict = res.route_home(home.region_id, self._sim.now)
            if verdict == "steer":
                # Breaker open: the home region is suspected — skip its
                # timeout entirely and degrade straight to the replica.
                pending.degraded = True
                if pending.trace is not None:
                    self.host.tracer.point(
                        pending.trace, "failover.breaker_open", peer=self.id,
                        region=home.region_id,
                    )
                self._go_replica(pending)
                return
            if verdict == "probe":
                probe = True
                pending.probe = True
                if pending.trace is not None:
                    self.host.tracer.point(
                        pending.trace, "resilience.probe", peer=self.id,
                        region=home.region_id,
                    )
        msg = HomeRequest(request_id, self.id, self._position(), key,
                          home.region_id, probe=probe)
        if home.region_id == self.current_region_id:
            if searched_locally:
                # The local flood already searched the home region; the
                # data is simply absent there — go straight to the replica.
                self.host.stats.count("request.home_skipped")
                self._go_replica(self.pending[request_id])
            else:
                # No-cache mode skipped the local search: the home region
                # is our own, so resolve by localized flooding here.
                if pending is not None and pending.trace is not None:
                    self.host.tracer.point(
                        pending.trace, "region.flood", peer=self.id,
                        region=home.region_id,
                    )
                self.host.stack.flood_send(
                    self.id,
                    msg,
                    msg.size_bytes,
                    region=home.region_id,
                    category=category,
                )
                if pending is not None and pending.phase == PHASE_HOME:
                    self._arm_retransmit(pending, PHASE_HOME)
            return
        self.host.stack.geo_send(
            self.id,
            msg,
            msg.size_bytes,
            dest_point=home.center,
            region=home.region_id,
            category=category,
        )
        if pending is not None and pending.phase == PHASE_HOME:
            self._arm_retransmit(pending, PHASE_HOME)

    def _go_replica(self, pending: PendingRequest) -> None:
        if not self._cfg.enable_replication:
            self._fail(pending)
            return
        self._retarget(pending, PHASE_REPLICA, self._cfg.replica_timeout)
        replica = self.host.key_regions[pending.key][1]
        if pending.trace is not None:
            self.host.tracer.point(
                pending.trace, "failover.replica", peer=self.id,
                region=replica.region_id,
            )
        if replica.region_id == self.current_region_id:
            self._fail(pending)
            return
        self._send_replica(pending, replica)

    def _send_replica(self, pending: PendingRequest, replica=None) -> None:
        """(Re-)send the replica-phase request (first shot or retry)."""
        if replica is None:
            replica = self.host.key_regions[pending.key][1]
        msg = HomeRequest(
            pending.request_id,
            self.id,
            self._position(),
            pending.key,
            replica.region_id,
            to_replica=True,
        )
        self.host.stack.geo_send(
            self.id,
            msg,
            msg.size_bytes,
            dest_point=replica.center,
            region=replica.region_id,
            category="request",
        )
        self._arm_retransmit(pending, PHASE_REPLICA)

    def _fail(self, pending: PendingRequest, reason: str = "exhausted") -> None:
        self._finish(pending.request_id)
        if pending.prefetch:
            self.host.stats.count("prefetch.failed")
            return
        self.host.metrics.on_request_failed()
        if reason == "exhausted":
            # The classic ladder ran out of phases.  (Field set kept
            # exactly as before the resilience layer so resilience-off
            # event-log digests stay bit-identical.)
            self.host.trace("request.failed", peer=self.id, key=pending.key)
        else:
            self.host.trace("request.failed", peer=self.id, key=pending.key,
                            reason=reason)
        if pending.trace is not None:
            self.host.tracer.finish(pending.trace, "failed", pending.request_id)
        recorder = self.host.recorder
        if recorder is not None:
            recorder.dump(
                "request-failed",
                context={"peer": self.id, "key": pending.key,
                         "request_id": pending.request_id,
                         "issued_at": pending.issued_at,
                         "reason": reason},
                trace=pending.trace,
                sim_time=self._sim.now,
            )

    def _arm_retransmit(self, pending: PendingRequest, phase: str) -> None:
        """Arm the next hedged retransmit of the current remote phase.

        Retries are *hedged*: they fire on a backoff schedule INSIDE the
        running phase window while the phase timer keeps its classic
        deadline-clamped schedule.  Each retransmission is a fresh
        chance for a request (or its response) that an unreliable
        channel ate, without ever delaying the ladder's escalation to
        the next phase — so failure-detection latency is never worse
        than with retries off.  Probes never retransmit (their one-shot
        outcome is the breaker's recovery signal) and neither do
        prefetches.
        """
        res = self.host.resilience
        if res is None or pending.prefetch or pending.probe:
            return
        attempt = pending.attempts + 1
        if attempt > res.retries:
            return
        self._sim.schedule(
            res.retry_delay(attempt),
            self._retransmit, pending.request_id, phase, attempt,
        )

    def _retransmit(self, request_id: int, phase: str, attempt: int) -> None:
        """Backoff elapsed: re-send the phase request if still live."""
        pending = self.pending.get(request_id)
        if pending is None or pending.phase != phase:
            return  # served, failed, or escalated while backing off
        res = self.host.resilience
        if res is None:
            return
        pending.attempts = attempt
        self.host.stats.count("resilience.retry")
        res.note_retry(request_id, attempt)
        if pending.trace is not None:
            self.host.tracer.point(
                pending.trace, "retry.backoff", peer=self.id, phase=phase,
                attempt=attempt,
            )
        if phase == PHASE_HOME:
            # Re-sends re-consult the breaker: a hedge can become the
            # half-open probe or be steered to the replica mid-phase.
            # The senders arm the next retransmit of the chain.
            self._start_home_search(
                pending.key, pending.size_bytes, pending.issued_at, request_id
            )
        else:
            self._send_replica(pending)

    def _on_timeout(self, request_id: int, phase: str) -> None:
        pending = self.pending.get(request_id)
        if pending is None or pending.phase != phase:
            # Dead-handle churn: the request was served or moved phases
            # (route-drop fail-fast) before this timer fired.
            self.host.stats.count("request.timeout.stale")
            return
        now = self._sim.now
        res = self.host.resilience
        if phase == PHASE_HOME and res is not None and not pending.prefetch:
            home = self.host.key_regions[pending.key][0]
            if home.region_id != self.current_region_id:
                # One liveness datapoint for the failure detector.  A
                # timed-out probe is the breaker's recovery verdict.
                if pending.probe:
                    res.on_probe_result(home.region_id, False, now)
                else:
                    res.on_home_timeout(home.region_id, now)
        if (
            res is not None
            and pending.deadline is not None
            and now >= pending.deadline - 1e-9
        ):
            self.host.stats.count("resilience.deadline_exceeded")
            self._fail(pending, reason="deadline-exceeded")
            return
        if phase == PHASE_LOCAL:
            self._retarget(pending, PHASE_HOME, self._cfg.home_timeout)
            self._start_home_search(
                pending.key, pending.size_bytes, pending.issued_at, request_id
            )
        elif phase == PHASE_HOME:
            self._go_replica(pending)
        elif phase == PHASE_REPLICA:
            self._fail(pending)
        elif phase == PHASE_POLL:
            self._on_poll_timeout(pending)

    # -- response handling ---------------------------------------------------

    def on_response(self, msg: DataResponse) -> None:
        pending = self.pending.get(msg.request_id)
        if pending is None or pending.phase == PHASE_POLL:
            return  # duplicate response; first one won
        now = self._sim.now
        res = self.host.resilience
        if res is not None and pending.phase == PHASE_HOME:
            home = self.host.key_regions[msg.key][0]
            if (
                msg.responder_region_id == home.region_id
                and home.region_id != self.current_region_id
            ):
                # The actual home region answered in time: decay its
                # suspicion (intercept/regional serves prove nothing
                # about the region itself, so they don't count).
                res.on_home_success(home.region_id, now)
                if pending.probe:
                    res.on_probe_result(home.region_id, True, now)
        if pending.prefetch:
            # Prefetch completion: cache the data, touch no user metrics.
            self._finish(msg.request_id)
            self.host.stats.count("prefetch.completed")
            self._maybe_cache(msg, now)
            return
        latency = now - pending.issued_at
        serve_class = {
            PHASE_LOCAL: "regional",
            PHASE_HOME: "home",
            PHASE_REPLICA: "replica",
        }[pending.phase]
        if pending.phase in (PHASE_HOME, PHASE_REPLICA):
            if msg.responder_region_id == self.current_region_id:
                # A same-region peer intercepted the geo-routed request.
                serve_class = "regional"
            else:
                home, replica = self.host.key_regions[msg.key]
                target = home if pending.phase == PHASE_HOME else replica
                if msg.responder_region_id != target.region_id:
                    # Served by an en-route cache on the GPSR path (§3.1).
                    serve_class = "intercept"
        if serve_class == "replica" and pending.degraded:
            # The breaker steered this request around its suspected home
            # region; surface the degraded service explicitly.
            serve_class = "degraded"
        if (
            self.host.scheme.must_validate_response(msg.authoritative, msg.fresh)
            and not pending.no_validate
        ):
            # The scheme demands validation before consuming this copy
            # (Pull-Every-time: any cached copy; PwAP: TTR-expired ones).
            self._retarget(pending, PHASE_POLL, self._cfg.poll_timeout)
            pending.poll_version = msg.version
            pending.serve_class = serve_class
            pending.size_bytes = msg.data_size
            self._maybe_cache(msg, now, trace=pending.trace)
            self._send_poll(pending)
            return
        self._finish(msg.request_id)
        # A response straight from a custodian's static store counts as
        # validated (it came from the owner); only cache-served copies
        # can deliver stale data.
        if msg.authoritative:
            self.host.metrics.on_served(
                serve_class, latency, msg.data_size, stale=False, validated=True
            )
            stale = False
        else:
            stale = msg.version < self.host.db.version_of(msg.key)
            self.host.metrics.on_served(
                serve_class, latency, msg.data_size, stale=stale, validated=False
            )
        self.host.trace("request.served", peer=self.id, key=msg.key,
                        serve_class=serve_class, latency=latency, stale=stale)
        if pending.trace is not None:
            self.host.tracer.finish(pending.trace, serve_class, msg.request_id)
        self._maybe_cache(msg, now, trace=pending.trace)

    def _maybe_cache(self, msg: DataResponse, now: float, trace=None) -> None:
        """Cache admission control + replacement (Fig. 1)."""
        if not self._cfg.enable_cache:
            return
        if self._cfg.admission_control and not PeerCache.should_admit(
            msg.responder_region_id, self.current_region_id
        ):
            return
        if msg.key in self.static_keys:
            return  # already authoritative
        reg_dst = self.host.table.center_distance(
            self.current_region_id, msg.responder_region_id
        )
        entry = CachedCopy(
            key=msg.key,
            size_bytes=msg.data_size,
            version=msg.version,
            access_count=self.observed_access.get(msg.key, 1),
            region_distance=reg_dst,
            ttr=msg.ttr,
            validated_at=now,
            last_access=now,
        )
        evicted = self.cache.insert(entry, now)
        if trace is not None:
            tracer = self.host.tracer
            tracer.point(trace, "cache.admit", peer=self.id, key=msg.key,
                         size=msg.data_size)
            for victim in evicted:
                tracer.point(trace, "cache.evict", peer=self.id, key=victim)

    # -- validation polls ---------------------------------------------------------

    def _start_poll(
        self, key: int, entry: CachedCopy, size: float, now: float, trace=None
    ) -> None:
        request_id = next_request_id()
        pending = PendingRequest(
            request_id, key, now, PHASE_POLL, size, poll_version=entry.version,
            trace=trace,
        )
        self._register(pending, self._cfg.poll_timeout)
        self._send_poll(pending)

    def _send_poll(self, pending: PendingRequest) -> None:
        home, replica = self.host.key_regions[pending.key]
        # First attempt polls the home region; the retry polls the
        # replica region (§2.4 failover applies to all traffic classes).
        target = home if pending.poll_retries == 0 else replica
        if pending.trace is not None:
            self.host.tracer.point(
                pending.trace, "consistency.poll", peer=self.id,
                region=target.region_id, retry=pending.poll_retries,
            )
        msg = Poll(
            pending.request_id,
            self.id,
            self._position(),
            pending.key,
            pending.poll_version,
        )
        if target.region_id == self.current_region_id:
            # The custodian is a regional neighbor: poll by regional flood.
            self.host.stack.flood_send(
                self.id,
                msg,
                msg.size_bytes,
                region=target.region_id,
                category="consistency",
            )
        else:
            self.host.stack.geo_send(
                self.id,
                msg,
                msg.size_bytes,
                dest_point=target.center,
                region=target.region_id,
                category="consistency",
            )

    def on_poll_reply(self, msg: PollReply) -> None:
        pending = self.pending.get(msg.request_id)
        if pending is None or pending.phase != PHASE_POLL:
            return
        self._finish(msg.request_id)
        now = self._sim.now
        latency = now - pending.issued_at
        entry = self.cache.get(pending.key)
        if entry is not None:
            entry.ttr = msg.ttr
            entry.validated_at = now
            if not msg.was_valid:
                entry.version = msg.current_version
        # A validated serve: shown valid *after* checking with the owner.
        if msg.was_valid:
            serve_class = pending.serve_class or "local-cache"
            size = pending.size_bytes
        else:
            # The stale copy was replaced by fresh data in the reply —
            # the bytes came from the home region.
            serve_class = "home"
            size = msg.data_size
        self.host.metrics.on_served(
            serve_class, latency, size, stale=False, validated=True
        )
        self.host.trace("request.served", peer=self.id, key=pending.key,
                        serve_class=serve_class, latency=latency,
                        validated=True)
        if pending.trace is not None:
            self.host.tracer.finish(
                pending.trace, serve_class, pending.request_id
            )

    def _on_poll_timeout(self, pending: PendingRequest) -> None:
        """The polled region did not answer.

        First failure retries the replica region (§2.4 failover).  If
        that fails too, the owner is unreachable: strong validation is
        impossible, so drop the suspect copy and restart as a full
        search whose response will be accepted unvalidated.
        """
        self.host.stats.count("peer.poll_timeout")
        if pending.poll_retries == 0 and self._cfg.enable_replication:
            pending.poll_retries = 1
            if pending.trace is not None:
                replica = self.host.key_regions[pending.key][1]
                self.host.tracer.point(
                    pending.trace, "failover.replica", peer=self.id,
                    region=replica.region_id, poll=True,
                )
            self._retarget(pending, PHASE_POLL, self._cfg.poll_timeout)
            self._send_poll(pending)
            return
        self.cache.evict(pending.key)
        pending.no_validate = True
        self._retarget(pending, PHASE_HOME, self._cfg.home_timeout)
        self._start_home_search(
            pending.key, pending.size_bytes, pending.issued_at, pending.request_id
        )

    # -- prefetching (ref. [14] extension) -----------------------------------

    def prefetch(self, key: int) -> bool:
        """Proactively fetch ``key`` from its home region.

        Driven by regional popularity (``observed_access``): items the
        region keeps asking for are pulled into the dynamic cache ahead
        of the next request.  All network costs are charged under the
        ``prefetch`` category; user-facing metrics are untouched.
        Returns False when the key is already available locally.
        """
        if key in self.static_keys or key in self.cache:
            return False
        now = self._sim.now
        size = self.host.db.size_of(key)
        request_id = next_request_id()
        pending = PendingRequest(
            request_id, key, now, PHASE_HOME, size, prefetch=True
        )
        self._register(pending, self._cfg.home_timeout)
        self.host.stats.count("prefetch.issued")
        self._start_home_search(
            key, size, now, request_id=request_id, category="prefetch"
        )
        return True

    def prefetch_candidates(self, limit: int, min_count: int):
        """Hottest regionally observed keys not yet held locally."""
        ranked = sorted(
            (
                (count, key)
                for key, count in self.observed_access.items()
                if count >= min_count
                and key not in self.static_keys
                and key not in self.cache
            ),
            reverse=True,
        )
        return [key for _count, key in ranked[:limit]]

    # ======================================================================
    # Responder side
    # ======================================================================

    def can_serve(self, key: int) -> bool:
        """Can this peer answer a request for ``key`` right now?

        Custodians always can.  Cached copies are always *offered* — the
        cumulative cache presents "a unified view" (§3.1) — tagged with
        their freshness; the requester's consistency scheme decides
        whether to validate before consuming.
        """
        if key in self.static_keys:
            return True
        if not self._cfg.enable_cache:
            return False
        return key in self.cache

    def serve(self, request_id: int, requester: int, key: int) -> bool:
        """Respond to a request we can satisfy (Fig. 1 responder arm)."""
        now = self._sim.now
        item = self.host.db[key]
        authoritative = key in self.static_keys
        if authoritative:
            version = item.version
            ttr = item.ttr
            fresh = True
        else:
            entry = self.cache.hit(key, now)
            if entry is None:
                return False
            version = entry.version
            ttr = entry.ttr
            fresh = entry.is_fresh(now)
        msg = DataResponse(
            request_id=request_id,
            key=key,
            version=version,
            responder=self.id,
            responder_region_id=self.current_region_id,
            ttr=ttr,
            data_size=item.size_bytes,
            authoritative=authoritative,
            fresh=fresh,
        )
        self.host.stack.geo_send(
            self.id,
            msg,
            msg.size_bytes,
            dest_point=self.host.position_of(requester),
            dest_node=requester,
            category="response",
        )
        return True

    def on_local_request(self, msg: LocalRequest) -> None:
        """A regional member is looking for ``msg.key`` (regional flood)."""
        self._note_access(msg.key)
        if self.can_serve(msg.key):
            self.serve(msg.request_id, msg.requester, msg.key)

    def on_home_request(self, msg: HomeRequest, arrived_by_geo: bool) -> None:
        """A request reached this peer's (home or replica) region.

        The point-of-broadcast peer (geo arrival) serves directly if it
        can, otherwise starts the localized flood (§2.2).  Flood
        receivers serve if they can.
        """
        self._note_access(msg.key)
        if self.can_serve(msg.key):
            self.serve(msg.request_id, msg.requester, msg.key)
            return
        if arrived_by_geo:
            tracer = self.host.tracer
            if tracer is not None:
                tracer.point_by_request(
                    msg.request_id, "region.flood", peer=self.id,
                    region=msg.target_region_id,
                )
            self.host.stack.flood_send(
                self.id, msg, msg.size_bytes, region=msg.target_region_id,
                category="request",
            )

    def try_intercept(self, msg: HomeRequest) -> bool:
        """En-route serving (§3.1): absorb a passing request if we hold
        a serveable copy.  Returns True to stop the packet here."""
        return self.can_serve(msg.key) and msg.requester != self.id

    # ======================================================================
    # Updates and consistency
    # ======================================================================

    def update(self, key: int) -> None:
        """Commit a write to ``key`` (workload entry point)."""
        now = self._sim.now
        item = self.host.db[key]
        item.bump_version(now)
        self.host.metrics.on_update_issued()
        self.host.trace("update.committed", peer=self.id, key=key,
                        version=item.version)
        # The writer holds the fresh value.
        entry = self.cache.get(key)
        if entry is not None:
            entry.version = item.version
            entry.validated_at = now
        self.host.scheme.disseminate_update(self.id, key)

    def process_update_push(self, msg: UpdatePush) -> None:
        """Apply an arriving push (custodians and caching peers)."""
        item = self.host.db[msg.key]
        if msg.key in self.static_keys:
            home = self.host.key_regions[msg.key][0]
            if home.region_id == self.current_region_id:
                # Only the home custodian maintains the TTR estimate;
                # the replica custodian stores the value but does not
                # double-apply eq. 2.
                self.host.scheme.on_push_received(item, msg)
        entry = self.cache.get(msg.key)
        if entry is not None and entry.version < msg.version:
            entry.version = msg.version
            entry.validated_at = self._sim.now
            entry.ttr = item.ttr

    def on_update_push(self, msg: UpdatePush, arrived_by_geo: bool, region_id: int) -> None:
        """Push arriving at its target region (geo arrival then flood)."""
        self.process_update_push(msg)
        if arrived_by_geo:
            self.host.stack.flood_send(
                self.id,
                msg,
                msg.size_bytes,
                region=region_id,
                category="consistency",
            )

    def on_invalidation(self, msg: Invalidation) -> None:
        """Plain-Push invalidation flood reception."""
        self.host.scheme.on_invalidation_received(self.cache, msg)

    def on_poll(self, msg: Poll, arrived_by_geo: bool) -> None:
        """Validation poll arriving in the home region."""
        if msg.key in self.static_keys:
            item = self.host.db[msg.key]
            valid = msg.cached_version >= item.version
            reply = PollReply(
                request_id=msg.request_id,
                key=msg.key,
                current_version=item.version,
                ttr=item.ttr,
                was_valid=valid,
                data_size=0.0 if valid else item.size_bytes,
            )
            self.host.stack.geo_send(
                self.id,
                reply,
                reply.size_bytes,
                dest_point=self.host.position_of(msg.requester),
                dest_node=msg.requester,
                category="consistency",
            )
            return
        if arrived_by_geo:
            home = self.host.key_regions[msg.key][0]
            tracer = self.host.tracer
            if tracer is not None:
                tracer.point_by_request(
                    msg.request_id, "region.flood", peer=self.id,
                    region=home.region_id,
                )
            self.host.stack.flood_send(
                self.id,
                msg,
                msg.size_bytes,
                region=home.region_id,
                category="consistency",
            )

    # ======================================================================
    # Mobility (§2.3) and fault tolerance (§2.4)
    # ======================================================================

    def on_region_change(self, new_region_id: int) -> None:
        """Inter-region move detected by the periodic position check."""
        old_region_id = self.current_region_id
        self.current_region_id = new_region_id
        self.host.trace("peer.region_change", peer=self.id,
                        old=old_region_id, new=new_region_id)
        # Popularity is a per-region notion: start counting afresh.
        self.observed_access = {}
        if self.digests is not None:
            self.digests.clear()  # old region's summaries no longer apply
        if old_region_id >= 0:
            self.hand_off_keys(old_region_id)

    def hand_off_keys(self, region_id: int) -> None:
        """Transfer this peer's static keys to a peer staying in
        ``region_id`` (§2.3; also used for graceful departures)."""
        if not self.static_keys:
            return
        target = self.host.pick_handoff_target(self.id, region_id)
        keys = sorted(self.static_keys)
        self.static_keys = set()
        if target is None:
            # Empty region: home-region failure until the replica (or a
            # later re-join) covers these keys (§2.4).
            self.host.on_keys_orphaned(region_id, keys)
            return
        self.host.trace("custody.handoff_sent", peer=self.id, target=target,
                        region=region_id, n_keys=len(keys))
        self.host.send_custody(self.id, target, keys, region_id)

    def prepare_departure(self, graceful: bool) -> None:
        """The peer is about to disconnect.

        Graceful departures transfer custody first (the paper's
        assumption ii); crashes take their keys down with them.  Either
        way, in-flight requests are abandoned (their responses would be
        delivered to a dead radio).
        """
        if graceful:
            self.hand_off_keys(self.current_region_id)
        for pending in list(self.pending.values()):
            if pending.timeout_handle is not None:
                self._sim.cancel(pending.timeout_handle)
        self.pending.clear()

    def on_rejoin(self, new_region_id: int) -> None:
        """The peer reconnected (possibly in a different region).

        The dynamic cache survives (device storage), but any static keys
        a *crashed* peer still holds belong to the region it died in —
        re-deliver them through the normal handoff path if the peer
        resurfaced elsewhere.
        """
        old_region_id = self.current_region_id
        self.current_region_id = new_region_id
        self.observed_access = {}
        if self.static_keys and old_region_id != new_region_id:
            self.hand_off_keys(old_region_id)

    # -- regional cache digests (Summary-Cache optimization) -----------------

    def announce_digest(self) -> None:
        """Broadcast a Bloom summary of served keys within the region."""
        from repro.core.digest import BloomFilter, DigestAnnounce

        bloom = BloomFilter()
        bloom.add_many(self.static_keys)
        bloom.add_many(self.cache.entries.keys())
        if self.current_region_id < 0:
            return
        msg = DigestAnnounce(self.id, self.current_region_id, bloom)
        self.host.stack.flood_send(
            self.id, msg, msg.size_bytes, region=self.current_region_id,
            category="digest",
        )

    def on_digest_announce(self, msg) -> None:
        if self.digests is None or msg.region_id != self.current_region_id:
            return
        self.digests.update(msg.peer, msg.bloom, self._sim.now)

    def on_key_handoff(self, msg: KeyHandoff) -> None:
        """Receive custody of static keys from a departing peer."""
        overflow = self.accept_static_keys(
            [entry[0] for entry in msg.entries]
        )
        self.host.stats.count("peer.handoffs_received")
        if overflow:
            # Static store full: spill the remainder to another member
            # of the same region (or orphan them if nobody can take
            # custody), never silently dropping keys.
            self.host.stats.count("peer.static_overflow", len(overflow))
            self.host.spill_custody(self.id, msg.region_id, overflow)
        self.host.trace("custody.handoff_received", peer=self.id,
                        source=msg.from_peer, n_keys=len(msg.entries))
