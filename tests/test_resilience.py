"""Tests for the request-resilience layer (repro.resilience).

Unit tests pin the three mechanisms in isolation — backoff schedule,
per-region failure detector, circuit-breaker state machine (the full
closed→open→half-open→closed cycle) — plus the ResilienceManager
verdict API that composes them.  Integration tests then drive a fully
wired PReCinCtNetwork through the failure ladder: the `_on_timeout`
phase ladder under a total response blackout, deadline fail-fast,
bounded in-phase retries, breaker steering with `degraded` serves, and
telemetry/anomaly visibility of breaker state.
"""

import numpy as np
import pytest

from repro.config import SimulationConfig
from repro.core.network import PReCinCtNetwork
from repro.core.peer import PHASE_HOME, PHASE_LOCAL, PHASE_REPLICA
from repro.faults.plan import FaultPlan, FaultSpec
from repro.obs import Observers
from repro.resilience import (
    CLOSED,
    HALF_OPEN,
    OPEN,
    BackoffPolicy,
    CircuitBreaker,
    RegionFailureDetector,
    ResilienceManager,
)
from repro.resilience.breaker import PASS, PROBE, STEER
from tests.test_peer_protocol import custodian_of, make_net, replica_custodian_of

DROP_RESPONSES = "drop:p=1,category=response"


def make_obs_net(observers=None, **overrides):
    """The test_peer_protocol fixture topology, plus an observer deck."""
    defaults = dict(
        n_nodes=60,
        n_items=60,
        max_speed=None,  # stationary: deterministic topology
        duration=10_000.0,
        warmup=1.0,
        seed=5,
        consistency="push-adaptive-pull",
        cache_fraction=0.2,
    )
    defaults.update(overrides)
    return PReCinCtNetwork(SimulationConfig(**defaults), observers=observers)


# ==========================================================================
# Unit: BackoffPolicy
# ==========================================================================


class TestBackoffPolicy:
    def test_exponential_without_jitter(self):
        policy = BackoffPolicy(base=0.5, factor=2.0, jitter=0.0)
        assert policy.delay(1) == pytest.approx(0.5)
        assert policy.delay(2) == pytest.approx(1.0)
        assert policy.delay(3) == pytest.approx(2.0)
        assert policy.draws == 3  # delays handed out (no RNG involved)

    def test_jitter_bounds_and_rng_consumption(self):
        policy = BackoffPolicy(
            base=1.0, factor=2.0, jitter=0.5,
            rng=np.random.default_rng(7),
        )
        for attempt in (1, 2, 3):
            raw = 1.0 * 2.0 ** (attempt - 1)
            d = policy.delay(attempt)
            assert raw <= d <= raw * 1.5
        assert policy.draws == 3

    def test_jitter_is_deterministic_per_seed(self):
        a = BackoffPolicy(base=0.5, jitter=0.3, rng=np.random.default_rng(11))
        b = BackoffPolicy(base=0.5, jitter=0.3, rng=np.random.default_rng(11))
        assert [a.delay(i) for i in (1, 2, 3)] == [b.delay(i) for i in (1, 2, 3)]

    @pytest.mark.parametrize("kwargs", [
        dict(base=0.0),
        dict(base=-1.0),
        dict(base=1.0, factor=0.5),
        dict(base=1.0, jitter=-0.1),
        dict(base=1.0, jitter=1.5),
        dict(base=1.0, jitter=0.2),  # jitter without rng
    ])
    def test_invalid_parameters_rejected(self, kwargs):
        with pytest.raises(ValueError):
            BackoffPolicy(**kwargs)


# ==========================================================================
# Unit: RegionFailureDetector
# ==========================================================================


class TestRegionFailureDetector:
    def test_timeouts_accumulate_to_suspicion(self):
        det = RegionFailureDetector(threshold=3.0, alpha=0.5)
        assert not det.suspected(4)
        det.record_timeout(4)
        det.record_timeout(4)
        assert not det.suspected(4)
        det.record_timeout(4)
        assert det.suspected(4)
        assert det.score(4) == pytest.approx(3.0)

    def test_success_decays_score_alpha_smoothed(self):
        det = RegionFailureDetector(threshold=3.0, alpha=0.5)
        det.record_timeout(1)
        det.record_timeout(1)
        det.record_success(1)
        assert det.score(1) == pytest.approx(1.0)
        det.record_success(1)
        assert det.score(1) == pytest.approx(0.5)
        assert not det.suspected(1)

    def test_regions_are_independent(self):
        det = RegionFailureDetector(threshold=2.0, alpha=0.5)
        det.record_timeout(0)
        det.record_timeout(0)
        assert det.suspected(0)
        assert not det.suspected(1)
        assert det.score(1) == 0.0

    def test_clear_wipes_history(self):
        det = RegionFailureDetector(threshold=2.0, alpha=0.5)
        det.record_timeout(9)
        det.record_timeout(9)
        det.clear(9)
        assert det.score(9) == 0.0
        assert not det.suspected(9)


# ==========================================================================
# Unit: CircuitBreaker — the full transition cycle
# ==========================================================================


class TestCircuitBreaker:
    def test_full_cycle_closed_open_half_open_closed(self):
        b = CircuitBreaker(region_id=3, cooldown=10.0)
        assert b.state == CLOSED
        assert b.route(0.0) == PASS

        assert b.trip(5.0) is True
        assert b.state == OPEN
        # While cooling down every request is steered away.
        assert b.route(6.0) == STEER
        assert b.route(14.9) == STEER
        assert b.state == OPEN

        # Cooldown elapsed: exactly one request becomes the probe.
        assert b.route(15.0) == PROBE
        assert b.state == HALF_OPEN
        assert b.route(15.5) == STEER  # concurrent requests keep steering

        b.on_probe_result(True, 16.0)
        assert b.state == CLOSED
        assert b.route(16.5) == PASS

    def test_failed_probe_reopens(self):
        b = CircuitBreaker(region_id=1, cooldown=10.0)
        b.trip(0.0)
        assert b.route(10.0) == PROBE
        b.on_probe_result(False, 11.0)
        assert b.state == OPEN
        # The re-open restarts the cooldown from the failure time.
        assert b.route(12.0) == STEER
        assert b.route(21.0) == PROBE

    def test_lost_probe_allows_reprobe_after_cooldown(self):
        # A probe whose outcome never arrives must not wedge the breaker
        # in HALF_OPEN forever: after another cooldown it re-probes.
        b = CircuitBreaker(region_id=1, cooldown=10.0)
        b.trip(0.0)
        assert b.route(10.0) == PROBE
        assert b.route(15.0) == STEER
        assert b.route(20.0) == PROBE
        assert b.state == HALF_OPEN

    def test_trip_is_idempotent_while_open(self):
        b = CircuitBreaker(region_id=0, cooldown=10.0)
        assert b.trip(1.0) is True
        assert b.trip(2.0) is False  # already open: no double-count

    def test_probe_result_ignored_unless_half_open(self):
        b = CircuitBreaker(region_id=0, cooldown=10.0)
        b.on_probe_result(False, 1.0)  # closed: no-op
        assert b.state == CLOSED
        b.trip(2.0)
        b.on_probe_result(True, 3.0)  # open, no probe outstanding: no-op
        assert b.state == OPEN

    def test_state_names(self):
        b = CircuitBreaker(region_id=0, cooldown=1.0)
        assert b.state_name == "closed"
        b.trip(0.0)
        assert b.state_name == "open"
        b.route(1.0)
        assert b.state_name == "half-open"


# ==========================================================================
# Unit: ResilienceManager
# ==========================================================================


def make_manager(**overrides):
    defaults = dict(
        retries=1,
        deadline=5.0,
        backoff=BackoffPolicy(base=0.5, factor=2.0, jitter=0.0),
        suspect_after=3.0,
        alpha=0.5,
        cooldown=10.0,
    )
    defaults.update(overrides)
    return ResilienceManager(**defaults)


class TestResilienceManager:
    def test_route_home_passes_until_tripped(self):
        mgr = make_manager()
        assert mgr.route_home(7, 0.0) == "home"
        assert mgr.breakers_open() == 0
        # Routing never allocates breaker state for healthy regions.
        assert mgr.telemetry()["resilience.breakers_open"] == 0.0

    def test_timeouts_trip_breaker_and_steer(self):
        events = []
        mgr = make_manager(event_hook=lambda kind, **f: events.append((kind, f)))
        for _ in range(3):
            mgr.on_home_timeout(5, 1.0)
        assert mgr.breakers_open() == 1
        assert mgr.route_home(5, 2.0) == "steer"
        kinds = [k for k, _ in events]
        assert kinds == ["resilience.breaker_open"]
        assert events[0][1]["region"] == 5

    def test_success_decay_prevents_trip(self):
        mgr = make_manager()
        mgr.on_home_timeout(2, 0.0)
        mgr.on_home_timeout(2, 1.0)
        mgr.on_home_success(2, 2.0)  # decay: 2 -> 1
        mgr.on_home_timeout(2, 3.0)  # 1 -> 2 < 3: still closed
        assert mgr.breakers_open() == 0
        assert mgr.route_home(2, 4.0) == "home"

    def test_probe_cycle_closes_breaker_and_clears_suspicion(self):
        events = []
        mgr = make_manager(event_hook=lambda kind, **f: events.append(kind))
        for _ in range(3):
            mgr.on_home_timeout(4, 0.0)
        assert mgr.route_home(4, 10.0) == "probe"
        mgr.on_probe_result(4, True, 11.0)
        assert mgr.breakers_open() == 0
        assert mgr.detector.score(4) == 0.0
        assert mgr.route_home(4, 12.0) == "home"
        assert events == [
            "resilience.breaker_open",
            "resilience.breaker_half_open",
            "resilience.breaker_close",
        ]

    def test_failed_probe_reopens(self):
        mgr = make_manager()
        for _ in range(3):
            mgr.on_home_timeout(4, 0.0)
        assert mgr.route_home(4, 10.0) == "probe"
        mgr.on_probe_result(4, False, 11.0)
        assert mgr.breakers_open() == 1
        assert mgr.route_home(4, 12.0) == "steer"

    def test_probe_result_for_unknown_region_is_noop(self):
        mgr = make_manager()
        mgr.on_probe_result(99, True, 0.0)  # never tripped: ignored
        assert mgr.breakers_open() == 0

    def test_stat_counting(self):
        from repro.sim import StatRegistry

        stats = StatRegistry()
        mgr = make_manager(stats=stats)
        for _ in range(3):
            mgr.on_home_timeout(1, 0.0)
        mgr.route_home(1, 1.0)       # steer
        mgr.route_home(1, 10.0)      # probe
        mgr.on_probe_result(1, False, 11.0)
        mgr.route_home(1, 21.0)      # re-probe
        mgr.on_probe_result(1, True, 22.0)
        counters = stats.counters()
        assert counters["resilience.breaker_open"] == 2  # trip + reopen
        assert counters["resilience.breaker_steered"] == 1
        assert counters["resilience.breaker_half_open"] == 2
        assert counters["resilience.probe"] == 2
        assert counters["resilience.probe_failed"] == 1
        assert counters["resilience.breaker_close"] == 1

    def test_retry_delay_and_deadline(self):
        mgr = make_manager()
        assert mgr.retry_delay(1) == pytest.approx(0.5)
        assert mgr.retry_delay(2) == pytest.approx(1.0)
        assert mgr.deadline_for(3.0) == pytest.approx(8.0)
        assert make_manager(deadline=None).deadline_for(3.0) is None

    def test_retry_bookkeeping_feeds_telemetry(self):
        mgr = make_manager()
        mgr.note_retry(100, 1)
        mgr.note_retry(101, 2)
        tele = mgr.telemetry()
        assert tele["resilience.retries_inflight"] == 2.0
        assert tele["resilience.retry_depth"] == 2.0
        mgr.note_done(101)
        mgr.note_done(999)  # unknown id: no-op
        assert mgr.telemetry()["resilience.retries_inflight"] == 1.0

    def test_telemetry_is_a_pure_reader(self):
        mgr = make_manager()
        for _ in range(3):
            mgr.on_home_timeout(6, 0.0)
        first = mgr.telemetry()
        assert first == mgr.telemetry()  # no state consumed
        assert first["resilience.breakers_open"] == 1.0
        assert first["resilience.breaker.region6.state"] == float(OPEN)
        assert first["resilience.suspicion.region6"] == pytest.approx(3.0)

    @pytest.mark.parametrize("kwargs", [
        dict(retries=-1),
        dict(retries=1, backoff=None),
        dict(deadline=0.0),
        dict(deadline=-2.0),
    ])
    def test_invalid_parameters_rejected(self, kwargs):
        base = dict(
            retries=0, deadline=None, backoff=None,
        )
        base.update(kwargs)
        with pytest.raises(ValueError):
            ResilienceManager(**base)

    def test_from_config(self):
        cfg = SimulationConfig(
            resilience=True, resilience_retries=2, request_deadline=7.0,
        )
        mgr = ResilienceManager.from_config(cfg, rng=np.random.default_rng(0))
        assert mgr.retries == 2
        assert mgr.deadline == 7.0
        assert mgr.backoff is not None
        no_retry = ResilienceManager.from_config(
            SimulationConfig(resilience=True, resilience_retries=0),
            rng=np.random.default_rng(0),
        )
        assert no_retry.backoff is None
        with pytest.raises(TypeError):
            ResilienceManager.from_config(cfg)  # the rng is required


# ==========================================================================
# Integration helpers
# ==========================================================================


def pick_far_case(net):
    """(requester, key): requester outside BOTH the key's home and
    replica regions, key custodied in both — the full three-phase
    ladder is reachable."""
    for key in range(len(net.db)):
        home = net.key_regions[key][0]
        replica = net.key_regions[key][1]
        if custodian_of(net, key) is None or replica_custodian_of(net, key) is None:
            continue
        for peer in net.peers:
            if (
                peer.current_region_id >= 0
                and peer.current_region_id not in (home.region_id, replica.region_id)
                and key not in peer.static_keys
            ):
                return peer, key
    raise AssertionError("no far cross-region case found; adjust seed")


def pick_home_resident_case(net):
    """(requester, key): the requester's region IS the key's home
    region, but the requester itself does not custody the key."""
    for key in range(len(net.db)):
        home = net.key_regions[key][0]
        if custodian_of(net, key) is None:
            continue
        for peer in net.peers:
            if (
                peer.current_region_id == home.region_id
                and key not in peer.static_keys
            ):
                return peer, key
    raise AssertionError("no home-resident case found; adjust seed")


# ==========================================================================
# Integration: the classic ladder with resilience OFF (seed behaviour)
# ==========================================================================


class TestPhaseLadderResilienceOff:
    def test_resilience_disabled_by_default(self):
        net = make_net()
        assert net.cfg.resilience is False
        assert net.resilience is None

    def test_full_ladder_under_response_blackout(self):
        """drop:p=1,category=response starves every phase: the request
        must walk local→home→replica→failed, and the trace's phase
        spans must partition its latency exactly."""
        net = make_obs_net(
            fault_plan=FaultPlan.parse([DROP_RESPONSES]),
            observers=Observers(tracing=True),
        )
        assert net.resilience is None
        requester, key = pick_far_case(net)
        net.sim.schedule(1.0, requester.request, key)
        net.sim.run(until=30.0)

        assert net.metrics.requests_failed == 1
        traces = net.tracer.completed("failed")
        assert len(traces) == 1
        trace = traces[0]
        phases = trace.phase_breakdown()
        assert [s.name for s in phases] == [
            "phase.local", "phase.home", "phase.replica"
        ]
        # Per-phase latency partition: spans tile the request exactly.
        assert sum(s.duration for s in phases) == pytest.approx(trace.latency)
        # With no resilience layer each phase waits out its full timer
        # (responses are sent but eaten by the injected drop).
        assert phases[0].duration == pytest.approx(net.cfg.local_timeout)
        assert phases[1].duration == pytest.approx(net.cfg.home_timeout)
        assert phases[2].duration == pytest.approx(net.cfg.replica_timeout)
        assert trace.latency == pytest.approx(
            net.cfg.local_timeout + net.cfg.home_timeout + net.cfg.replica_timeout
        )
        # The injected drops were actually exercised.
        assert net.stats.counters().get("faults.injected_drop", 0) >= 2

    def test_home_skipped_when_requester_resides_in_home_region(self):
        """Satellite: a failed local flood already covered the home
        region when the requester lives there — the GPSR hop is skipped
        and counted."""
        net = make_net(fault_plan=FaultPlan.parse([DROP_RESPONSES]))
        requester, key = pick_home_resident_case(net)
        net.sim.schedule(1.0, requester.request, key)
        net.sim.run(until=30.0)
        counters = net.stats.counters()
        assert counters.get("request.home_skipped", 0) == 1
        assert net.metrics.requests_failed == 1

    def test_stale_timer_is_counted_not_crashed(self):
        """Satellite: a timer surviving its request is dead-handle
        churn, visible under request.timeout.stale."""
        net = make_net()
        peer = net.peers[0]
        peer._on_timeout(10**9, PHASE_HOME)  # no such pending request
        assert net.stats.counters().get("request.timeout.stale", 0) == 1


# ==========================================================================
# Integration: resilience ON
# ==========================================================================


class TestDeadlineFailFast:
    def test_deadline_exceeded_fails_fast(self, tmp_path):
        net = make_obs_net(
            fault_plan=FaultPlan.parse([DROP_RESPONSES]),
            resilience=True,
            resilience_retries=0,
            request_deadline=2.0,
            observers=Observers(tracing=True, recorder_dir=tmp_path),
        )
        requester, key = pick_far_case(net)
        net.sim.schedule(1.0, requester.request, key)
        net.sim.run(until=30.0)

        assert net.stats.counters().get("resilience.deadline_exceeded", 0) == 1
        assert net.metrics.requests_failed == 1
        trace = net.tracer.completed("failed")[0]
        # Fail-fast: the 6.25 s ladder is cut to the 2 s budget.
        assert trace.latency == pytest.approx(2.0, abs=1e-6)
        # The flight recorder captured the failure context.
        manifests = [
            m for m in net.recorder.manifests if m["reason"] == "request-failed"
        ]
        assert manifests
        assert manifests[0]["context"]["reason"] == "deadline-exceeded"

    def test_phase_timers_clamped_to_budget(self):
        net = make_net(resilience=True, request_deadline=2.0)
        requester, _ = pick_far_case(net)
        from repro.core.peer import PendingRequest

        pending = PendingRequest(1, 0, issued_at=0.0, phase=PHASE_LOCAL,
                                 size_bytes=100.0, deadline=2.0)
        assert requester._effective_timeout(pending, 3.0) == pytest.approx(2.0)
        assert requester._effective_timeout(pending, 0.25) == pytest.approx(0.25)
        pending.deadline = None
        assert requester._effective_timeout(pending, 3.0) == pytest.approx(3.0)


class TestBoundedRetries:
    def test_retries_are_attempted_and_traced(self):
        net = make_obs_net(
            fault_plan=FaultPlan.parse([DROP_RESPONSES]),
            resilience=True,
            resilience_retries=2,
            request_deadline=None,
            observers=Observers(tracing=True),
        )
        requester, key = pick_far_case(net)
        net.sim.schedule(1.0, requester.request, key)
        net.sim.run(until=60.0)

        counters = net.stats.counters()
        # Two hedged retransmits per remote phase (home + replica) = 4.
        assert counters.get("resilience.retry", 0) == 4
        trace = net.tracer.completed("failed")[0]
        retry_spans = [
            s for s in trace.spans if s.name == "retry.backoff"
        ]
        assert len(retry_spans) == 4
        attempts = [s.attrs["attempt"] for s in retry_spans]
        assert attempts == [1, 2, 1, 2]  # budget resets per phase
        # Hedging never delays the ladder: the failure is detected at
        # the same instant as with retries off (modulo the deadline).
        assert trace.latency == pytest.approx(
            net.cfg.local_timeout + net.cfg.home_timeout + net.cfg.replica_timeout
        )

    def test_retry_replay_is_deterministic(self):
        def run_once():
            net = make_obs_net(
                fault_plan=FaultPlan.parse([DROP_RESPONSES]),
                resilience=True,
                resilience_retries=2,
                request_deadline=None,
                observers=Observers(tracing=True),
            )
            requester, key = pick_far_case(net)
            net.sim.schedule(1.0, requester.request, key)
            net.sim.run(until=60.0)
            trace = net.tracer.completed("failed")[0]
            return [
                (s.name, s.attrs.get("delay")) for s in trace.spans
            ], trace.latency

        assert run_once() == run_once()


class TestBreakerEndToEnd:
    def crashed_home_net(self, observers=None, **overrides):
        """A stationary net where the chosen key's home-region holders
        crash at t=0.5 — home searches time out while the region itself
        stays routable, so steered requests can still reach the
        replica.  Caching is off so every request walks the ladder."""
        probe_net = make_net(enable_cache=False)
        requester, key = pick_far_case(probe_net)
        home_rid = probe_net.key_regions[key][0].region_id
        holders = tuple(
            p.id for p in probe_net.peers
            if key in p.static_keys and p.current_region_id == home_rid
        )
        assert holders
        plan = FaultPlan((FaultSpec("crash", at=0.5, nodes=holders),))
        net = make_obs_net(
            observers=observers, enable_cache=False, fault_plan=plan, **overrides
        )
        return net, net.peers[requester.id], key, home_rid

    def test_breaker_steers_to_degraded_replica_serves(self):
        net, requester, key, home_rid = self.crashed_home_net(
            resilience=True,
            resilience_retries=0,
            request_deadline=None,
        )
        for i in range(8):
            net.sim.schedule(1.0 + 4.0 * i, requester.request, key)
        net.sim.run(until=40.0)

        counters = net.stats.counters()
        # Three home timeouts accumulate suspicion and trip the breaker…
        assert counters.get("resilience.breaker_open", 0) >= 1
        # …after which requests steer straight to the replica…
        assert counters.get("resilience.breaker_steered", 0) >= 2
        # …and are surfaced as an explicit degraded serve class.
        assert net.metrics.served_by_class.get("degraded", 0) >= 2
        # The cooldown elapsed at least once: a probe went out and — the
        # region still being dead — failed, re-opening the breaker.
        assert counters.get("resilience.probe", 0) >= 1
        assert counters.get("resilience.probe_failed", 0) >= 1

        mgr = net.resilience
        assert mgr is not None
        tele = mgr.telemetry()
        assert tele["resilience.breakers_open"] == 1.0
        assert tele[f"resilience.breaker.region{home_rid}.state"] in (
            float(OPEN), float(HALF_OPEN),
        )
        assert tele[f"resilience.suspicion.region{home_rid}"] >= 3.0
        # The network's telemetry snapshot exposes the same gauges.
        snapshot = net._telemetry_snapshot()
        assert snapshot["resilience.breakers_open"] == 1.0

    def test_resilience_off_leaves_no_resilience_stats(self):
        net, requester, key, _ = self.crashed_home_net()
        for i in range(8):
            net.sim.schedule(1.0 + 4.0 * i, requester.request, key)
        net.sim.run(until=40.0)
        assert net.resilience is None
        resilience_keys = [
            k for k in net.stats.counters() if k.startswith("resilience.")
        ]
        assert resilience_keys == []
        assert "degraded" not in net.metrics.served_by_class

    def test_breaker_series_drives_anomaly_rule(self, tmp_path):
        """Acceptance: breaker state is a telemetry series usable in
        --anomaly rules."""
        net, requester, key, _ = self.crashed_home_net(
            resilience=True,
            resilience_retries=0,
            request_deadline=None,
            observers=Observers(
                telemetry=True, telemetry_interval=2.0,
                recorder_dir=tmp_path,
                anomaly_rules=("resilience.breakers_open>0",),
            ),
        )
        net.telemetry.start()
        for i in range(8):
            net.sim.schedule(1.0 + 4.0 * i, requester.request, key)
        net.sim.run(until=40.0)

        assert any(
            "resilience.breakers_open" in values
            for _, values in net.telemetry.rows
        )
        assert net.anomaly.triggers >= 1
        fired = {spec for _, spec, _ in net.anomaly.fired}
        assert "resilience.breakers_open>0" in fired
