"""ResilienceManager — the one object the protocol layer talks to.

Composes the three mechanisms of :mod:`repro.resilience` behind a small
verdict-style API so :class:`repro.core.peer.Peer` stays free of policy:

* :meth:`route_home` — consult the home region's circuit breaker before
  a remote home search: ``"home"`` (route normally), ``"steer"`` (skip
  the suspected region, go straight to the replica), or ``"probe"``
  (route to the region as the half-open liveness probe);
* :meth:`on_home_timeout` / :meth:`on_home_success` — feed the
  per-region failure detector from home-phase outcomes; a timeout that
  pushes suspicion over the threshold trips the breaker;
* :meth:`on_probe_result` — resolve the half-open probe (close the
  breaker and wipe the region's suspicion on success, re-open on
  failure);
* :meth:`retry_delay` — the backoff schedule for bounded in-phase
  retries;
* :meth:`deadline_for` — the absolute fail-fast deadline of a request.

The manager owns all ``resilience.breaker_*`` / ``resilience.probe*``
stat counting and the breaker-transition event-log records, so breaker
accounting cannot drift between call sites.  :meth:`telemetry` is a
pure reader (no RNG, no stat writes) suitable for the telemetry
snapshot hook.

One manager serves the whole simulation: suspicion is a property of a
*region*, and pooling every requester's evidence is what lets the
breaker react after ``suspect_after`` total timeouts instead of
``suspect_after`` timeouts *per peer* — a deliberate simplification
over per-peer failure detectors (documented in docs/RESILIENCE.md).
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.ports import CounterStatSink
from repro.resilience.backoff import BackoffPolicy
from repro.resilience.breaker import (
    CLOSED,
    HALF_OPEN,
    PASS,
    PROBE,
    STEER,
    CircuitBreaker,
)
from repro.resilience.detector import RegionFailureDetector

__all__ = ["ResilienceManager"]

#: Verdicts returned by :meth:`ResilienceManager.route_home`.
ROUTE_HOME = "home"
ROUTE_STEER = "steer"
ROUTE_PROBE = "probe"

#: Constants of :meth:`ResilienceManager.from_config` (never set per run):
#: first-retry delay (s), backoff multiplier per attempt, the jitter
#: fraction stretching each delay by a uniform factor in [1, 1 + jitter)
#: (drawn from the "resilience" RNG stream), the suspicion decay on
#: success (eq. 2's α), the home-region suspicion that trips the
#: breaker (each home-phase timeout adds 1), and the open breaker's
#: cool-down before a half-open probe (s).
BACKOFF_BASE = 0.5
BACKOFF_FACTOR = 2.0
BACKOFF_JITTER = 0.1
SUSPICION_ALPHA = 0.5
SUSPECT_AFTER = 3.0
BREAKER_COOLDOWN = 10.0


class ResilienceManager:
    """Retry budgets, deadlines, and circuit breaking for one simulation.

    Parameters
    ----------
    retries:
        Retry budget per remote phase (0 disables in-phase retries).
    deadline:
        Total latency budget per request in seconds (None disables
        fail-fast deadlines).
    backoff:
        :class:`BackoffPolicy` for retry spacing; required when
        ``retries > 0``.
    suspect_after / alpha:
        Failure-detector threshold and decay (see
        :class:`RegionFailureDetector`).
    cooldown:
        Circuit-breaker open→half-open cool-down in seconds.
    stats:
        Optional :class:`repro.ports.StatSink` (the sim passes its
        ``StatRegistry``, the service a ``CounterStatSink``); breaker
        and probe transitions are counted here under ``resilience.*``
        keys.  ``None`` allocates a private scratch sink.
    event_hook:
        Optional ``callable(kind, **fields)`` (the network's event-log
        ``trace``, or the service's bus-event publisher) invoked on
        breaker transitions.
    """

    def __init__(
        self,
        *,
        retries: int = 1,
        deadline: Optional[float] = None,
        backoff: Optional[BackoffPolicy] = None,
        suspect_after: float = 3.0,
        alpha: float = 0.5,
        cooldown: float = 10.0,
        stats=None,
        event_hook=None,
    ):
        if retries < 0:
            raise ValueError(f"retry budget must be >= 0, got {retries}")
        if retries > 0 and backoff is None:
            raise ValueError("a retry budget needs a BackoffPolicy")
        if deadline is not None and deadline <= 0.0:
            raise ValueError(f"request deadline must be positive, got {deadline}")
        self.retries = int(retries)
        self.deadline = None if deadline is None else float(deadline)
        self.backoff = backoff
        self.detector = RegionFailureDetector(threshold=suspect_after, alpha=alpha)
        self.cooldown = float(cooldown)
        if stats is None:
            stats = CounterStatSink()  # private scratch sink (tests)
        self._stats = stats
        self._event = event_hook
        self._breakers: Dict[int, CircuitBreaker] = {}
        #: request_id → current retry attempt, for the retry-depth series.
        self._retry_attempts: Dict[int, int] = {}

    @classmethod
    def from_config(cls, cfg, rng, stats=None, event_hook=None):
        """Build from a :class:`repro.config.SimulationConfig`; ``rng``
        (the run's "resilience" stream) draws the backoff jitter."""
        backoff = None
        if cfg.resilience_retries > 0:
            backoff = BackoffPolicy(
                base=BACKOFF_BASE,
                factor=BACKOFF_FACTOR,
                jitter=BACKOFF_JITTER,
                rng=rng,
            )
        return cls(
            retries=cfg.resilience_retries,
            deadline=cfg.request_deadline,
            backoff=backoff,
            suspect_after=SUSPECT_AFTER,
            alpha=SUSPICION_ALPHA,
            cooldown=BREAKER_COOLDOWN,
            stats=stats,
            event_hook=event_hook,
        )

    # -- small helpers ------------------------------------------------------

    def _emit(self, kind: str, **fields) -> None:
        if self._event is not None:
            self._event(kind, **fields)

    def _breaker(self, region_id: int) -> CircuitBreaker:
        breaker = self._breakers.get(region_id)
        if breaker is None:
            breaker = CircuitBreaker(region_id, cooldown=self.cooldown)
            self._breakers[region_id] = breaker
        return breaker

    # -- routing ------------------------------------------------------------

    def route_home(self, region_id: int, now: float) -> str:
        """Verdict for a request about to geo-route to its home region."""
        breaker = self._breakers.get(region_id)
        if breaker is None:
            return ROUTE_HOME  # never tripped: don't allocate a breaker
        verdict = breaker.route(now)
        if verdict == PASS:
            return ROUTE_HOME
        if verdict == PROBE:
            self._stats.count("resilience.breaker_half_open")
            self._stats.count("resilience.probe")
            self._emit("resilience.breaker_half_open", region=region_id)
            return ROUTE_PROBE
        assert verdict == STEER
        self._stats.count("resilience.breaker_steered")
        return ROUTE_STEER

    def tripped(self, region_id: int) -> bool:
        """The region's breaker is open or half-open, so
        :meth:`route_home` may steer.  Reads state, writes nothing."""
        breaker = self._breakers.get(region_id)
        return breaker is not None and breaker.state != CLOSED

    # -- detector feeding ----------------------------------------------------

    def on_home_timeout(self, region_id: int, now: float) -> None:
        """A home-phase search targeting ``region_id`` timed out."""
        score = self.detector.record_timeout(region_id)
        if score >= self.detector.threshold:
            if self._breaker(region_id).trip(now):
                self._stats.count("resilience.breaker_open")
                self._emit(
                    "resilience.breaker_open", region=region_id,
                    suspicion=round(score, 3),
                )

    def on_home_success(self, region_id: int, now: float) -> None:
        """The home region answered a (non-probe) search in time."""
        self.detector.record_success(region_id)

    def on_probe_result(self, region_id: int, success: bool, now: float) -> None:
        """The half-open probe for ``region_id`` resolved."""
        breaker = self._breakers.get(region_id)
        if breaker is None or breaker.state != HALF_OPEN:
            return
        breaker.on_probe_result(success, now)
        if success:
            self.detector.clear(region_id)
            self._stats.count("resilience.breaker_close")
            self._emit("resilience.breaker_close", region=region_id)
        else:
            self._stats.count("resilience.probe_failed")
            self._stats.count("resilience.breaker_open")
            self._emit("resilience.breaker_open", region=region_id, reprobe=True)

    # -- retries and deadlines ------------------------------------------------

    def retry_delay(self, attempt: int) -> float:
        """Backoff delay before retry ``attempt`` (1-based)."""
        return self.backoff.delay(attempt)

    def deadline_for(self, issued_at: float) -> Optional[float]:
        """Absolute fail-fast deadline for a request issued at ``issued_at``."""
        if self.deadline is None:
            return None
        return issued_at + self.deadline

    def note_retry(self, request_id: int, attempt: int) -> None:
        """A retry is now pending for ``request_id`` (telemetry only)."""
        self._retry_attempts[request_id] = attempt

    def note_done(self, request_id: int) -> None:
        """``request_id`` left the pending table (served or failed)."""
        self._retry_attempts.pop(request_id, None)

    # -- telemetry (pure reader) ----------------------------------------------

    def breakers_open(self) -> int:
        return sum(1 for b in self._breakers.values() if b.state != CLOSED)

    def telemetry(self) -> Dict[str, float]:
        """Gauges for the telemetry snapshot; reads state, writes nothing."""
        out: Dict[str, float] = {
            "resilience.breakers_open": float(self.breakers_open()),
            "resilience.retries_inflight": float(len(self._retry_attempts)),
            "resilience.retry_depth": float(
                max(self._retry_attempts.values(), default=0)
            ),
        }
        for rid in sorted(self._breakers):
            out[f"resilience.breaker.region{rid}.state"] = float(
                self._breakers[rid].state
            )
            out[f"resilience.suspicion.region{rid}"] = self.detector.score(rid)
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ResilienceManager(retries={self.retries}, "
            f"deadline={self.deadline}, breakers={len(self._breakers)})"
        )
