"""Simulation configuration.

One frozen dataclass gathers every knob of a PReCinCt simulation run,
with defaults matching the paper's setup (§6.1):

* 1200 m x 1200 m plane divided into 9 equal regions,
* up to 160 nodes, 250 m transmission range, 11 Mbps,
* random waypoint motion, 5 s pause, configurable vmax,
* Poisson requests and updates with 30 s mean inter-arrival,
* Zipf popularity with skew theta.

Experiments construct variations with :func:`dataclasses.replace`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar, Optional

from repro.faults.plan import FaultPlan

__all__ = ["SimulationConfig"]


@dataclass(frozen=True)
class SimulationConfig:
    """All parameters of one simulation run — its identity.

    A field belongs here iff changing it can change a run's digests;
    observers cannot, and are armed through :class:`repro.obs.Observers`.
    """

    # -- plane and regions -------------------------------------------------
    width: float = 1200.0
    height: float = 1200.0
    n_regions: int = 9

    # -- population ----------------------------------------------------------
    n_nodes: int = 80

    # -- radio ----------------------------------------------------------------
    range_m: float = 250.0
    bandwidth_bps: float = 11e6
    #: Idle/listening power (mW).  0 (default) reproduces the paper's
    #: per-message energy accounting; set ~900 for realistic WaveLAN
    #: total drain including listening.
    idle_power_mw: float = 0.0

    # -- mobility ---------------------------------------------------------------
    #: Mobility model: "random-waypoint" (paper default), "manhattan",
    #: "group" (RPGM), or "stationary".  A stationary model is also
    #: selected automatically when max_speed is 0/None.
    mobility_model: str = "random-waypoint"
    #: Maximum node speed (m/s); 0 or None selects a stationary topology.
    max_speed: Optional[float] = 6.0
    pause_time: float = 5.0
    #: RPGM parameters (mobility_model == "group").
    group_count: int = 6
    group_radius: float = 120.0
    #: Manhattan parameter (mobility_model == "manhattan").
    n_streets: int = 7

    # -- churn (node disconnections; paper future work §7) -------------------------
    #: Mean connected time per peer (s); None disables churn.
    churn_uptime: Optional[float] = None
    #: Mean disconnected time before rejoining (s).
    churn_downtime: float = 60.0
    #: Fraction of departures that are sudden crashes (no key handoff);
    #: the paper assumes "most users quit the network gracefully".
    churn_crash_fraction: float = 0.1

    # -- data set ----------------------------------------------------------------
    n_items: int = 1000
    min_item_bytes: float = 1024.0
    max_item_bytes: float = 10240.0

    # -- workload -----------------------------------------------------------------
    #: Mean inter-request time per peer (s).
    t_request: float = 30.0
    #: Mean inter-update time per peer (s); None disables updates.
    t_update: Optional[float] = None
    #: Zipf skew (the paper's Theta) for read accesses.
    zipf_theta: float = 0.8
    #: Virtual time of a flash-crowd popularity shift: the read
    #: distribution's rank-to-key mapping is re-drawn, turning the hot
    #: set over at once.  None disables the shift.
    popularity_shift_at: Optional[float] = None

    # -- caching -------------------------------------------------------------------
    #: Dynamic cache capacity as a fraction of total database size
    #: (paper sweeps 0.005-0.025).  Ignored when enable_cache is False.
    cache_fraction: float = 0.01
    #: Replacement policy name: "gd-ld", "gd-size", "lru", or "lfu".
    replacement_policy: str = "gd-ld"
    #: GD-LD weight factors (eq. 1).
    gdld_wr: float = 1.0
    gdld_wd: float = 0.01
    gdld_ws: float = 1024.0
    #: Static-store capacity per peer, as a fraction of total database
    #: size (§3.1 splits cache space into static and dynamic parts).
    #: None (default) leaves custodial storage unbounded; when set,
    #: custody overflowing a peer spills to other regional members.
    static_capacity_fraction: Optional[float] = None
    #: Disable all dynamic caching (the §5.2.2 analytical setting used
    #: by the Fig. 9 experiments).
    enable_cache: bool = True
    #: Cooperative admission control on/off (ablation; paper always on).
    admission_control: bool = True

    # -- consistency ------------------------------------------------------------------
    #: Scheme name: "push-adaptive-pull", "plain-push", "pull-every-time",
    #: or "none" (read-only experiments).
    consistency: str = "none"
    #: EWMA factor alpha of eq. 2.
    ttr_alpha: float = 0.5
    #: TTR before the first observed update (s).  Optimistic by default:
    #: never-updated items should not trigger validation polls; eq. 2
    #: pulls the estimate down as soon as updates are observed.
    default_ttr: float = 300.0

    # -- replication ---------------------------------------------------------------------
    #: Maintain a replica custodian in the second-closest region (§2.4).
    enable_replication: bool = True

    # -- GPSR beaconing (optional realism) -------------------------------------------------
    #: Period of GPSR HELLO beacons (s).  None (default) models perfect
    #: beaconing at zero cost, as the simulator's routing reads neighbor
    #: sets from ground truth; set (e.g. 1.0, GPSR's default) to charge
    #: the beacon traffic and energy the real protocol would spend.
    gpsr_beacon_interval: Optional[float] = None

    # -- protocol timers --------------------------------------------------------------------
    #: Wait for a regional (local) response before going to the home region.
    local_timeout: float = 0.25
    #: Wait for a home-region response before retrying the replica region.
    home_timeout: float = 3.0
    #: Wait for a replica-region response before declaring failure.
    replica_timeout: float = 3.0
    #: Wait for a poll reply before falling back to a full re-fetch.
    poll_timeout: float = 3.0

    # -- popularity prefetching (paper ref. [14] extension) ---------------------------------------
    #: Periodically pull the region's hottest uncached keys into the
    #: dynamic cache ahead of the next request.
    enable_prefetch: bool = False
    #: Prefetch evaluation period per peer (s).
    prefetch_interval: float = 30.0

    # -- regional cache digests (Summary Cache, paper ref. [5]) -----------------------------------
    #: Announce Bloom-filter cache summaries within each region so
    #: requesters can skip the local flood when the item is provably
    #: absent from the region.
    enable_digest: bool = False
    #: Announcement period (s).
    digest_interval: float = 20.0

    # -- event log -------------------------------------------------------------------------------
    #: Keep a bounded structured event log of protocol events
    #: (request lifecycle, custody movement, region changes) — the
    #: input of the audit's event-log digest.
    enable_event_log: bool = False

    # -- request resilience (repro.resilience) ---------------------------------------------------
    #: Enable the adaptive request-resilience layer: bounded in-phase
    #: retries with exponential backoff, per-request deadline budgets,
    #: and a per-region failure detector feeding a circuit breaker that
    #: steers requests to the replica while the home region is
    #: suspected.  Off (default) preserves the paper's one-shot
    #: local→home→replica ladder bit-for-bit.
    resilience: bool = False
    #: Retry budget per remote phase (home / replica); 0 disables
    #: in-phase retries.
    resilience_retries: int = 1
    #: Jitter fraction in [0, 1]: each backoff delay is stretched by a
    #: uniform factor in [1, 1 + jitter), drawn from the dedicated
    #: "resilience" RNG stream (0 disables the draw entirely).
    resilience_backoff_jitter: float = 0.1
    #: Total latency budget per request (s): once spent, the request
    #: fails fast instead of serially exhausting the remaining phase
    #: timers.  The default sits just under the full three-phase ladder
    #: of the default timeouts (0.25 + 3 + 3 = 6.25 s), so fail-fast
    #: only trims the exhausted tail and never starves the replica
    #: phase of its window.  None disables deadlines.
    request_deadline: Optional[float] = 6.0
    #: Home-region suspicion threshold: consecutive home-phase timeouts
    #: needed (each +1, α-decayed on success) before the breaker trips.
    resilience_suspect_after: float = 3.0
    #: Open-breaker cool-down before a half-open probe is let through (s).
    resilience_breaker_cooldown: float = 10.0
    #: Constants, not fields (never set): first-retry delay (s), backoff
    #: multiplier per attempt, suspicion decay on success (eq. 2's α).
    resilience_backoff_base: ClassVar[float] = 0.5
    resilience_backoff_factor: ClassVar[float] = 2.0
    resilience_alpha: ClassVar[float] = 0.5

    # -- fault injection (repro.faults) ----------------------------------------------------------
    #: Declarative fault schedule (message drop/duplicate/delay/reorder,
    #: node crash/recover, region partition/heal), replayed
    #: deterministically from the run's seed.  None disables injection.
    fault_plan: Optional[FaultPlan] = None

    # -- run control --------------------------------------------------------------------------
    duration: float = 2000.0
    #: Statistics (not protocol state) are reset at this time, excluding
    #: cold-start transients from the measurements.
    warmup: float = 200.0
    seed: int = 1

    def __post_init__(self) -> None:
        if self.n_nodes <= 0:
            raise ValueError(f"n_nodes must be positive, got {self.n_nodes}")
        if self.n_regions <= 0:
            raise ValueError(f"n_regions must be positive, got {self.n_regions}")
        if not 0.0 <= self.cache_fraction <= 1.0:
            raise ValueError(f"cache_fraction must be in [0, 1], got {self.cache_fraction}")
        if self.t_request <= 0:
            raise ValueError(f"t_request must be positive, got {self.t_request}")
        if self.t_update is not None and self.t_update <= 0:
            raise ValueError(
                f"t_update must be positive (None disables updates), "
                f"got {self.t_update}"
            )
        if self.warmup >= self.duration:
            raise ValueError(
                f"warmup ({self.warmup}) must be shorter than duration ({self.duration})"
            )
        if self.replacement_policy not in ("gd-ld", "gd-size", "lru", "lfu"):
            raise ValueError(f"unknown replacement policy {self.replacement_policy!r}")
        if self.consistency not in (
            "none",
            "plain-push",
            "pull-every-time",
            "push-adaptive-pull",
        ):
            raise ValueError(f"unknown consistency scheme {self.consistency!r}")
        if self.mobility_model not in (
            "random-waypoint",
            "manhattan",
            "group",
            "stationary",
        ):
            raise ValueError(f"unknown mobility model {self.mobility_model!r}")
        # Timer periods: a zero period reschedules its timer at the same
        # instant forever, so the clock never advances.
        for name in ("gpsr_beacon_interval", "churn_uptime"):
            value = getattr(self, name)
            if value is not None and not value > 0:
                raise ValueError(
                    f"{name} must be positive (None disables it), got {value}"
                )
        for name in ("digest_interval", "prefetch_interval", "churn_downtime"):
            value = getattr(self, name)
            if not value > 0:
                raise ValueError(f"{name} must be positive, got {value}")
        if not 0.0 <= self.churn_crash_fraction <= 1.0:
            raise ValueError(
                f"churn_crash_fraction must be in [0, 1], got {self.churn_crash_fraction}"
            )
        if self.fault_plan is not None and not isinstance(self.fault_plan, FaultPlan):
            raise ValueError(
                f"fault_plan must be a repro.faults.FaultPlan, got {self.fault_plan!r}"
            )
        if self.resilience_retries < 0:
            raise ValueError(
                f"resilience_retries must be >= 0, got {self.resilience_retries}"
            )
        if not 0.0 <= self.resilience_backoff_jitter <= 1.0:
            raise ValueError(
                f"resilience_backoff_jitter must be in [0, 1], got {self.resilience_backoff_jitter}"
            )
        if self.request_deadline is not None and self.request_deadline <= 0:
            raise ValueError(
                f"request_deadline must be positive, got {self.request_deadline}"
            )
        if self.resilience_suspect_after <= 0:
            raise ValueError(
                f"resilience_suspect_after must be positive, got {self.resilience_suspect_after}"
            )
        if self.resilience_breaker_cooldown <= 0:
            raise ValueError(
                f"resilience_breaker_cooldown must be positive, got "
                f"{self.resilience_breaker_cooldown}"
            )

    @property
    def cache_capacity_bytes_hint(self) -> float:
        """Approximate per-peer cache capacity implied by cache_fraction.

        The exact value depends on the realized item sizes; the network
        facade computes it from the actual database.  This property uses
        the expected mean item size, for display purposes.
        """
        mean_item = (self.min_item_bytes + self.max_item_bytes) / 2.0
        return self.cache_fraction * mean_item * self.n_items
