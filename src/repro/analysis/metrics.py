"""Per-run metric collection and reporting.

Collects exactly the quantities the paper's evaluation reports:

* **average latency per request** (Figs. 4, 8) — issue-to-serve time,
  averaged over all served requests (locally served requests contribute
  their near-zero serve time);
* **byte hit ratio** (Fig. 5) — fraction of served bytes satisfied
  *within the requester's region* (own static store, own cache, or a
  regional member's cache) — the paper's "local hit";
* **false hit ratio** (Fig. 7) — stale serves / serves shown as valid;
* **control message overhead** (Fig. 6) — transmissions in the
  ``consistency`` packet category (pushes, invalidation-flood hops,
  polls, replies);
* **energy per request** (Fig. 9) — total Feeney-model energy divided
  by served requests.

Serve classes
-------------
``local-static``  own static store;  ``local-cache``  own dynamic cache
(possibly after a validation poll); ``regional``  another peer in the
same region; ``home``  the key's home region; ``replica``  the replica
region; ``intercept``  an en-route cache on the GPSR path;
``degraded``  the replica, reached by a circuit-breaker steer around a
suspected home region (:mod:`repro.resilience`) — counted lazily so
runs that never degrade report the classic class set unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from repro.sim import StatRegistry, WelfordAccumulator
from repro.sim.quantiles import QuantileSet

__all__ = ["RequestMetrics", "RunReport", "jain_fairness"]


def jain_fairness(values) -> float:
    """Jain's fairness index of a nonnegative allocation.

    ``(sum x)^2 / (n * sum x^2)`` — 1.0 when perfectly equal, ``1/n``
    when one node carries everything.  Used to judge how evenly a
    retrieval scheme spreads energy drain across peers: in MP2P systems
    an unfair scheme kills its custodian batteries first.
    """
    xs = [float(v) for v in values]
    if not xs:
        return float("nan")
    total = sum(xs)
    if total == 0:
        return 1.0  # nobody spent anything: trivially fair
    square_sum = sum(x * x for x in xs)
    return total * total / (len(xs) * square_sum)

#: Serve classes counted as a *byte hit* (satisfied within the region).
LOCAL_CLASSES = frozenset({"local-static", "local-cache", "regional"})

SERVE_CLASSES = (
    "local-static",
    "local-cache",
    "regional",
    "home",
    "replica",
    "intercept",
)

#: Serve classes that only exist behind feature gates.  They are NOT
#: prepopulated in ``served_by_class`` — a prepopulated zero would leak
#: into every report digest — and only appear once actually served.
EXTRA_SERVE_CLASSES = frozenset({"degraded"})


class RequestMetrics:
    """Accumulates request outcomes for one simulation run."""

    def __init__(self) -> None:
        self.requests_issued = 0
        self.updates_issued = 0
        self.requests_failed = 0
        self.served_by_class: Dict[str, int] = {cls: 0 for cls in SERVE_CLASSES}
        self.latency = WelfordAccumulator()
        #: Streaming latency percentiles (P² estimators; O(1) memory).
        self.latency_quantiles = QuantileSet((0.5, 0.95, 0.99))
        self.bytes_served = 0.0
        self.bytes_served_local = 0.0
        #: Serves that went through an explicit validation poll.
        self.validated_serves = 0
        #: Serves shown as valid without validation (FHR denominator).
        self.unvalidated_serves = 0
        #: Unvalidated serves whose data was stale (FHR numerator).
        self.stale_serves = 0

    # -- recording -----------------------------------------------------------

    def on_request_issued(self) -> None:
        self.requests_issued += 1

    def on_update_issued(self) -> None:
        self.updates_issued += 1

    def on_request_failed(self) -> None:
        self.requests_failed += 1

    def on_served(
        self,
        serve_class: str,
        latency: float,
        size_bytes: float,
        stale: bool,
        validated: bool,
    ) -> None:
        if (
            serve_class not in self.served_by_class
            and serve_class not in EXTRA_SERVE_CLASSES
        ):
            raise ValueError(f"unknown serve class {serve_class!r}")
        self.served_by_class[serve_class] = (
            self.served_by_class.get(serve_class, 0) + 1
        )
        self.latency.add(latency)
        self.latency_quantiles.add(latency)
        self.bytes_served += size_bytes
        if serve_class in LOCAL_CLASSES:
            self.bytes_served_local += size_bytes
        if validated:
            self.validated_serves += 1
        else:
            self.unvalidated_serves += 1
            if stale:
                self.stale_serves += 1

    # -- derived metrics --------------------------------------------------------

    @property
    def requests_served(self) -> int:
        return sum(self.served_by_class.values())

    @property
    def average_latency(self) -> float:
        return self.latency.mean

    @property
    def byte_hit_ratio(self) -> float:
        if self.bytes_served == 0:
            return float("nan")
        return self.bytes_served_local / self.bytes_served

    @property
    def false_hit_ratio(self) -> float:
        """Stale hits over hits shown as valid (paper §6.2.2)."""
        shown_valid = self.unvalidated_serves + self.validated_serves
        if shown_valid == 0:
            return float("nan")
        return self.stale_serves / shown_valid

    def reset(self) -> None:
        """Zero everything (used at the end of the warm-up phase)."""
        self.__init__()


@dataclass
class RunReport:
    """Immutable summary of one finished simulation run."""

    config_label: str
    duration: float
    requests_issued: int
    requests_served: int
    requests_failed: int
    updates_issued: int
    average_latency: float
    byte_hit_ratio: float
    false_hit_ratio: float
    consistency_messages: float
    total_messages: float
    energy_total_uj: float
    latency_p50: float = float("nan")
    latency_p95: float = float("nan")
    latency_p99: float = float("nan")
    served_by_class: Dict[str, int] = field(default_factory=dict)
    extra: Dict[str, float] = field(default_factory=dict)
    #: Events silently discarded by the bounded event-log ring (0 when
    #: logging is off or nothing was truncated).  Excluded from the
    #: report digest (``repro.faults.audit.report_summary`` enumerates
    #: hashed fields explicitly).
    eventlog_dropped: int = 0

    @property
    def energy_per_request_mj(self) -> float:
        """Energy per served request in millijoules (Fig. 9 units)."""
        if self.requests_served == 0:
            return float("nan")
        return self.energy_total_uj / self.requests_served / 1000.0

    @property
    def delivery_ratio(self) -> float:
        if self.requests_issued == 0:
            return float("nan")
        return self.requests_served / self.requests_issued

    @staticmethod
    def from_run(
        label: str,
        duration: float,
        metrics: RequestMetrics,
        stats: StatRegistry,
        energy_total_uj: float,
        eventlog_dropped: int = 0,
    ) -> "RunReport":
        total_msgs = stats.value("net.broadcast_sent") + stats.value("net.unicast_sent")
        # Per-category transmission counts (request/response/consistency/
        # handoff/digest/...), exposed via `extra["sent.<category>"]`.
        prefix = "count.net.sent."
        extra = {
            f"sent.{name[len(prefix):]}": value
            for name, value in stats.snapshot().items()
            if name.startswith(prefix)
        }
        return RunReport(
            extra=extra,
            config_label=label,
            duration=duration,
            requests_issued=metrics.requests_issued,
            requests_served=metrics.requests_served,
            requests_failed=metrics.requests_failed,
            updates_issued=metrics.updates_issued,
            average_latency=metrics.average_latency,
            byte_hit_ratio=metrics.byte_hit_ratio,
            false_hit_ratio=metrics.false_hit_ratio,
            consistency_messages=stats.value("net.sent.consistency"),
            total_messages=total_msgs,
            energy_total_uj=energy_total_uj,
            latency_p50=metrics.latency_quantiles.value(0.5),
            latency_p95=metrics.latency_quantiles.value(0.95),
            latency_p99=metrics.latency_quantiles.value(0.99),
            served_by_class=dict(metrics.served_by_class),
            eventlog_dropped=eventlog_dropped,
        )

    def row(self) -> str:
        """One human-readable results row."""
        return (
            f"{self.config_label:<32} "
            f"lat={self.average_latency:7.4f}s  "
            f"bhr={self.byte_hit_ratio:6.4f}  "
            f"fhr={self.false_hit_ratio:8.6f}  "
            f"cons_msgs={self.consistency_messages:9.0f}  "
            f"E/req={self.energy_per_request_mj:8.3f}mJ  "
            f"served={self.requests_served}/{self.requests_issued}"
        )
