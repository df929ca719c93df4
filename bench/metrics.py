"""Metric names and the small statistics every runner shares.

``BENCHMARK.json`` lists exactly :data:`END_TO_END` and
:data:`PER_LAYER` (a test checks the bijection); units and directions
live there and in ``README.md``.
"""

from __future__ import annotations

import resource
import statistics
from typing import Dict, Sequence

__all__ = [
    "END_TO_END",
    "PER_LAYER",
    "SIM_LAYERS",
    "SVC_LAYERS",
    "peak_rss_mb",
    "percentile",
    "summary",
    "zeros",
]

#: Every end-to-end metric is reported on every workload.
END_TO_END = (
    "setup_s",
    "peak_rss_mb",
    "ops_per_s",
    "latency_p50_ms",
    "latency_p99_ms",
)

SIM_LAYERS = (
    "sim.engine", "net.network", "net.topology", "routing.gpsr",
    "routing.flooding", "routing.planarization", "routing.stack",
    "core.peer", "core.network", "core.cache", "core.consistency",
    "energy.model", "mobility", "workload", "obs",
)

SVC_LAYERS = (
    "loadgen", "runtime.asyncio", "wire.json", "service.server",
    "service.core", "service.origin", "service.routing", "core.cache",
    "core.consistency", "resilience.manager", "ports",
    "service.supervision",
)

_LAYERS = tuple(dict.fromkeys(SIM_LAYERS + SVC_LAYERS))

PER_LAYER = (
    tuple(f"{layer}.self_s" for layer in _LAYERS)
    + tuple(f"{layer}.calls" for layer in _LAYERS)
    + tuple(f"{layer}.self_us_per_req" for layer in SVC_LAYERS)
    + (
        # exact simulated counts (repeat bit for bit at a given seed)
        "sim.engine.events",
        "workload.requests",
        "net.network.messages",
        "core.consistency.messages",
        "core.cache.byte_hit_ratio",
        "core.cache.false_hit_ratio",
        "core.peer.avg_latency_ms",
        "core.peer.failed_share",
        "energy.model.total_uj",
        # simulator host time
        "sim.engine.self_ns_per_event",
        "workload.requests_per_s",
        "obs.overhead_ratio",
        # service spans and counters
        "loadgen.requests",
        "runtime.idle.self_s",
        "service.core.span_ms_p50",
        "service.core.span_ms_p99",
        "service.origin.wait_ms_p50",
        "service.origin.fetches",
        "service.server.reported_ms_p50",
        "service.server.unaccounted_ms_p50",
        "service.server.shed",
        "core.cache.hit_ratio",
        "core.cache.evictions",
        "core.consistency.pushes",
        "core.consistency.validations",
        "loadgen.late_p99_ms",
        "loadgen.p99_ms_at_2k",
        "loadgen.p99_ms_at_8k",
        "loadgen.max_rate_ok",
        # the harness itself
        "trace.overhead_ratio",
        "trace.unattributed_share",
        "host.cal_factor",
    )
)


def peak_rss_mb() -> float:
    """``ru_maxrss`` of this interpreter, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-th percentile (0 < q <= 100) of ``values``."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))  # ceil(n * q / 100)
    return ordered[int(rank) - 1]


def summary(values: Sequence[float]) -> Dict[str, float]:
    """Median, quartiles and sample count of one metric's rounds."""
    values = list(values)
    if len(values) >= 2:
        # "inclusive" keeps the quartiles inside the data on few samples.
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = q3 = values[0]
    return {
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "n": len(values),
    }


def zeros(names: Sequence[str]) -> Dict[str, float]:
    return {name: 0.0 for name in names}
