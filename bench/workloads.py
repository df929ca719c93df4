"""The benchmark's seven named workloads.

A workload's parameters are frozen once a record has been committed:
to measure something else add a *new* name here and in
``BENCHMARK.json`` - retuning an existing one silently invalidates
every comparison made with it.  ``why`` is the one-line reason that
``BENCHMARK.json`` repeats.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Union

__all__ = ["NOMINAL_RUN_S", "SimWorkload", "SvcWorkload", "WORKLOADS"]

#: ``run_seconds`` of ``BENCHMARK.json``: the measuring time a
#: :class:`SimWorkload`'s ``repeats`` were sized for.
NOMINAL_RUN_S = 12.0


@dataclass(frozen=True)
class SimWorkload:
    """One simulated scenario: ``SimulationConfig(seed=..., **config)``."""

    name: str
    why: str
    config: Dict[str, object]
    #: Timed repeats in a run of ``NOMINAL_RUN_S`` (other run lengths
    #: scale it): what fitted in that time on the seed commit.
    repeats: int
    #: Seed whose digest and event count ``expected.json`` pins.
    default_seed: int = 7
    runtime = "sim"


@dataclass(frozen=True)
class SvcWorkload:
    """One traffic mix against an in-process ``EdgeCacheServer``."""

    name: str
    why: str
    #: ``ServiceConfig`` overrides; every other field keeps its
    #: ``repro serve`` default.  ``port=0`` is always added.
    server: Dict[str, object]
    theta: float
    put_ratio: float
    #: Open-loop rate in req/s; None runs the closed loop.
    rate: Optional[float] = None
    connections: int = 2
    #: Closed-loop requests in flight per connection (2 x 16 = 32 stays
    #: under ``max_inflight`` = 64, so nothing is shed).
    window: int = 16
    default_seed: int = 7
    runtime = "svc"


_HOT_SERVER = {"n_shards": 4, "n_items": 2000, "cache_fraction": 0.25}

_ALL = [
    SimWorkload(
        "sim_mobile_beacon",
        "60 mobile nodes with 1 s HELLO beacons: radio delivery, energy "
        "charging and per-tick neighbour/planarization memo invalidation "
        "dominate; continues the BENCH_0006 kernel shape",
        dict(
            n_nodes=60, n_items=240, width=1200.0, height=1200.0,
            n_regions=9, max_speed=6.0, duration=520.0, warmup=20.0,
            t_request=10.0, t_update=60.0, consistency="push-adaptive-pull",
            cache_fraction=0.05, gpsr_beacon_interval=1.0,
        ),
        repeats=5,
    ),
    SimWorkload(
        "sim_static_read",
        "120 stationary nodes, read-only: region flood + GPSR + peer state "
        "machine do the work and the topology never changes, so it bypasses "
        "any neighbour-cache or planarization optimisation",
        dict(
            n_nodes=120, n_items=480, max_speed=0.0, consistency="none",
            t_request=4.0, cache_fraction=0.02, duration=140.0, warmup=20.0,
        ),
        repeats=5, default_seed=11,
    ),
    SimWorkload(
        "sim_scale_500",
        "500 mobile nodes over 64 regions: long GPSR paths and all-pairs "
        "neighbour fill per generation make an event cost 3x the 60-node "
        "one; construction time and RSS grow with n",
        dict(
            n_nodes=500, n_items=2000, width=3200.0, height=3200.0,
            n_regions=64, max_speed=6.0, duration=25.0, warmup=5.0,
            t_request=10.0, t_update=60.0, consistency="push-adaptive-pull",
        ),
        repeats=4,
    ),
    SvcWorkload(
        "svc_hot_read",
        "gets only, Zipf 0.9, hit ratio 0.94, closed loop: the cache core "
        "is trivial, so wire JSON, per-request task churn and the asyncio "
        "runtime are the whole cost",
        _HOT_SERVER, theta=0.9, put_ratio=0.0,
    ),
    SvcWorkload(
        "svc_cold_read",
        "20,000 items, uniform keys, tiny cache, hit ratio 0.01: every get "
        "runs origin fetch, GD-LD admission and eviction; framing work is "
        "the same as svc_hot_read, so a wire-only gain shows half as much",
        {"n_shards": 4, "n_items": 20000, "cache_fraction": 0.002},
        theta=0.0, put_ratio=0.0,
    ),
    SvcWorkload(
        "svc_write_mix",
        "svc_hot_read with 30 % puts: two UpdatePush per put and the "
        "hit-validated path, so a read-path gain that taxes writes shows",
        _HOT_SERVER, theta=0.9, put_ratio=0.3,
    ),
    SvcWorkload(
        "svc_open_4k",
        "open loop at 4,000 req/s (a fifth of capacity), 10 % puts, latency "
        "from due time: closed loops hide per-request hop latency and stalls",
        # An open loop sends every request a sandbox stall made late in
        # one burst; the default bound of 64 per shard would shed part of
        # it.  The wider bound turns such a stall into latency, not failures.
        dict(_HOT_SERVER, max_inflight=4096),
        theta=0.9, put_ratio=0.1, rate=4000.0,
    ),
]

WORKLOADS: Dict[str, Union[SimWorkload, SvcWorkload]] = {w.name: w for w in _ALL}
