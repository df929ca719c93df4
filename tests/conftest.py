"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import asyncio

import numpy as np
import pytest

from repro.config import SimulationConfig
from repro.mobility import StationaryModel
from repro.net import RadioParams, WirelessNetwork
from repro.sim import RngRegistry, Simulator


@pytest.fixture
def sim() -> Simulator:
    return Simulator()


@pytest.fixture
def rngs() -> RngRegistry:
    return RngRegistry(seed=12345)


async def wait_until(predicate, timeout=5.0, interval=0.02):
    """Poll ``predicate`` on the running loop until it holds."""
    deadline = asyncio.get_event_loop().time() + timeout
    while not predicate():
        if asyncio.get_event_loop().time() > deadline:
            raise AssertionError("condition not reached in time")
        await asyncio.sleep(interval)


def make_static_network(
    positions,
    sim: Simulator | None = None,
    range_m: float = 250.0,
    seed: int = 7,
    width: float | None = None,
    height: float | None = None,
) -> WirelessNetwork:
    """A WirelessNetwork with nodes pinned at explicit positions."""
    positions = np.asarray(positions, dtype=float)
    sim = sim if sim is not None else Simulator()
    rngs = RngRegistry(seed)
    w = width if width is not None else max(float(positions[:, 0].max()) + 1.0, 1.0)
    h = height if height is not None else max(float(positions[:, 1].max()) + 1.0, 1.0)
    mobility = StationaryModel(
        positions.shape[0], w, h, rng=rngs.get("placement"), positions=positions
    )
    radio = RadioParams(range_m=range_m)
    return WirelessNetwork(sim, mobility, rng=rngs.get("mac"), radio=radio)


def tiny_config(**overrides) -> SimulationConfig:
    """A small, fast configuration for integration tests."""
    defaults = dict(
        n_nodes=24,
        n_items=120,
        duration=150.0,
        warmup=30.0,
        max_speed=4.0,
        seed=11,
        # Smaller plane than the paper's 1200 m square: 24 nodes at
        # 250 m range would partition there; 800 m keeps the density
        # comparable to the paper's 80-node setup.
        width=800.0,
        height=800.0,
    )
    defaults.update(overrides)
    return SimulationConfig(**defaults)


def all_timers_config(**overrides) -> SimulationConfig:
    """A run that wakes every timer kind: arrivals, region sweep, custody
    repair, churn, digests, prefetch, beacons and the region manager
    (attach the invariant checker for the ninth)."""
    defaults = dict(
        n_nodes=40,
        n_items=120,
        width=900,
        height=900,
        n_regions=9,
        max_speed=8,
        duration=300,
        warmup=30,
        t_request=8,
        t_update=40,
        consistency="push-adaptive-pull",
        churn_uptime=120,
        churn_downtime=30,
        enable_digest=True,
        enable_prefetch=True,
        gpsr_beacon_interval=2,
        dynamic_regions=True,
        region_manage_interval=30,
        region_min_peers=2,
        region_max_peers=8,
        enable_event_log=True,
        seed=1,
    )
    defaults.update(overrides)
    return SimulationConfig(**defaults)
