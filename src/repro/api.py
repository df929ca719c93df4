"""Stable public API facade.

Everything a script needs to run, audit, and observe a simulation,
importable from one place::

    from repro.api import Observers, SimulationConfig, run_scenario

    report = run_scenario(
        "baseline", seed=42,
        observers=Observers(tracing=True, energy_attribution=True),
    )

The facade re-exports (it defines nothing of its own):

``SimulationConfig``
    Every simulation knob (:mod:`repro.config`).
``PReCinCtNetwork``
    The simulation engine; ``PReCinCtNetwork(cfg, observers=...).run()``
    returns a ``RunReport`` (:mod:`repro.core.network`).
``RunReport``
    The end-of-run metrics bundle (:mod:`repro.analysis.metrics`).
``Observers``
    Composition of all observer subsystems — tracing, telemetry, flight
    recorder, span-level energy attribution, anomaly triggers —
    attached to an engine through one entry point
    (:mod:`repro.obs.observers`).
``run_scenario`` / ``audit_scenario``
    Canonical named scenarios and the determinism audit over them
    (:mod:`repro.faults.audit`).
``reconcile_energy``
    Simulated vs. closed-form (eqs. 11, 12-13) per-request energy with
    a tolerance verdict (:mod:`repro.analysis.energy_reconcile`).
``Clock`` / ``RngStream`` / ``StatSink`` / ``PeerDirectory`` /
``ConsistencyTransport``
    The runtime-agnostic ports the cache core depends on
    (:mod:`repro.ports`) — implement these to host the policy layer in
    a new runtime.
``CacheService``
    One region shard of the edge-cache tier: the simulation's GD-LD /
    TTR / resilience machinery behind an async get/put API
    (:mod:`repro.service.core`).
``EdgeCacheServer`` / ``ServiceConfig``
    The asyncio JSON-lines TCP runtime hosting N geohash-routed
    shards — the ``repro serve`` entry point
    (:mod:`repro.service.server`).
``run_loadgen`` / ``LoadGenConfig``
    The Zipf load generator (closed-loop, or open-loop fixed-rate) —
    the ``repro loadgen`` entry point (:mod:`repro.service.loadgen`).
``ServiceFaultPlan``
    Scripted service-chaos schedule (shard kills/wedges, origin
    brownouts) executed by the server on wall-clock time
    (:mod:`repro.service.faultplan`).

Import paths deeper than :mod:`repro.api` (and the :mod:`repro`
package root re-exports) are internal and may move between releases;
this module's names are the compatibility surface.  The README's
"Public API" table documents exactly this set; a test pins the two
lists against each other.
"""

from __future__ import annotations

from repro.analysis.energy_reconcile import reconcile_energy
from repro.analysis.metrics import RunReport
from repro.config import SimulationConfig
from repro.core.network import PReCinCtNetwork
from repro.faults.audit import audit_scenario, run_scenario
from repro.obs.observers import Observers
from repro.ports import (
    Clock,
    ConsistencyTransport,
    PeerDirectory,
    RngStream,
    StatSink,
)
from repro.service import (
    CacheService,
    EdgeCacheServer,
    LoadGenConfig,
    ServiceConfig,
    ServiceFaultPlan,
    run_loadgen,
)

__all__ = [
    "CacheService",
    "Clock",
    "ConsistencyTransport",
    "EdgeCacheServer",
    "LoadGenConfig",
    "Observers",
    "PReCinCtNetwork",
    "PeerDirectory",
    "RngStream",
    "RunReport",
    "ServiceConfig",
    "ServiceFaultPlan",
    "SimulationConfig",
    "StatSink",
    "audit_scenario",
    "reconcile_energy",
    "run_loadgen",
    "run_scenario",
]
