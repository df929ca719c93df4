"""Deterministic observability for PReCinCt runs.

Three pillars, all pure observers of the simulation (no RNG draws, no
stat writes, no position refreshes — enabling any of them leaves the
golden event-log and report digests byte-identical):

* :mod:`repro.obs.tracer` — per-request causal traces with typed,
  sim-time spans and fault tags; JSONL and Chrome trace-event export;
* :mod:`repro.obs.sampling` — head-based probabilistic trace sampling
  on a dedicated observer RNG stream (bounded tracer memory for
  million-request runs, still digest-neutral);
* :mod:`repro.obs.tracediff` — cross-run trace diffing: align two
  JSONL exports, rank per-phase latency regressions, attribute faults;
* :mod:`repro.obs.telemetry` — periodic rows of counters, cache
  occupancy, and MAC backlog, each published on a :class:`TelemetryBus`;
* :mod:`repro.obs.recorder` — flight-recorder bundles dumped on
  invariant violations, unserved requests, and audit divergence;
* :mod:`repro.obs.anomaly` — declarative telemetry threshold rules
  that fire flight-recorder bundles mid-run;
* :mod:`repro.obs.stream` — the :class:`TelemetryBus`, the one path a
  sampled row takes: fan-out to ring-buffer subscribers, an
  append-per-sample JSONL live export, a Prometheus-style metrics
  snapshot, anomaly rules, and the dashboard;
* :mod:`repro.obs.dashboard` — the ``--watch`` terminal dashboard
  (in-place ANSI repaint, plain-line fallback) fed by the bus;
* :mod:`repro.obs.watch` — ``repro watch``: follow or replay a live
  export through the same dashboard;
* :mod:`repro.obs.observers` — the :class:`Observers` composition
  object: one ``attach(engine)`` wiring for every pillar (including
  the span-level :class:`~repro.energy.attribution.EnergyAttributor`);
* :mod:`repro.obs.export` — the shared export-path handling and JSONL
  writer.

See ``docs/OBSERVABILITY.md`` for the user-facing tour.
"""

from repro.obs.anomaly import AnomalyRule, AnomalyWatcher
from repro.obs.dashboard import Dashboard
from repro.obs.export import export_path, write_jsonl
from repro.obs.observers import Observers
from repro.obs.recorder import FlightRecorder
from repro.obs.sampling import TraceSampler, make_sampler
from repro.obs.stream import (
    JsonlLiveSink,
    MetricsSnapshotWriter,
    RingSubscriber,
    TelemetryBus,
)
from repro.obs.telemetry import TelemetrySampler
from repro.obs.tracediff import TraceDiff, diff_files, diff_traces, load_traces
from repro.obs.tracer import Span, Trace, Tracer
from repro.obs.watch import WatchResult, watch_file

__all__ = [
    "AnomalyRule",
    "AnomalyWatcher",
    "Dashboard",
    "FlightRecorder",
    "JsonlLiveSink",
    "MetricsSnapshotWriter",
    "Observers",
    "RingSubscriber",
    "Span",
    "TelemetryBus",
    "Trace",
    "TraceDiff",
    "TraceSampler",
    "Tracer",
    "TelemetrySampler",
    "WatchResult",
    "diff_files",
    "diff_traces",
    "export_path",
    "load_traces",
    "make_sampler",
    "write_jsonl",
]
