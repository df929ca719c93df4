"""One composition object for every observer subsystem.

Before this module, each observer (tracer, telemetry sampler, flight
recorder) was wired into :class:`~repro.core.network.PReCinCtNetwork`
by its own ad-hoc block of duck-typed hook assignments.
:class:`Observers` replaces those with a single declarative surface and
one :meth:`attach` entry point::

    from repro.api import Observers, SimulationConfig
    from repro.core.network import PReCinCtNetwork

    obs = Observers(tracing=True, energy_attribution=True,
                    anomaly_rules=("mac.backlog_max_s>5",))
    net = PReCinCtNetwork(SimulationConfig(), observers=obs)
    net.run()
    print(obs.energy.by_phase())

Every option defaults to ``None`` — *inherit the setting from the
engine's* :class:`~repro.config.SimulationConfig` — so ``Observers()``
reproduces exactly what the config flags ask for, and an explicit
``True``/``False``/value overrides the config without rebuilding it.

All attached subsystems are pure observers (no RNG from simulation
streams, no stat writes, no lazily-refreshing position queries), so a
run with any combination attached is digest-identical to the bare run
— the invariant the golden-digest tests pin.
"""

from __future__ import annotations

from typing import Optional, Sequence, Union

__all__ = ["Observers"]

#: Sentinel distinguishing "not given" from an explicit ``None``.
_INHERIT = None


class Observers:
    """Composition of all observer subsystems for one simulation run.

    Parameters (``None`` = inherit from the engine's config):

    tracing / trace_sample_rate:
        Request tracing (:class:`~repro.obs.tracer.Tracer`) and its
        head-based sample rate.
    telemetry / telemetry_interval:
        Periodic state snapshots
        (:class:`~repro.obs.telemetry.TelemetrySampler`).
    recorder_dir / recorder_events / recorder_max_dumps:
        Flight-recorder bundles
        (:class:`~repro.obs.recorder.FlightRecorder`).
    energy_attribution:
        Span-level energy attribution
        (:class:`~repro.energy.attribution.EnergyAttributor`).
    anomaly_rules:
        Telemetry threshold rules
        (:class:`~repro.obs.anomaly.AnomalyWatcher`); implies nothing
        by itself — telemetry must be on for rules to be checked.
    stream / live_export / metrics_snapshot:
        Live streaming (:class:`~repro.obs.stream.TelemetryBus`):
        ``stream=True`` arms the bus; ``live_export=PATH`` attaches an
        append-per-sample JSONL sink
        (:class:`~repro.obs.stream.JsonlLiveSink`);
        ``metrics_snapshot=PATH`` attaches the Prometheus-style
        snapshot writer.  Either sink (or the dashboard) implies the
        bus, and any of them implies the telemetry sampler.
    dashboard / dashboard_mode / watch_interval / dashboard_out:
        Live terminal dashboard
        (:class:`~repro.obs.dashboard.Dashboard`): render mode
        (``auto``/``ansi``/``plain``), minimum wall seconds between
        repaints, and the output stream (defaults to stderr; tests
        inject a ``StringIO``).
    """

    def __init__(
        self,
        *,
        tracing: Optional[bool] = _INHERIT,
        trace_sample_rate: Optional[float] = _INHERIT,
        telemetry: Optional[bool] = _INHERIT,
        telemetry_interval: Optional[float] = _INHERIT,
        recorder_dir=_INHERIT,
        recorder_events: Optional[int] = _INHERIT,
        recorder_max_dumps: Optional[int] = _INHERIT,
        energy_attribution: Optional[bool] = _INHERIT,
        anomaly_rules: Optional[Sequence[Union[str, object]]] = _INHERIT,
        stream: Optional[bool] = _INHERIT,
        live_export=_INHERIT,
        metrics_snapshot=_INHERIT,
        dashboard: Optional[bool] = _INHERIT,
        dashboard_mode: Optional[str] = _INHERIT,
        watch_interval: Optional[float] = _INHERIT,
        dashboard_out=_INHERIT,
    ):
        self._opts = {
            "tracing": tracing,
            "trace_sample_rate": trace_sample_rate,
            "telemetry": telemetry,
            "telemetry_interval": telemetry_interval,
            "recorder_dir": recorder_dir,
            "recorder_events": recorder_events,
            "recorder_max_dumps": recorder_max_dumps,
            "energy_attribution": energy_attribution,
            "anomaly_rules": anomaly_rules,
            "stream": stream,
            "live_export": live_export,
            "metrics_snapshot": metrics_snapshot,
            "dashboard": dashboard,
            "dashboard_mode": dashboard_mode,
            "watch_interval": watch_interval,
            "dashboard_out": dashboard_out,
        }
        self.tracer = None
        self.telemetry = None
        self.recorder = None
        self.energy = None
        self.anomaly = None
        self.bus = None
        self.dashboard = None
        self.live_sink = None
        self.metrics_sink = None
        self._net = None
        self._finished = False

    def _opt(self, name: str, cfg_value):
        value = self._opts[name]
        return cfg_value if value is _INHERIT else value

    @property
    def attached(self) -> bool:
        return self._net is not None

    def attach(self, net) -> "Observers":
        """Build and wire every enabled observer into ``net``.

        ``net`` is a :class:`~repro.core.network.PReCinCtNetwork` whose
        substrates (sim, stack, peers, energy ledger, event log,
        faults) are already constructed.  Idempotence guard: a second
        attach (or attaching one instance to two engines) raises.
        """
        if self._net is not None:
            raise RuntimeError(
                "Observers instance is already attached to an engine"
            )
        self._net = net
        cfg = net.cfg

        if self._opt("tracing", cfg.enable_tracing):
            from repro.obs.sampling import make_sampler
            from repro.obs.tracer import Tracer

            # The head-based sampler draws from the dedicated "obs"
            # stream: stream independence keeps any sample rate
            # digest-neutral.  Rate 1.0 installs no sampler at all.
            rate = self._opt("trace_sample_rate", cfg.trace_sample_rate)
            sampler = make_sampler(rate, rng=net.rngs.get("obs"))
            self.tracer = Tracer(lambda: net.sim.now, sampler=sampler)
            net.stack.router.on_hop = net._on_gpsr_hop
            if net.faults is not None and net.faults.injector is not None:
                net.faults.injector.observer = net._on_fault_fired

        if self._opt("energy_attribution", cfg.enable_energy_attribution):
            from repro.energy.attribution import EnergyAttributor

            peers = net.peers

            def region_of(node: int) -> int:
                return peers[node].current_region_id

            self.energy = EnergyAttributor(
                tracer=self.tracer, region_of=region_of
            )
            net.network.energy.observer = self.energy

        # Any live consumer (a sink, the dashboard, or an explicit
        # stream=True) arms the bus, and the bus implies the sampler:
        # live views are fed by the same periodic rows as the table.
        live_export = self._opt("live_export", cfg.live_export_path)
        metrics_snapshot = self._opt(
            "metrics_snapshot", cfg.metrics_snapshot_path
        )
        dashboard_on = self._opt("dashboard", cfg.enable_dashboard)
        stream_on = (
            self._opt("stream", cfg.enable_stream)
            or live_export is not None
            or metrics_snapshot is not None
            or dashboard_on
        )

        if self._opt("telemetry", cfg.enable_telemetry) or stream_on:
            from repro.obs.telemetry import TelemetrySampler

            self.telemetry = TelemetrySampler(
                net.sim,
                net._telemetry_snapshot,
                self._opt("telemetry_interval", cfg.telemetry_interval),
                until=cfg.duration,
            )

        if stream_on:
            from repro.obs.stream import (
                JsonlLiveSink,
                MetricsSnapshotWriter,
                TelemetryBus,
            )

            self.bus = TelemetryBus()
            self.telemetry.bus = self.bus
            if live_export is not None:
                self.live_sink = JsonlLiveSink(live_export)
                self.bus.attach_sink(self.live_sink)
            if metrics_snapshot is not None:
                self.metrics_sink = MetricsSnapshotWriter(metrics_snapshot)
                self.bus.attach_sink(self.metrics_sink)

        recorder_dir = self._opt("recorder_dir", cfg.flight_recorder_dir)
        if recorder_dir is not None:
            from repro.obs.recorder import FlightRecorder

            self.recorder = FlightRecorder(
                recorder_dir,
                eventlog=net.log,
                tracer=self.tracer,
                telemetry=self.telemetry.table if self.telemetry else None,
                last_events=self._opt(
                    "recorder_events", cfg.flight_recorder_events
                ),
                max_dumps=self._opt(
                    "recorder_max_dumps", cfg.flight_recorder_max_dumps
                ),
            )
            net.sim.on_crash = net._on_engine_crash

        rules = self._opt("anomaly_rules", cfg.anomaly_rules)
        if rules:
            from repro.obs.anomaly import AnomalyWatcher

            self.anomaly = AnomalyWatcher(
                rules, recorder=self.recorder, bus=self.bus
            )
            if self.telemetry is not None:
                self.telemetry.on_sample = self.anomaly.check

        if dashboard_on:
            from repro.obs.dashboard import Dashboard

            self.dashboard = Dashboard(
                self.bus,
                duration=cfg.duration,
                interval=self._opt("watch_interval", cfg.watch_interval),
                mode=self._opt("dashboard_mode", cfg.dashboard_mode),
                out=self._opt("dashboard_out", None),
                anomaly=self.anomaly,
            )
        return self

    def finish(self) -> None:
        """End-of-run finalization; called by the engine after the loop.

        Order matters: the sampler's final catch-up row must reach the
        bus *before* the live sink writes its ``end`` marker and the
        dashboard paints its last frame.  Idempotent — every step is.
        """
        if self._finished:
            return
        self._finished = True
        if self.telemetry is not None:
            self.telemetry.finalize()
        if self.dashboard is not None:
            self.dashboard.close()
        if self.bus is not None:
            self.bus.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        active = [
            name for name, obj in (
                ("tracer", self.tracer),
                ("telemetry", self.telemetry),
                ("recorder", self.recorder),
                ("energy", self.energy),
                ("anomaly", self.anomaly),
                ("bus", self.bus),
                ("dashboard", self.dashboard),
            ) if obj is not None
        ]
        return f"Observers({', '.join(active) or 'none active'})"
