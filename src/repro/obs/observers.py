"""One composition object for every observer subsystem.

:class:`Observers` is the single declarative surface, with one
:meth:`attach` entry point, through which every observer is wired into
a :class:`~repro.core.network.PReCinCtNetwork`::

    from repro.api import Observers, SimulationConfig
    from repro.core.network import PReCinCtNetwork

    obs = Observers(tracing=True, energy_attribution=True,
                    anomaly_rules=("mac.backlog_max_s>5",))
    net = PReCinCtNetwork(SimulationConfig(), observers=obs)
    net.run()
    print(obs.energy.by_phase())

This is the *only* way to arm an observer: ``Observers()`` arms
nothing and ``PReCinCtNetwork(cfg)`` is the bare run.  Option values
are checked at construction, before any engine exists.

All attached subsystems are pure observers (no RNG from simulation
streams, no stat writes, no lazily-refreshing position queries), so a
run with any combination attached is digest-identical to the bare run
— the invariant the golden-digest tests pin, and the reason no option
here is a :class:`~repro.config.SimulationConfig` field.
"""

from __future__ import annotations

from typing import Sequence, Union

from repro.checks import check_numbers

__all__ = ["Observers"]

#: The numeric options, in the rows of :func:`~repro.checks.check_numbers`:
#: option, integral, whether 0 is allowed, and what None means.
_NUMERIC_OPTIONS = (
    ("trace_sample_rate", False, True, None),  # 0: trace nothing
    ("telemetry_interval", False, False, None),
    ("recorder_max_dumps", True, False, None),
    ("watch_interval", False, False, None),
)


class Observers:
    """Composition of all observer subsystems for one simulation run.

    Parameters (everything off by default):

    tracing / trace_sample_rate:
        Request tracing (:class:`~repro.obs.tracer.Tracer`) and its
        head-based sample rate in [0, 1]: each request is traced fully
        with this probability and not at all otherwise (1.0 = trace
        everything, draw-free).
    telemetry / telemetry_interval:
        Periodic state snapshots
        (:class:`~repro.obs.telemetry.TelemetrySampler`) every
        ``telemetry_interval`` simulated seconds.
    recorder_dir / recorder_max_dumps:
        Flight-recorder bundles
        (:class:`~repro.obs.recorder.FlightRecorder`): the directory
        that arms the recorder and the bundle cap per run.
    energy_attribution:
        Span-level energy attribution
        (:class:`~repro.energy.attribution.EnergyAttributor`).
    anomaly_rules:
        Telemetry threshold rules
        (:class:`~repro.obs.anomaly.AnomalyWatcher`), checked against
        each published row; implies telemetry.
    live_export / metrics_snapshot:
        Sinks on the sampler's :class:`~repro.obs.stream.TelemetryBus`:
        ``live_export=PATH`` attaches an append-per-sample JSONL sink
        (:class:`~repro.obs.stream.JsonlLiveSink`);
        ``metrics_snapshot=PATH`` attaches the Prometheus-style
        snapshot writer.  Either implies telemetry.
    dashboard / dashboard_mode / watch_interval / dashboard_out:
        Live terminal dashboard
        (:class:`~repro.obs.dashboard.Dashboard`): render mode
        (``auto``/``ansi``/``plain``), minimum wall seconds between
        repaints, and the output stream (defaults to stderr; tests
        inject a ``StringIO``).  Implies telemetry.
    """

    def __init__(
        self,
        *,
        tracing: bool = False,
        trace_sample_rate: float = 1.0,
        telemetry: bool = False,
        telemetry_interval: float = 5.0,
        recorder_dir=None,
        recorder_max_dumps: int = 5,
        energy_attribution: bool = False,
        anomaly_rules: Sequence[Union[str, object]] = (),
        live_export=None,
        metrics_snapshot=None,
        dashboard: bool = False,
        dashboard_mode: str = "auto",
        watch_interval: float = 1.0,
        dashboard_out=None,
    ):
        check_numbers(locals(), _NUMERIC_OPTIONS, {"trace_sample_rate": 1.0})
        if dashboard_mode not in ("auto", "ansi", "plain"):
            raise ValueError(
                f"dashboard_mode must be 'auto', 'ansi', or 'plain', "
                f"got {dashboard_mode!r}"
            )
        if anomaly_rules:
            from repro.obs.anomaly import AnomalyRule

            anomaly_rules = tuple(
                r if isinstance(r, AnomalyRule) else AnomalyRule.parse(r)
                for r in anomaly_rules  # raises ValueError on bad specs
            )
        #: Head-based sample rate, printed by the run summaries.
        self.trace_sample_rate = trace_sample_rate
        self._opts = {
            "tracing": tracing,
            # Every consumer reads the sampler's bus, so any of them
            # arms the sampler.
            "telemetry": bool(
                telemetry
                or anomaly_rules
                or live_export is not None
                or metrics_snapshot is not None
                or dashboard
            ),
            "telemetry_interval": telemetry_interval,
            "recorder_dir": recorder_dir,
            "recorder_max_dumps": recorder_max_dumps,
            "energy_attribution": energy_attribution,
            "anomaly_rules": anomaly_rules,
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
        opts = self._opts

        if opts["tracing"]:
            from repro.obs.sampling import make_sampler
            from repro.obs.tracer import Tracer

            # The head-based sampler draws from the dedicated "obs"
            # stream: stream independence keeps any sample rate
            # digest-neutral.  Rate 1.0 installs no sampler at all.
            sampler = make_sampler(
                self.trace_sample_rate, rng=net.rngs.get("obs")
            )
            self.tracer = Tracer(lambda: net.sim.now, sampler=sampler)
            net.stack.router.on_hop = net._on_gpsr_hop
            if net.faults is not None and net.faults.injector is not None:
                net.faults.injector.observer = net._on_fault_fired

        if opts["energy_attribution"]:
            from repro.energy.attribution import EnergyAttributor

            peers = net.peers

            def region_of(node: int) -> int:
                return peers[node].current_region_id

            self.energy = EnergyAttributor(
                tracer=self.tracer, region_of=region_of
            )
            net.network.energy.observer = self.energy

        if opts["telemetry"]:
            from repro.obs.stream import JsonlLiveSink, MetricsSnapshotWriter
            from repro.obs.telemetry import TelemetrySampler

            self.telemetry = TelemetrySampler(
                net.sim,
                net._telemetry_snapshot,
                opts["telemetry_interval"],
                until=net.cfg.duration,
            )
            self.bus = self.telemetry.bus
            if opts["live_export"] is not None:
                self.live_sink = JsonlLiveSink(opts["live_export"])
                self.bus.attach_sink(self.live_sink)
            if opts["metrics_snapshot"] is not None:
                self.metrics_sink = MetricsSnapshotWriter(
                    opts["metrics_snapshot"]
                )
                self.bus.attach_sink(self.metrics_sink)

        if opts["recorder_dir"] is not None:
            from repro.obs.recorder import FlightRecorder

            self.recorder = FlightRecorder(
                opts["recorder_dir"],
                eventlog=net.log,
                tracer=self.tracer,
                telemetry=self.telemetry.rows if self.telemetry else None,
                max_dumps=opts["recorder_max_dumps"],
            )
            net.sim.on_crash = net._on_engine_crash

        if opts["anomaly_rules"]:
            from repro.obs.anomaly import AnomalyWatcher

            self.anomaly = AnomalyWatcher(
                opts["anomaly_rules"], recorder=self.recorder, bus=self.bus
            )
            # Registered before the dashboard's listener, so the frame
            # painted for a row already shows the firings it caused.
            self.bus.add_listener(self.anomaly.check)

        if opts["dashboard"]:
            from repro.obs.dashboard import Dashboard

            self.dashboard = Dashboard(
                self.bus,
                duration=net.cfg.duration,
                interval=opts["watch_interval"],
                mode=opts["dashboard_mode"],
                out=opts["dashboard_out"],
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
