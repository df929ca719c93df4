"""Telemetry time-series: periodic in-run snapshots, published on a bus.

End-of-run aggregates (``RunReport``) answer *what happened overall*;
telemetry answers *when*: cache occupancy climbing after the warmup,
MAC backlog spiking during a partition, a counter that only starts
moving once the first TTR poll fires.

Each sampled row is a ``(t, values)`` pair.  The sampler keeps the rows
it took in a plain list and publishes each one on its
:class:`~repro.obs.stream.TelemetryBus`; every consumer (live export,
metrics snapshot, anomaly rules, dashboard) attaches to that bus, the
same way the edge-cache service publishes its telemetry.  A column
minted mid-run (a counter created by a late first event) is simply
absent from the earlier rows.

The sampler piggybacks on the simulator's own event queue.  Extra
scheduled events do not perturb determinism: tie-breaking among the
*other* events keeps their relative order (the sequence counter is
monotone), and the sample callback is a pure reader — no RNG, no
stats writes, and none of the lazily-refreshing position queries.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.obs.stream import TelemetryBus

__all__ = ["TelemetrySampler"]


class TelemetrySampler:
    """Periodically snapshots simulator state onto a :class:`TelemetryBus`.

    Parameters
    ----------
    sim:
        The :class:`~repro.sim.engine.Simulator` whose clock and queue
        drive sampling.
    collect:
        Zero-argument callable returning the ``{column: value}`` snapshot.
        It MUST be a pure reader (see module docstring).
    interval:
        Simulated seconds between samples.
    until:
        Stop rescheduling once the next sample would land past this
        time (defaults to unbounded; ``Simulator.run(until=...)`` also
        bounds it naturally).

    Each row is appended to :attr:`rows` and then published on
    :attr:`bus`.  Bus consumers must be pure observers of simulation
    state, like ``collect`` (dumping a flight-recorder bundle is fine:
    that writes to the filesystem, not the simulation).
    """

    def __init__(
        self,
        sim,
        collect: Callable[[], Dict[str, float]],
        interval: float,
        until: Optional[float] = None,
    ):
        if interval <= 0:
            raise ValueError(f"telemetry interval must be positive: {interval!r}")
        self._sim = sim
        self._collect = collect
        self.interval = float(interval)
        self.until = until
        self.bus = TelemetryBus()
        #: Every sampled ``(t, values)`` row, in publication order.
        self.rows: List[Tuple[float, Dict[str, float]]] = []

    def start(self) -> None:
        """Schedule the first sample one interval from now."""
        self._sim.schedule(self.interval, self._tick)

    def _sample(self) -> None:
        values = self._collect()
        now = self._sim.now
        self.rows.append((now, values))
        self.bus.publish(now, values)

    def _tick(self) -> None:
        self._sample()
        next_time = self._sim.now + self.interval
        if self.until is None or next_time <= self.until:
            self._sim.schedule(self.interval, self._tick)

    def finalize(self) -> bool:
        """Take one last sample at engine-stop time, if the clock moved.

        A run shorter than the sample interval would otherwise finish
        with *no* rows (the first tick never fires); a run whose
        duration is not an interval multiple would silently drop its
        tail.  Called by the engine after the event loop drains; never
        reschedules.  Returns True when a row was added — a no-op when
        the last periodic tick already landed exactly at stop time.
        """
        if self.rows and self._sim.now <= self.rows[-1][0]:
            return False
        self._sample()
        return True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"TelemetrySampler(interval={self.interval}, "
            f"samples={len(self.rows)})"
        )
