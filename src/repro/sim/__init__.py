"""Discrete-event simulation kernel.

This subpackage provides the simulation substrate used by every other part
of the PReCinCt reproduction: a deterministic event-queue scheduler
(:class:`~repro.sim.engine.Simulator`), a lightweight generator-based
process layer (:class:`~repro.sim.engine.Process`,
:class:`~repro.sim.engine.Timeout`),
seeded random-stream management (:class:`~repro.sim.rng.RngRegistry`) and
statistics collection (:mod:`repro.sim.trace`).

The kernel is intentionally free of any networking or caching concepts;
those live in :mod:`repro.net` and :mod:`repro.core`.
"""

from repro.sim.engine import (
    Process,
    SimulationError,
    Simulator,
    Timeout,
)
from repro.sim.rng import RngRegistry
from repro.sim.trace import Counter, StatRegistry, TimeSeries, WelfordAccumulator

__all__ = [
    "Counter",
    "Process",
    "RngRegistry",
    "SimulationError",
    "Simulator",
    "StatRegistry",
    "TimeSeries",
    "Timeout",
    "WelfordAccumulator",
]
