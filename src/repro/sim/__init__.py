"""Discrete-event simulation kernel.

This subpackage provides the simulation substrate used by every other part
of the PReCinCt reproduction: a deterministic event-queue scheduler
(:class:`~repro.sim.engine.Simulator`), whose ``schedule`` /
``schedule_at`` callbacks are the only way to put work on the clock,
seeded random-stream management (:class:`~repro.sim.rng.RngRegistry`) and
statistics collection (:mod:`repro.sim.trace`).

The kernel is intentionally free of any networking or caching concepts;
those live in :mod:`repro.net` and :mod:`repro.core`.
"""

from repro.sim.engine import SimulationError, Simulator
from repro.sim.rng import RngRegistry
from repro.sim.trace import Counter, StatRegistry, WelfordAccumulator

__all__ = [
    "Counter",
    "RngRegistry",
    "SimulationError",
    "Simulator",
    "StatRegistry",
    "WelfordAccumulator",
]
