"""Deterministic discrete-event simulation engine.

The engine follows the classic event-queue design used by NS-2 and SimPy:
a priority queue of ``(time, sequence)``-ordered events whose
callbacks are executed in nondecreasing virtual-time order.  There is one
way to put work on the clock: :meth:`Simulator.schedule` /
:meth:`Simulator.schedule_at` register a plain callable to run at a
virtual time, and :meth:`Simulator.cancel` withdraws it.  A periodic or
Poisson activity (a beacon, an arrival stream) is a callback that does
its work and then schedules its own next wakeup.

Event records
-------------
Every scheduled callback is one plain list ``[time, seq, callback,
args]`` that *is* the heap entry, so :mod:`heapq` orders events by
C-level list comparison and nothing else is allocated per event.
``seq`` is unique, so comparison never reaches the callback slot.
:meth:`Simulator.schedule` returns the entry; callers that may need to
withdraw it keep the reference and pass it to :meth:`Simulator.cancel`,
everyone else (packet deliveries, batched broadcasts) drops it.

Determinism
-----------
Events scheduled for the same virtual time are executed in ``sequence``
order, where ``sequence`` is a monotonically increasing insertion
counter: same-time events run first in, first out.  Given identical
inputs and seeds a run is exactly reproducible, which the test suite
relies on.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, List, Optional

__all__ = [
    "SimulationError",
    "Simulator",
]


class SimulationError(RuntimeError):
    """Raised for invalid scheduler usage (e.g. scheduling in the past)."""


class Simulator:
    """The event-queue scheduler at the heart of the simulation.

    Example
    -------
    >>> sim = Simulator()
    >>> seen = []
    >>> _ = sim.schedule(2.0, seen.append, "b")
    >>> _ = sim.schedule(1.0, seen.append, "a")
    >>> sim.run()
    >>> seen
    ['a', 'b']
    """

    def __init__(self) -> None:
        self.now: float = 0.0
        self._queue: List[list] = []
        self._sequence = itertools.count()
        self._running = False
        self.events_executed: int = 0
        #: Optional ``callback(exc)`` invoked (before re-raising) when a
        #: dispatched event callback raises — the flight recorder's
        #: crash hook.
        self.on_crash = None

    # -- scheduling ------------------------------------------------------

    def schedule(self, delay: float, callback: Callable[..., Any], *args: Any) -> list:
        """Run ``callback(*args)`` after ``delay`` units of virtual time.

        Insertion order breaks ties among same-time events.  The
        returned entry can be passed to :meth:`cancel`; ignoring it costs
        nothing.
        """
        if not delay >= 0:  # also rejects NaN
            raise SimulationError(f"cannot schedule into the past (delay={delay!r})")
        event = [self.now + delay, next(self._sequence), callback, args]
        heapq.heappush(self._queue, event)
        return event

    def schedule_at(self, time: float, callback: Callable[..., Any], *args: Any) -> list:
        """Run ``callback(*args)`` at absolute virtual time ``time``."""
        if not time >= self.now:  # also rejects NaN
            raise SimulationError(
                f"cannot schedule into the past (time={time!r}, now={self.now!r})"
            )
        event = [time, next(self._sequence), callback, args]
        heapq.heappush(self._queue, event)
        return event

    def cancel(self, event: list) -> None:
        """Prevent a scheduled callback from running.  Idempotent, and a
        no-op once the event has fired.

        Cancellation is lazy: the entry stays in the heap with its
        callback cleared and is skipped when popped.  This is O(1) and
        avoids heap surgery.
        """
        event[2] = None

    # -- execution -------------------------------------------------------

    def run(self, until: Optional[float] = None) -> None:
        """Run until the queue drains or ``until`` is reached.

        When ``until`` is given the clock is left exactly at ``until`` even
        if the queue drained earlier, matching SimPy semantics so that
        rate computations (events per simulated second) stay meaningful.
        """
        if self._running:
            raise SimulationError("simulator is already running (re-entrant run())")
        self._running = True
        queue = self._queue
        pop = heapq.heappop
        try:
            while queue:
                head = queue[0]
                target = head[2]
                if target is None:  # cancelled
                    pop(queue)
                    continue
                time = head[0]
                if until is not None and time > until:
                    break
                pop(queue)
                args = head[3]
                self.now = time
                self.events_executed += 1
                try:
                    target(*args)
                except Exception as exc:
                    if self.on_crash is not None:
                        self.on_crash(exc)
                    raise
            if until is not None and self.now < until:
                self.now = until
        finally:
            self._running = False

    @property
    def pending_events(self) -> int:
        """Number of not-yet-cancelled events still queued."""
        return sum(1 for event in self._queue if event[2] is not None)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Simulator(now={self.now!r}, pending={self.pending_events})"
