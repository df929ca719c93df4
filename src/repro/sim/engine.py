"""Deterministic discrete-event simulation engine.

The engine follows the classic event-queue design used by NS-2 and SimPy:
a priority queue of ``(time, priority, sequence)``-ordered events whose
callbacks are executed in nondecreasing virtual-time order.  Two layers of
API are offered:

* a **callback layer** — :meth:`Simulator.schedule` /
  :meth:`Simulator.schedule_at` register a plain callable to run at a
  virtual time; this is the fast path used by the network substrate, and
* a **process layer** — :meth:`Simulator.spawn` drives a Python generator
  as a cooperative process that may ``yield`` a :class:`Timeout` to
  suspend itself; this is the convenient path used by workload
  generators and peer behaviours.

Event records
-------------
Every scheduled callback is one :class:`Event`: a list
``[time, priority, seq, callback, args]`` that *is* the heap entry, so
:mod:`heapq` orders events by plain C-level list comparison and nothing
else is allocated per event.  ``seq`` is unique, so comparison never
reaches the callback slot.  :meth:`Simulator.schedule` returns the
event; callers that may need to withdraw it keep the reference and call
:meth:`Event.cancel`, everyone else (packet deliveries, batched
broadcasts) drops it.

Determinism
-----------
Events scheduled for the same virtual time are executed in ``(priority,
sequence)`` order, where ``sequence`` is a monotonically increasing
insertion counter.  Given identical inputs and seeds a run is exactly
reproducible, which the test suite relies on.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, Generator, List, Optional

__all__ = [
    "Event",
    "Process",
    "SimulationError",
    "Simulator",
    "Timeout",
]


class SimulationError(RuntimeError):
    """Raised for invalid scheduler usage (e.g. scheduling in the past)."""


class Event(list):
    """A scheduled callback: the heap entry and its cancellation token.

    Laid out as ``[time, priority, seq, callback, args]``.  Cancellation
    is lazy: the entry stays in the heap with its callback cleared and is
    skipped when popped.  This is O(1) and avoids heap surgery.
    """

    __slots__ = ()

    def cancel(self) -> None:
        """Prevent the callback from running.  Idempotent, and a no-op
        once the event has fired."""
        self[3] = None


class Timeout:
    """Suspend the yielding process for ``delay`` units of virtual time.

    ``value`` is returned to the process when the timeout fires.
    """

    __slots__ = ("delay", "value")

    def __init__(self, delay: float, value: Any = None):
        if delay < 0:
            raise SimulationError(f"negative timeout delay: {delay!r}")
        self.delay = float(delay)
        self.value = value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Timeout({self.delay!r})"


class Process:
    """A generator-driven cooperative process.

    Created via :meth:`Simulator.spawn`.  The generator yields
    :class:`Timeout` s; each timeout's value is sent back into the
    generator when it fires.  When the generator returns, the process
    completes and its return value is kept in ``result``.
    """

    __slots__ = ("sim", "name", "_gen", "alive", "result", "_wakeup")

    def __init__(self, sim: "Simulator", gen: Generator[Any, Any, Any], name: str = ""):
        self.sim = sim
        self.name = name or f"process-{id(gen):x}"
        self._gen = gen
        self.alive = True
        self.result: Any = None
        #: The pending timeout's event (cancelled by :meth:`kill`).
        self._wakeup: Optional[Event] = None

    def _resume(self, value: Any = None) -> None:
        if not self.alive:
            return
        try:
            target = self._gen.send(value)
        except StopIteration as stop:
            self._finish(stop.value)
            return
        if not isinstance(target, Timeout):
            raise SimulationError(
                f"process {self.name!r} yielded {target!r}, which is not a waitable"
            )
        self._wakeup = self.sim.schedule(target.delay, self._resume, target.value)

    def _finish(self, result: Any) -> None:
        self.alive = False
        self.result = result

    def kill(self) -> None:
        """Terminate the process immediately without running it further."""
        if not self.alive:
            return
        if self._wakeup is not None:
            self._wakeup.cancel()
        self._gen.close()
        self._finish(None)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "alive" if self.alive else "done"
        return f"Process({self.name!r}, {state})"


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
        self._queue: List[Event] = []
        self._sequence = itertools.count()
        self._running = False
        self.events_executed: int = 0
        #: Optional ``callback(exc)`` invoked (before re-raising) when a
        #: dispatched event callback raises — the flight recorder's
        #: crash hook.
        self.on_crash = None

    # -- scheduling ------------------------------------------------------

    def schedule(
        self,
        delay: float,
        callback: Callable[..., Any],
        *args: Any,
        priority: int = 0,
    ) -> Event:
        """Run ``callback(*args)`` after ``delay`` units of virtual time.

        ``priority`` breaks ties among same-time events (lower first);
        insertion order breaks remaining ties.  The returned
        :class:`Event` can be cancelled; ignoring it costs nothing.
        """
        if not delay >= 0:  # also rejects NaN
            raise SimulationError(f"cannot schedule into the past (delay={delay!r})")
        event = Event((self.now + delay, priority, next(self._sequence), callback, args))
        heapq.heappush(self._queue, event)
        return event

    def schedule_at(
        self,
        time: float,
        callback: Callable[..., Any],
        *args: Any,
        priority: int = 0,
    ) -> Event:
        """Run ``callback(*args)`` at absolute virtual time ``time``."""
        if not time >= self.now:  # also rejects NaN
            raise SimulationError(
                f"cannot schedule into the past (time={time!r}, now={self.now!r})"
            )
        event = Event((time, priority, next(self._sequence), callback, args))
        heapq.heappush(self._queue, event)
        return event

    def spawn(self, gen: Generator[Any, Any, Any], name: str = "") -> Process:
        """Start a generator as a cooperative process."""
        process = Process(self, gen, name=name)
        self.schedule(0.0, process._resume, None)
        return process

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
                target = head[3]
                if target is None:  # cancelled
                    pop(queue)
                    continue
                time = head[0]
                if until is not None and time > until:
                    break
                pop(queue)
                args = head[4]
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
        return sum(1 for event in self._queue if event[3] is not None)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Simulator(now={self.now!r}, pending={self.pending_events})"
