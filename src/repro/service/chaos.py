"""ServiceFaultInjector: executes a ServiceFaultPlan on wall-clock time.

The simulator's fault layer schedules radio faults on virtual time;
this is the service-side twin.  An injector owns one scheduler task
that walks the plan's :meth:`~repro.service.faultplan.ServiceFaultPlan.timeline`
and applies each spec when the server's :class:`WallClock` reaches its
``at``:

* ``shard-kill`` — crash the shard worker: it stops admitting and the
  ops waiting for their turn fail (the supervisor sees a crash; the
  shard's cache is lost);
* ``shard-wedge`` — stall the shard worker for ``duration`` seconds:
  ops admitted meanwhile wait (heartbeat overrun; the cache survives);
* ``origin-stall`` / ``origin-resume`` — the origin's hang switch,
  with an optional auto-resume after ``duration``;
* ``origin-error-rate`` — browned-out origin failing each call with
  probability ``p`` (draws come from the injector's dedicated seeded
  RNG stream, so a chaos run replays from the seed), auto-reverting
  after ``duration`` when given;
* ``latency-spike`` — extra per-call origin latency, auto-reverting
  after ``duration`` when given.

The injector is also the runtime back end of the ``chaos`` wire op:
``stall``/``resume`` are aliases for immediate origin specs, and
``inject`` schedules any parsed spec ``at`` seconds from *now*.
"""

from __future__ import annotations

import asyncio
import sys
from typing import Optional, Set

from repro.service.faultplan import (
    ServiceFaultPlan,
    ServiceFaultSpec,
)

__all__ = ["ServiceFaultInjector"]


class ServiceFaultInjector:
    """Timed executor for service fault specs.

    Parameters
    ----------
    plan:
        The scripted schedule; may be empty (runtime ``inject`` still
        works).  Shard targets must exist in ``workers``.
    workers / origin / clock / stats:
        The server's worker map, origin adapter, wall clock, and stat
        sink.
    rng:
        ``numpy`` generator backing origin error-rate draws (the
        server's dedicated chaos stream).
    event_hook:
        Optional ``callable(kind, **fields)``; every applied spec
        emits a ``chaos`` event.
    """

    def __init__(
        self,
        plan: ServiceFaultPlan,
        *,
        workers,
        origin,
        clock,
        stats,
        rng=None,
        event_hook=None,
    ):
        top = plan.max_shard()
        if top >= 0 and top not in workers:
            raise ValueError(
                f"fault plan targets shard {top}, but the server only "
                f"has shards {sorted(workers)}"
            )
        self.plan = plan
        self.workers = workers
        self.origin = origin
        self.clock = clock
        self.stats = stats
        self.rng = rng
        self._event = event_hook
        self.applied = 0
        self._scheduler: Optional[asyncio.Task] = None
        self._timers: Set[asyncio.Task] = set()

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> None:
        if self.plan:
            self._scheduler = asyncio.ensure_future(self._run())

    async def stop(self) -> None:
        """Cancel the scheduler and any pending auto-revert timers."""
        tasks = list(self._timers)
        if self._scheduler is not None:
            tasks.append(self._scheduler)
        for task in tasks:
            task.cancel()
        if tasks:
            await asyncio.gather(*tasks, return_exceptions=True)
        self._timers.clear()
        self._scheduler = None

    async def _run(self) -> None:
        for spec in self.plan.timeline():
            delay = spec.at - self.clock.now()
            if delay > 0.0:
                await asyncio.sleep(delay)
            try:
                self.apply(spec)
            except Exception as exc:  # noqa: BLE001 - one bad spec must
                # not cancel the rest of the schedule
                print(
                    f"service chaos: applying {spec.kind} failed: {exc!r}",
                    file=sys.stderr,
                )

    # -- execution -----------------------------------------------------------

    def inject(self, spec: ServiceFaultSpec) -> None:
        """Runtime injection: apply ``spec.at`` seconds from now.

        Held to the plan's rule: a spec naming a shard the server does
        not have raises ValueError, before applying or scheduling.
        """
        if spec.shard is not None and spec.shard not in self.workers:
            raise ValueError(
                f"fault spec targets shard {spec.shard}, but the server "
                f"only has shards {sorted(self.workers)}"
            )
        if spec.at <= 0.0:
            self.apply(spec)
        else:
            self._after(spec.at, lambda: self.apply(spec))

    def apply(self, spec: ServiceFaultSpec) -> None:
        """Apply one spec immediately (auto-revert timers as needed)."""
        if spec.kind in ("shard-kill", "shard-wedge"):
            worker = self.workers[spec.shard]
            if spec.kind == "shard-kill":
                worker.inject_crash()
            else:
                worker.inject_wedge(spec.duration)
        elif spec.kind == "origin-stall":
            self.origin.stall()
            if spec.duration is not None:
                self._after(spec.duration, self.origin.resume)
        elif spec.kind == "origin-resume":
            self.origin.resume()
        elif spec.kind == "origin-error-rate":
            self.origin.set_error_rate(spec.probability, rng=self.rng)
            if spec.duration is not None:
                self._after(
                    spec.duration, lambda: self.origin.set_error_rate(0.0)
                )
        elif spec.kind == "latency-spike":
            self.origin.set_extra_latency(spec.extra)
            if spec.duration is not None:
                self._after(
                    spec.duration, lambda: self.origin.set_extra_latency(0.0)
                )
        else:  # pragma: no cover - ServiceFaultSpec validates kinds
            raise ValueError(f"unknown service fault kind {spec.kind!r}")
        self.applied += 1
        self.stats.count("service.chaos_events")
        if self._event is not None:
            fields = {
                "fault" if k == "kind" else k: v
                for k, v in spec.to_dict().items()
            }
            self._event("chaos", **fields)

    def _after(self, delay: float, fn) -> None:
        async def _timer() -> None:
            await asyncio.sleep(delay)
            fn()

        task = asyncio.ensure_future(_timer())
        self._timers.add(task)
        task.add_done_callback(self._timers.discard)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ServiceFaultInjector(specs={len(self.plan)}, "
            f"applied={self.applied})"
        )
