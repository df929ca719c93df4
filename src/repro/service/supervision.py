"""Shard supervision: crash/wedge detection, backoff restarts, warm rebuild.

A shard worker can fail two ways: it **crashes** (the shard "process"
is gone and takes its cache with it) or it **wedges** (ops wait but no
heartbeat comes; the cache survives but nothing starts).  Without
supervision either one takes the region down for the life of the
server, which is exactly the churn the cooperative-caching literature
says region schemes must survive.

:class:`ShardSupervisor` watches every :class:`_ShardWorker` four times
per heartbeat timeout and, on failure:

1. marks the shard **down** (``resilience.shard_down`` counter, the
   per-shard up gauge drops, a ``shard_down`` bus event fires);
2. waits out an exponential-backoff delay via the existing
   :class:`~repro.resilience.backoff.BackoffPolicy` (attempt counts
   reset once a shard has stayed healthy for ten heartbeat timeouts,
   so an old flap does not tax a fresh failure);
3. aborts the dead worker — a crashed worker's admitted ops fail with
   ``unavailable`` (replica failover is the availability story while
   the shard is dark), a wedged worker keeps its admitted ops;
4. on a crash, resets the shard core (cache, popularity counts,
   in-flight fetches: crash semantics) and **warm-rebuilds** it from
   the *other* shards' caches: every copy whose home region is the
   reborn shard is re-admitted via
   :meth:`~repro.service.core.CacheService.warm_admit` — replica
   pushes (§2.4) are what make this warm set non-empty, and the very
   failovers served while the shard was down make it *hot*;
5. restarts the worker and readmits traffic
   (``resilience.shard_restarts``, ``shard_restarted`` event).

The supervisor never acts on a draining worker: shutdown wins.
"""

from __future__ import annotations

import asyncio
import sys
from typing import Dict, Optional, Set

from repro.resilience.backoff import BackoffPolicy

__all__ = ["ShardSupervisor"]


class ShardSupervisor:
    """Watchdog + restart loop over a server's shard workers.

    Parameters
    ----------
    workers / shards / directory / clock / stats:
        The server's live collaborators (worker map, shard cores,
        key-placement oracle, wall clock, stat sink).
    backoff:
        Restart spacing; attempt ``n`` of a flapping shard waits
        ``backoff.delay(n)`` before the restart.
    heartbeat_timeout:
        Seconds a worker may keep ops waiting without a beat before it
        is declared wedged.  The watch loop runs every quarter of it,
        so a wedge is caught within ~1.25 timeouts, and a shard's
        restart attempt counter resets after ten of it without a
        failure.
    event_hook:
        Optional ``callable(kind, **fields)`` for ``shard_down`` /
        ``shard_restarted`` bus events.
    """

    def __init__(
        self,
        *,
        workers: Dict[int, "object"],
        shards: Dict[int, "object"],
        directory,
        clock,
        stats,
        backoff: BackoffPolicy,
        heartbeat_timeout: float = 1.0,
        event_hook=None,
    ):
        if heartbeat_timeout <= 0.0:
            raise ValueError(
                f"heartbeat_timeout must be positive, got {heartbeat_timeout}"
            )
        self.workers = workers
        self.shards = shards
        self.directory = directory
        self.clock = clock
        self.stats = stats
        self.backoff = backoff
        self.heartbeat_timeout = float(heartbeat_timeout)
        self._event = event_hook
        #: Shards currently out of service (gauges read this).
        self.down: Set[int] = set()
        #: Total restarts performed (harness gates read this).
        self.restarts = 0
        self._attempts: Dict[int, int] = {}
        self._last_fail: Dict[int, float] = {}
        self._restarting: Dict[int, asyncio.Task] = {}
        self._watch_task: Optional[asyncio.Task] = None

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> None:
        self._watch_task = asyncio.ensure_future(self._watch())

    async def stop(self) -> None:
        """Cancel the watchdog and any in-progress restarts."""
        tasks = list(self._restarting.values())
        if self._watch_task is not None:
            tasks.append(self._watch_task)
        for task in tasks:
            task.cancel()
        if tasks:
            await asyncio.gather(*tasks, return_exceptions=True)
        self._restarting.clear()
        self._watch_task = None

    # -- detection -----------------------------------------------------------

    async def _watch(self) -> None:
        loop = asyncio.get_running_loop()
        while True:
            await asyncio.sleep(self.heartbeat_timeout / 4.0)
            now = loop.time()
            for shard_id, worker in self.workers.items():
                if worker.draining or shard_id in self._restarting:
                    continue
                crashed = worker.crashed()
                wedged = not crashed and worker.wedged(
                    now, self.heartbeat_timeout
                )
                if crashed or wedged:
                    self._restarting[shard_id] = asyncio.ensure_future(
                        self._restart(shard_id, worker, crashed, now)
                    )

    # -- restart flow --------------------------------------------------------

    async def _restart(
        self, shard_id: int, worker, crashed: bool, loop_now: float
    ) -> None:
        kind = "crash" if crashed else "wedge"
        self.down.add(shard_id)
        self.stats.count("resilience.shard_down")
        if self._event is not None:
            self._event("shard_down", shard=shard_id, cause=kind)
        # A long-healthy shard gets a fresh backoff ladder.
        if (
            loop_now - self._last_fail.get(shard_id, float("-inf"))
            > 10.0 * self.heartbeat_timeout
        ):
            self._attempts[shard_id] = 0
        self._last_fail[shard_id] = loop_now
        attempt = self._attempts[shard_id] = (
            self._attempts.get(shard_id, 0) + 1
        )
        try:
            await asyncio.sleep(self.backoff.delay(attempt))
            # Shutdown may have started during the backoff wait.
            if worker.draining:
                return
            await worker.abort(crashed)
            warmed = 0
            if crashed:
                self.shards[shard_id].reset()
                warmed = self._rebuild(shard_id)
                if warmed:
                    self.stats.count(
                        "resilience.shard_warm_keys", float(warmed)
                    )
            worker.restart()
            self.restarts += 1
            self.stats.count("resilience.shard_restarts")
            if self._event is not None:
                self._event(
                    "shard_restarted",
                    shard=shard_id, cause=kind,
                    attempt=attempt, warm_keys=warmed,
                )
            self.down.discard(shard_id)
        except asyncio.CancelledError:
            raise
        except Exception as exc:  # noqa: BLE001 - watchdog must not die silently
            print(
                f"shard supervisor: restart of shard {shard_id} failed: "
                f"{exc!r}",
                file=sys.stderr,
            )
        finally:
            self._restarting.pop(shard_id, None)

    def _rebuild(self, shard_id: int) -> int:
        """Re-admit every copy homed at ``shard_id`` held elsewhere."""
        target = self.shards[shard_id]
        now = self.clock.now()
        warmed = 0
        for other_id, other in self.shards.items():
            if other_id == shard_id:
                continue
            for key, copy in list(other.cache.entries.items()):
                if (
                    self.directory.home_region(key) == shard_id
                    and target.warm_admit(key, copy, now)
                ):
                    warmed += 1
        return warmed

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ShardSupervisor(shards={len(self.workers)}, "
            f"down={sorted(self.down)}, restarts={self.restarts})"
        )
