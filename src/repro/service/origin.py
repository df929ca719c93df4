"""Origin adapter: the authoritative tier behind the edge caches.

In the paper the authoritative copy of a key lives with its home-region
custodians; in an edge-cache deployment it lives in an origin store the
edge tier protects.  :class:`InMemoryOrigin` plays that role: it owns
the :class:`~repro.workload.Database` (authoritative sizes, versions,
and per-item TTR state for eq. 2), simulates origin round-trip latency,
and exposes the failure controls the resilience tests and the
service-chaos harness need:

* a **stall** switch under which fetches hang until the caller's
  deadline trips, exactly how a dead upstream looks from an edge box;
* a seeded **error rate** — each fetch/validate fails with
  :class:`OriginError` with probability ``p`` (a browned-out upstream
  shedding or 5xx-ing some of its load);
* an **extra-latency** dial layered on the base round trip (a latency
  spike that strains deadline budgets without tripping them outright).

All three are what :class:`~repro.service.chaos.ServiceFaultInjector`
drives from a scripted :class:`~repro.service.faultplan.ServiceFaultPlan`.
"""

from __future__ import annotations

import asyncio
from typing import Optional

from repro.workload.database import Database, DataItem

__all__ = ["InMemoryOrigin", "OriginError"]


class OriginError(RuntimeError):
    """The origin answered with a failure (injected brownout error)."""


class InMemoryOrigin:
    """Async facade over the authoritative :class:`Database`.

    Parameters
    ----------
    database:
        Ground truth: sizes, versions, TTR state.
    latency:
        Simulated one-way-trip seconds added to every fetch/validate
        (0 for unit tests).
    """

    def __init__(self, database: Database, latency: float = 0.0):
        if latency < 0:
            raise ValueError(f"origin latency must be nonnegative, got {latency}")
        self.db = database
        self.latency = float(latency)
        self.fetches = 0
        self.validations = 0
        self.puts = 0
        self.errors = 0
        #: While True, fetch/validate block forever (callers' deadlines
        #: and breakers must cope) — the "origin is down" chaos switch.
        self._stalled = False
        self._stall_released: Optional[asyncio.Event] = None
        #: Brownout dials (see :meth:`set_error_rate` / :meth:`set_extra_latency`).
        self.error_rate = 0.0
        self.extra_latency = 0.0
        self._error_rng = None

    # -- failure injection ---------------------------------------------------

    @property
    def stalled(self) -> bool:
        return self._stalled

    def set_error_rate(self, probability: float, rng=None) -> None:
        """Fail each fetch/validate with ``probability`` (0 disables).

        ``rng`` (a ``numpy`` generator) supplies the draws; the server
        passes its dedicated resilience stream so injected brownouts
        replay from the seed.  A previously installed rng is kept when
        the caller omits one (the auto-revert path).
        """
        if not 0.0 <= probability <= 1.0:
            raise ValueError(
                f"error rate must be in [0, 1], got {probability}"
            )
        if probability > 0.0 and rng is None and self._error_rng is None:
            raise ValueError("a nonzero error rate needs an rng stream")
        self.error_rate = float(probability)
        if rng is not None:
            self._error_rng = rng

    def set_extra_latency(self, seconds: float) -> None:
        """Add ``seconds`` to every origin round trip (0 reverts)."""
        if seconds < 0.0:
            raise ValueError(f"extra latency must be >= 0, got {seconds}")
        self.extra_latency = float(seconds)

    def stall(self) -> None:
        """Stop answering: in-flight and new calls hang until resume()."""
        if not self._stalled:
            self._stalled = True
            self._stall_released = asyncio.Event()

    def resume(self) -> None:
        """Answer again; hung calls proceed after their latency."""
        if self._stalled:
            self._stalled = False
            self._stall_released.set()
            self._stall_released = None

    @property
    def instant(self) -> bool:
        """A round trip right now would neither suspend nor draw an
        error: not stalled, no latency, no brownout.  A read then needs
        no wait — :meth:`fetch_nowait` / :meth:`validate_nowait` are
        the whole of :meth:`fetch` / :meth:`validate`."""
        return (
            not self._stalled
            and self.latency + self.extra_latency == 0.0
            and self.error_rate == 0.0
        )

    async def _maybe_stall(self) -> None:
        while self._stalled:
            await self._stall_released.wait()

    async def _round_trip(self) -> None:
        """Stall gate, then the (possibly spiked) round-trip latency,
        then the brownout error draw — a browned-out upstream answers
        slowly *and then* fails."""
        await self._maybe_stall()
        delay = self.latency + self.extra_latency
        if delay > 0.0:
            await asyncio.sleep(delay)
        if self.error_rate > 0.0 and (
            float(self._error_rng.random()) < self.error_rate
        ):
            self.errors += 1
            raise OriginError(
                f"origin brownout (error rate {self.error_rate:g})"
            )

    # -- reads ---------------------------------------------------------------

    async def fetch(self, key: int) -> DataItem:
        """Authoritative item for ``key`` (full fetch: data + metadata)."""
        await self._round_trip()
        return self.fetch_nowait(key)

    async def validate(self, key: int) -> DataItem:
        """Version check (the TTR-expired poll); metadata-only weight."""
        await self._round_trip()
        return self.validate_nowait(key)

    def fetch_nowait(self, key: int) -> DataItem:
        """:meth:`fetch` past its round trip (callers check :attr:`instant`)."""
        self.fetches += 1
        return self.db.items[key]

    def validate_nowait(self, key: int) -> DataItem:
        """:meth:`validate` past its round trip (callers check :attr:`instant`)."""
        self.validations += 1
        return self.db.items[key]

    # -- writes (synchronous: the origin is in-process ground truth) ---------

    def commit(self, key: int, now: float) -> DataItem:
        """Apply an update at the authoritative copy; returns the item.

        Version bump and update-interval bookkeeping follow
        :meth:`DataItem.bump_version`; the caller's consistency scheme
        then folds the new interval into the TTR (eq. 2).
        """
        item = self.db[key]
        item.bump_version(now)
        self.puts += 1
        return item

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"InMemoryOrigin(items={len(self.db)}, latency={self.latency}, "
            f"fetches={self.fetches}, stalled={self._stalled})"
        )
