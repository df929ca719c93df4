"""CacheService: one region shard of the edge-cache tier.

Each shard owns a :class:`~repro.core.cache.PeerCache` (GD-LD by
default) holding dynamically cached copies of the keys the geographic
hash homes in its region, and talks to the authoritative tier through
an origin adapter.  The policy logic is exactly the simulation's —
admission control (§3.2), Greedy-Dual replacement (§3.3), TTR-windowed
validation (§4, eq. 2), breaker verdicts and deadline budgets
(:mod:`repro.resilience`) — reached through the runtime-agnostic ports
of :mod:`repro.ports` with wall-clock adapters plugged in.

Read path (mirrors Fig. 1 + §4):

* **fresh hit** — the copy's TTR window is open: serve locally.
* **validation** — TTR expired: poll the origin (the home-region poll
  of Push-with-Adaptive-Pull); matching version restarts the window,
  a lagging one refetches.
* **miss** — fetch from the origin, admit under GD-LD (evicting
  minimum-priority victims), serve.
* **degraded** — the breaker steers away from a suspected origin path,
  or the poll/fetch times out: serve the stale copy if one exists
  (``stale-hit``; served class "degraded") rather than failing the
  request, else report ``unavailable``/``deadline``.

:meth:`CacheService.get_nowait` serves every read that needs no wait
(a fresh hit, and a miss or validation the origin answers at once),
synchronously, for callers that have nothing to await: the server's
await-free path.  There an unsteered read — ``hit-fresh``, ``miss``,
``refreshed``, ``hit-validated`` — and a put
(``put(..., line=True)``) come back as their wire line up to the
latency stamp, with no response object and no ``json`` call; a fresh
hit's line is memoized per cached copy, since nothing in it changes
between hits of one version of one copy, and a miss's fills a
per-shard template.  Every other outcome is a :class:`CacheResponse`,
and its :meth:`~CacheResponse.encode` calls the same writer,
:func:`_line_head`, the one spelling of the member order (it writes the
templates too).  :meth:`CacheService.get` starts with
:meth:`get_nowait`, asking for objects; the rest waits on the origin
in the op's own task, under one timer armed for the request's absolute
deadline (:class:`_Deadline`).  A budget already spent answers without
calling the origin.  Whatever the origin answers, inline or awaited,
settles in one pass, :meth:`CacheService._settle`.  Concurrent gets for the
same missing key coalesce on one origin fetch (dog-pile protection):
the first waiter runs it and resolves a future the followers wait on,
each under its own deadline; if the first waiter times out or is
cancelled the followers start the fetch over instead of failing
(:meth:`CacheService._fetch_coalesced`).
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii as _json_str
from typing import Any, Dict, Optional, Tuple, Union

from repro.core.cache import CachedCopy, PeerCache
from repro.core.consistency import ConsistencyScheme, PushAdaptivePull
from repro.core.messages import Invalidation, UpdatePush
from repro.core.replacement import ReplacementPolicy
from repro.ports import Clock, CounterStatSink, PeerDirectory, StatSink
from repro.resilience.manager import (
    ROUTE_PROBE,
    ROUTE_STEER,
    ResilienceManager,
)
from repro.service.origin import InMemoryOrigin, OriginError
from repro.workload.database import DataItem

__all__ = ["CacheResponse", "CacheService", "DeadlineExceeded"]


class DeadlineExceeded(Exception):
    """A request's total latency budget ran out mid-flight."""


class _Deadline:
    """One timer bounding the calling task's origin interaction.

    ``with _Deadline(remaining): await ...`` raises
    :class:`DeadlineExceeded` out of the block once ``remaining``
    seconds have passed — at once, before anything in the block runs,
    when the budget is already spent.  The timer cancels the task and
    ``__exit__`` turns that one cancellation into the verdict; a
    cancellation from anywhere else passes through.  (What
    ``asyncio.timeout`` does, on every Python this package supports.)
    ``remaining=None`` bounds nothing.
    """

    __slots__ = ("_remaining", "_task", "_handle", "expired")

    def __init__(self, remaining: Optional[float]):
        self._remaining = remaining
        self._task: Optional[asyncio.Task] = None
        self._handle: Optional[asyncio.TimerHandle] = None
        self.expired = False

    def __enter__(self) -> "_Deadline":
        if self._remaining is not None:
            if self._remaining <= 0.0:
                raise DeadlineExceeded()
            self._task = asyncio.current_task()
            self._handle = asyncio.get_running_loop().call_later(
                self._remaining, self._expire
            )
        return self

    def _expire(self) -> None:
        self.expired = True
        self._task.cancel()

    def __exit__(self, exc_type, exc, tb) -> bool:
        if self._handle is not None:
            self._handle.cancel()
        if self.expired and isinstance(exc, asyncio.CancelledError):
            if hasattr(self._task, "uncancel"):  # Python >= 3.11
                self._task.uncancel()
            raise DeadlineExceeded() from None
        return False


#: How the C JSON encoder prints a float, numpy scalars included
#: (``repr`` of a ``numpy.float64`` is ``np.float64(...)``).
_float_repr = float.__repr__

#: Served classes whose response is not ``ok``.
_NOT_OK = ("failed", "shed")


def _line_head(
    op: str,
    key: int,
    status: str,
    shard: int,
    served_class: str,
    version: int = -1,
    size_bytes: float = 0.0,
    extra: Optional[Dict[str, Any]] = None,
) -> bytes:
    """A get/put/invalidate wire line up to and including ``"latency_ms": ``.

    The one spelling of the member order: the six fixed members,
    ``version`` and ``size_bytes`` when set, ``extra``, then the
    latency the caller stamps (a float and ``}\\n``).  Byte for byte
    what ``json.dumps`` writes: ``op``, ``status`` and ``served_class``
    are this module's own plain words and go out as they are, a bool
    ``extra`` value is ``true``/``false`` and a string goes through the
    C string encoder ``json.dumps`` itself uses; only a value of some
    other type reaches ``json.dumps``.

    ``key``, ``version`` and ``size_bytes`` may each be a ``%`` slot (a
    str such as ``"%d"``), written as is: the head is then a template
    (given bool ``extra`` values only, it holds no other ``%``).
    """
    tail = ""
    if type(version) is str or version >= 0:
        tail = f', "version": {version}'
    if size_bytes:
        if type(size_bytes) is not str:
            size_bytes = _float_repr(size_bytes)
        tail += f', "size_bytes": {size_bytes}'
    if extra:
        for name, value in extra.items():
            if type(name) is str and type(value) is bool:
                tail += f", {_json_str(name)}: {'true' if value else 'false'}"
            elif type(name) is str and type(value) is str:
                tail += f", {_json_str(name)}: {_json_str(value)}"
            else:
                tail += ", " + json.dumps({name: value})[1:-1]
    return (
        f'{{"op": "{op}", "key": {key}, "status": "{status}", '
        f'"shard": {shard}, '
        f'"ok": {"false" if served_class in _NOT_OK else "true"}, '
        f'"served_class": "{served_class}"{tail}, "latency_ms": '
    ).encode()


@dataclass
class CacheResponse:
    """Outcome of one service operation, wire-serializable.

    :meth:`encode` writes the wire line through :func:`_line_head`
    without building a dict; :meth:`to_dict` is the same response as a
    dict.
    """

    op: str
    key: int
    status: str
    shard: int
    version: int = -1
    size_bytes: float = 0.0
    #: Serve class for stats/telemetry: "local", "origin", "degraded",
    #: "shed" (load-shedding refusal), or "failed" — the service
    #: analogue of the sim's served_by_class.
    served_class: str = "failed"
    #: Extra fields (latency is stamped by the server).
    extra: Dict[str, Any] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.served_class not in _NOT_OK

    def to_dict(self) -> Dict[str, Any]:
        out = {
            "op": self.op,
            "key": self.key,
            "status": self.status,
            "shard": self.shard,
            "ok": self.ok,
            "served_class": self.served_class,
        }
        if self.version >= 0:
            out["version"] = self.version
        if self.size_bytes:
            out["size_bytes"] = self.size_bytes
        out.update(self.extra)
        return out

    def encode(self, latency_ms: float) -> bytes:
        """The response's wire line, ``latency_ms`` stamped last.

        Byte for byte ``json.dumps({**self.to_dict(), "latency_ms":
        latency_ms}).encode() + b"\\n"``.
        """
        return _line_head(
            self.op, self.key, self.status, self.shard, self.served_class,
            self.version, self.size_bytes, self.extra,
        ) + (_float_repr(latency_ms) + "}\n").encode()


class CacheService:
    """One region shard: GD-LD cache + TTR consistency + resilience.

    Parameters
    ----------
    shard_id:
        The region id this shard serves (breaker evidence for origin
        outcomes is booked under this id).
    capacity_bytes:
        Dynamic cache capacity of the shard.
    clock / directory / origin:
        Port adapters: time source, key-placement oracle, and the
        authoritative tier.
    scheme:
        Consistency scheme; default Push-with-Adaptive-Pull (TTR).
        The caller binds it to a transport before puts disseminate.
    resilience:
        Shared :class:`ResilienceManager` (deadlines + breakers + the
        origin retry budget); None disables all three.
    hedge_after:
        Seconds to wait on a slow origin call before launching one
        hedged duplicate and racing the pair (first success wins);
        None disables hedging.
    stats:
        :class:`~repro.ports.StatSink` for service counters; shards of
        one server share a sink.
    policy:
        Replacement policy override (default: PeerCache's GD-LD).
    """

    def __init__(
        self,
        shard_id: int,
        capacity_bytes: float,
        *,
        clock: Clock,
        directory: PeerDirectory,
        origin: InMemoryOrigin,
        scheme: Optional[ConsistencyScheme] = None,
        resilience: Optional[ResilienceManager] = None,
        stats: Optional[StatSink] = None,
        policy: Optional[ReplacementPolicy] = None,
        hedge_after: Optional[float] = None,
    ):
        if hedge_after is not None and hedge_after <= 0.0:
            raise ValueError(f"hedge_after must be positive, got {hedge_after}")
        self.shard_id = int(shard_id)
        self.clock = clock
        self.directory = directory
        self.origin = origin
        self.scheme = scheme if scheme is not None else PushAdaptivePull()
        self.resilience = resilience
        self.hedge_after = hedge_after
        self.stats = stats if stats is not None else CounterStatSink()
        self.cache = PeerCache(capacity_bytes, policy=policy)
        #: Region-level access counts driving GD-LD's popularity term.
        self._access_counts: Dict[int, int] = {}
        #: In-flight origin fetches, coalesced per key.
        self._inflight: Dict[int, asyncio.Future] = {}
        #: Per cached key, the ``(version, size_bytes)`` of its copy and
        #: that copy's fresh-hit line up to and including ``"latency_ms":
        #: ``.  Dropped when the copy leaves the cache, so it never
        #: outgrows ``cache.entries``; an in-place version bump (an
        #: UpdatePush) rebuilds it on the next hit.
        self._hit_lines: Dict[int, Tuple[int, float, bytes]] = {}
        #: Line heads of an unsteered read the origin served, by status
        #: and admission verdict: templates of key, version, size text.
        self._origin_lines = {
            (status, admitted): _line_head(
                "get", "%d", status, self.shard_id, "origin", "%d", "%b",
                {"admitted": admitted},
            )
            for status in ("miss", "refreshed") for admitted in (False, True)
        }
        #: Each item size the origin served here, as the line writes it:
        #: a float's repr costs more than the rest of a miss line.  At
        #: most one entry per item, since sizes never change.
        self._size_texts: Dict[float, bytes] = {}

    # -- read path -----------------------------------------------------------

    def get_nowait(
        self,
        key: int,
        steered: bool = False,
        deadline: Optional[float] = None,
        line: bool = True,
    ) -> Union[bytes, CacheResponse, None]:
        """Serve a read that needs no wait synchronously, or return None.

        A fresh hit needs none.  A miss or a TTR validation needs none
        when the origin answers at once (:attr:`InMemoryOrigin.instant`,
        and then at the same instant: the read takes the clock once), no
        fetch of the key is in flight (a follower follows its leader),
        the budget (``deadline``, absolute) is not spent, and, for a
        miss, the breaker is closed (a steered miss fails, and only
        :meth:`get`'s caller fails it over).

        With ``line``, an unsteered read served locally or from the
        origin (``hit-fresh``, ``hit-validated``, ``miss``,
        ``refreshed``) comes back as its wire line up to and including
        ``"latency_ms": `` (:func:`_line_head`; the caller stamps the
        latency and ``}\\n``), a fresh hit's memoized per cached copy;
        any other outcome, and every outcome without ``line``, as a
        :class:`CacheResponse`.

        None means the read must wait and **nothing was booked**: the
        caller goes on to :meth:`get`, which counts the request exactly
        once.
        """
        entry = self.cache.entries.get(key)  # PeerCache.get, without the call
        if entry is None and not self.origin.instant:
            return None  # a miss that waits costs no more than it did
        now = self.clock.now()
        line = line and not steered
        if entry is not None and not self.scheme.needs_validation(entry, now):
            self._book_get(key)
            if not line:
                return self._serve_local(
                    entry, now, "hit-fresh", steered, False
                )
            self._refresh(entry, now)
            memo = self._hit_lines.get(key)
            if (
                memo is None
                or memo[0] != entry.version
                or memo[1] != entry.size_bytes
            ):
                memo = self._hit_lines[key] = (
                    entry.version, entry.size_bytes, _line_head(
                        "get", key, "hit-fresh", self.shard_id, "local",
                        entry.version, entry.size_bytes,
                    ),
                )
            return memo[2]
        if not (
            (entry is None or self.origin.instant)  # a miss read it above
            and key not in self._inflight
            and (deadline is None or deadline - now > 0.0)
            and (
                entry is not None
                or steered
                or self.resilience is None
                or not self.resilience.tripped(self.shard_id)
            )
        ):
            return None
        if entry is None:
            # Steered, or no breaker open (checked above): _route_home
            # would pass, and _settle books and fetches.
            return self._settle(key, None, None, False, steered, now, line)
        self._book_get(key)
        degraded, probe = self._route_home(key, entry, now, steered)
        if degraded is not None:
            return degraded
        item = self.origin.validate_nowait(key)
        return self._settle(key, entry, item, probe, steered, now, line)

    async def get(
        self,
        key: int,
        *,
        steered: bool = False,
        deadline: Optional[float] = None,
    ) -> CacheResponse:
        """Serve one read; never raises on origin trouble (degrades).

        ``deadline`` is the request's absolute deadline when the caller
        already fixed one (a failover spending what the home attempt
        left); by default the budget starts now.  What
        :meth:`get_nowait` cannot serve waits here, on the origin.
        """
        response = self.get_nowait(key, steered, deadline, False)
        if response is not None:
            return response
        now = self.clock.now()
        self._book_get(key)
        if deadline is None and self.resilience is not None:
            deadline = self.resilience.deadline_for(now)
        entry = self.cache.get(key)
        degraded, probe = self._route_home(key, entry, now, steered)
        if degraded is not None:
            return degraded

        try:
            # The op's one timer, armed for the origin interaction; the
            # origin is awaited right here, in the op's own task.
            with _Deadline(None if deadline is None else deadline - now):
                if entry is not None:
                    item = await self._origin_attempts(
                        lambda: self.origin.validate(key)
                    )
                else:
                    item = await self._fetch_coalesced(key)
        except DeadlineExceeded:
            now = self.clock.now()
            self.stats.count("resilience.deadline_exceeded")
            self._origin_failed(probe, now)
            if entry is not None:
                return self._serve_degraded(key, entry, now, reason="deadline")
            self.stats.count("cache.deadline_miss")
            return CacheResponse(
                "get", key, "deadline", self.shard_id,
                extra={"reason": "deadline"},
            )
        except OriginError:
            # The retry budget is spent and every attempt failed: book
            # the brownout against the breaker and degrade the serve.
            now = self.clock.now()
            self._origin_failed(probe, now)
            return self._serve_degraded(key, entry, now, reason="origin-error")
        return self._settle(
            key, entry, item, probe, steered, self.clock.now(), False
        )

    # -- write path ----------------------------------------------------------

    def put(
        self, key: int, updater: int = -1, line: bool = False
    ) -> Union[bytes, CacheResponse]:
        """Commit an update at the origin and disseminate (Push phase).

        Synchronous: the origin's authoritative state is in-process;
        dissemination fans out through the bound transport (the server
        delivers pushes to the home and replica shards).  With ``line``
        the answer is its wire line head, as :meth:`get_nowait` writes
        it, else a :class:`CacheResponse`.
        """
        now = self.clock.now()
        self.stats.count("service.put")
        item = self.origin.commit(key, now)
        self.scheme.disseminate_update(updater, key)
        return self._respond(
            line, "put", key, "updated", "origin",
            item.version, item.size_bytes,
        )

    def invalidate(self, key: int) -> CacheResponse:
        """Evict the local copy (the shard-side half of a purge)."""
        self.stats.count("service.invalidate")
        evicted = self.purge(key)
        return CacheResponse(
            "invalidate", key, "invalidated" if evicted else "absent",
            self.shard_id, served_class="local",
        )

    def purge(self, key: int) -> bool:
        """Administrative eviction: the flood half of a client purge.

        Unlike :meth:`apply_invalidation` this does not go through the
        consistency scheme — a purge removes the copy under every
        scheme, including those whose invalidation hook is a no-op.
        """
        self._hit_lines.pop(key, None)
        return self.cache.evict(key)

    # -- supervision hooks (driven by the shard supervisor) ------------------

    def reset(self) -> None:
        """Crash semantics: the shard's dynamic state is gone.

        Called by the supervisor when the shard worker died — a real
        shard process taking its cache, popularity counts, and
        in-flight fetch registry with it (anyone still following a
        fetch starts it over against the fresh state).  The
        authoritative tier (origin) and the shared resilience state
        survive, exactly as they would a single-box crash.
        """
        for shared in self._inflight.values():
            if not shared.done():
                shared.set_result(None)  # followers start over
        self._inflight.clear()
        self._access_counts.clear()
        self._hit_lines.clear()
        self.cache.clear()

    def warm_admit(self, key: int, copy: CachedCopy, now: float) -> bool:
        """Admit a clone of a replica-held copy (warm rebuild).

        The supervisor replays the replica shard's pushed/served copies
        into a freshly restarted home shard before readmitting traffic,
        so the reborn shard answers its hot keys locally instead of
        thundering at the origin.  Version/TTR state is the replica's;
        the GD-LD distance term is recomputed for *this* shard.
        """
        if key in self.cache:
            return False
        reg_dst = self.directory.key_distance(key, self.shard_id)
        clone = CachedCopy(
            key=key,
            size_bytes=copy.size_bytes,
            version=copy.version,
            access_count=self._access_counts.get(key, copy.access_count),
            region_distance=reg_dst,
            ttr=copy.ttr,
            validated_at=copy.validated_at,
            last_access=now,
        )
        return self._admit(clone, now)

    # -- custodian hooks (driven by the server's transport adapter) ----------

    def apply_push(self, item: DataItem, msg: UpdatePush) -> None:
        """An UpdatePush arrived at this shard (home or replica).

        Only the home custodian folds the update interval into the TTR
        estimate (eq. 2) — mirroring the peer protocol, which never
        double-applies at the replica.  Both custodians refresh an
        existing cached copy; the replica *admits* one when absent
        (push-based replication, §2.4), which is what gives steered
        reads something warm to serve.
        """
        home = self.directory.home_region(item.key)
        if home == self.shard_id:
            self.scheme.on_push_received(item, msg)
        now = self.clock.now()
        entry = self.cache.get(item.key)
        if entry is not None:
            if entry.version < msg.version:
                entry.version = msg.version
                entry.validated_at = now
                entry.ttr = item.ttr
            self.stats.count("consistency.push_refreshed")
        elif PeerCache.should_admit(home, self.shard_id):
            self._admit(self._origin_copy(item, now), now)
            self.stats.count("consistency.push_admitted")

    def apply_invalidation(self, msg: Invalidation) -> None:
        """A flooded invalidation notice arrived at this shard."""
        self.scheme.on_invalidation_received(self.cache, msg)
        if msg.key not in self.cache:
            self._hit_lines.pop(msg.key, None)
        self.stats.count("consistency.invalidation_applied")

    # -- telemetry (pure reader) ---------------------------------------------

    def telemetry(self) -> Dict[str, float]:
        return {
            f"cache.region{self.shard_id}.bytes": self.cache.used_bytes,
            f"cache.region{self.shard_id}.entries": float(len(self.cache)),
        }

    # -- internals -----------------------------------------------------------

    def _book_get(self, key: int) -> None:
        self.stats.count("service.get")
        self._access_counts[key] = self._access_counts.get(key, 0) + 1

    def _refresh(self, entry: CachedCopy, now: float) -> None:
        """A local serve: GD-LD popularity and priority, hit counters."""
        entry.access_count = self._access_counts.get(entry.key, 1)
        self.cache.hit(entry.key, now)
        self.stats.count("cache.hits")
        self.stats.count("cache.bytes_hit", entry.size_bytes)

    def _respond(
        self,
        line: bool,
        op: str,
        key: int,
        status: str,
        served_class: str,
        version: int = -1,
        size_bytes: float = 0.0,
        extra: Optional[Dict[str, Any]] = None,
    ) -> Union[bytes, CacheResponse]:
        """One outcome: its wire line head with ``line``, else its
        :class:`CacheResponse` (whose :meth:`~CacheResponse.encode`
        writes the same head)."""
        if line:
            return _line_head(
                op, key, status, self.shard_id, served_class,
                version, size_bytes, extra,
            )
        return CacheResponse(
            op, key, status, self.shard_id, version, size_bytes,
            served_class, {} if extra is None else extra,
        )

    def _serve_local(
        self,
        entry: CachedCopy,
        now: float,
        status: str,
        steered: bool,
        line: bool,
    ) -> Union[bytes, CacheResponse]:
        self._refresh(entry, now)
        return self._respond(
            line, "get", entry.key, status,
            "degraded" if steered else "local",
            entry.version, entry.size_bytes,
        )

    def _serve_degraded(
        self, key: int, entry: Optional[CachedCopy], now: float, reason: str
    ) -> CacheResponse:
        """Breaker-steered or timed-out read: stale copy beats failure."""
        if entry is None:
            self.stats.count("cache.unavailable")
            return CacheResponse(
                "get", key, "unavailable",
                self.shard_id, extra={"reason": reason},
            )
        entry.access_count = self._access_counts.get(entry.key, 1)
        self.cache.hit(entry.key, now)
        self.stats.count("cache.degraded_serves")
        self.stats.count("cache.bytes_hit", entry.size_bytes)
        return CacheResponse(
            "get", entry.key, "stale-hit", self.shard_id,
            version=entry.version, size_bytes=entry.size_bytes,
            served_class="degraded", extra={"reason": reason},
        )

    def _route_home(
        self, key: int, entry: Optional[CachedCopy], now: float, steered: bool
    ) -> Tuple[Optional[CacheResponse], bool]:
        """The breaker's verdict on a read bound for the origin.

        Returns the degraded serve when the breaker steers away from a
        suspected origin path, else None and whether this read is the
        half-open probe.  A steered read (a failover) asks nothing.
        """
        if self.resilience is None or steered:
            return None, False
        verdict = self.resilience.route_home(self.shard_id, now)
        if verdict == ROUTE_STEER:
            return (
                self._serve_degraded(key, entry, now, reason="breaker-open"),
                False,
            )
        return None, verdict == ROUTE_PROBE

    def _settle(
        self,
        key: int,
        entry: Optional[CachedCopy],
        item: Optional[DataItem],
        probe: bool,
        steered: bool,
        now: float,
        line: bool,
    ) -> Union[bytes, CacheResponse]:
        """The origin answered at ``now``, inline or awaited: book the
        breaker success, then restart the copy's TTR window or admit the
        authoritative copy (§3.2-3.3, §4), and answer.  ``item`` None is
        an inline miss, booked and fetched here first."""
        stats = self.stats
        if item is None:
            self._book_get(key)
            stats.count("cache.origin_fetches")
            item = self.origin.fetch_nowait(key)
        resilience = self.resilience
        if resilience is not None:
            if probe:
                resilience.on_probe_result(self.shard_id, True, now)
            else:
                resilience.on_home_success(self.shard_id, now)

        if entry is not None and entry.version >= item.version:
            # Validation succeeded: restart the TTR window (§4).
            entry.validated_at = now
            entry.ttr = item.ttr
            stats.count("cache.validations")
            return self._serve_local(
                entry, now, "hit-validated", steered, line
            )

        # Miss (or stale copy superseded): admit the authoritative copy.
        admitted = self._admit(self._origin_copy(item, now), now)
        size = item.size_bytes
        stats.count("cache.miss")
        stats.count("cache.bytes_from_origin", size)
        status = "miss" if entry is None else "refreshed"
        if line and size:
            text = self._size_texts.get(size)
            if text is None:
                text = self._size_texts[size] = _float_repr(size).encode()
            return self._origin_lines[status, admitted] % (
                key, item.version, text
            )
        return self._respond(
            line, "get", key, status, "degraded" if steered else "origin",
            item.version, size, {"admitted": admitted},
        )

    def _origin_failed(self, probe: bool, now: float) -> None:
        """Book an origin call that failed or ran out of budget."""
        if self.resilience is None:
            return
        if probe:
            self.resilience.on_probe_result(self.shard_id, False, now)
        else:
            self.resilience.on_home_timeout(self.shard_id, now)

    def _origin_copy(self, item: DataItem, now: float) -> CachedCopy:
        """A copy of the authoritative ``item``, validated at ``now``."""
        # Positional: a keyword call costs the dataclass about as much again.
        return CachedCopy(
            item.key,
            item.size_bytes,
            item.version,
            self._access_counts.get(item.key, 1),  # access_count
            self.directory.key_distance(item.key, self.shard_id),  # reg_dst
            item.ttr,
            now,  # validated_at
            0.0,  # priority: primed by the insert
            now,  # last_access
        )

    def _admit(self, copy: CachedCopy, now: float) -> bool:
        """Admission + replacement (§3.2-3.3); whether ``copy`` got in.
        Its key's old hit line goes, and so do those of its victims."""
        hit_lines = self._hit_lines
        hit_lines.pop(copy.key, None)
        evicted = self.cache.insert(copy, now)
        if evicted:
            self.stats.count("cache.evictions", float(len(evicted)))
            for key in evicted:
                hit_lines.pop(key, None)
        return copy.key in self.cache.entries

    async def _fetch_coalesced(self, key: int) -> DataItem:
        """One origin fetch per key, however many waiters pile on.

        The first waiter leads: it registers a bare future under the
        key, runs the fetch in its own task — retry budget and hedging
        included, so a brownout costs one retry ladder per key, not one
        per waiter — and resolves the future with the item, or with
        the ladder's final :class:`OriginError`.  Followers wait on
        the future, each under its own deadline.  A leader that runs
        out of budget or is cancelled resolves it with None instead:
        the followers start over, the first to wake leads a new fetch
        and the rest follow that one.
        """
        shared = self._inflight.get(key)
        if shared is not None:
            self.stats.count("cache.coalesced_fetches")
        while shared is not None:
            # shield(): this waiter's deadline must not cancel the
            # future the others are waiting on.
            item = await asyncio.shield(shared)
            if item is not None:
                return item
            shared = self._inflight.get(key)
        shared = asyncio.get_running_loop().create_future()
        self._inflight[key] = shared
        self.stats.count("cache.origin_fetches")
        item = None
        try:
            item = await self._origin_attempts(lambda: self.origin.fetch(key))
            return item
        except OriginError as exc:
            if not shared.done():
                shared.set_exception(exc)
                shared.exception()  # retrieved: no "never retrieved" noise
            raise
        finally:
            if self._inflight.get(key) is shared:
                del self._inflight[key]
            if not shared.done():
                shared.set_result(item)

    async def _origin_attempts(self, factory):
        """Retry budget + hedging around one origin interaction.

        Only :class:`OriginError` (an answered failure) consumes the
        retry budget — a stall is indistinguishable from slowness and
        is the deadline's / hedge's problem, not the retry loop's.
        Backoff waits run inside the caller's deadline bound, so a
        retry ladder can never outlive the request budget.
        """
        attempts = 1 + (
            self.resilience.retries if self.resilience is not None else 0
        )
        for attempt in range(1, attempts + 1):
            try:
                return await self._hedged(factory)
            except OriginError:
                self.stats.count("cache.origin_errors")
                if attempt == attempts:
                    raise
                self.stats.count("resilience.retry")
                await asyncio.sleep(self.resilience.retry_delay(attempt))

    async def _hedged(self, factory):
        """Race a slow origin call against one hedged duplicate.

        The primary gets ``hedge_after`` seconds to itself; past that,
        a second call is launched and the first *success* wins (an
        error from either side is held until both have failed).
        """
        if self.hedge_after is None:
            return await factory()
        primary = asyncio.ensure_future(factory())
        tasks = [primary]
        try:
            try:
                return await asyncio.wait_for(
                    asyncio.shield(primary), self.hedge_after
                )
            except asyncio.TimeoutError:
                pass  # primary is slow: hedge
            self.stats.count("resilience.hedged_fetches")
            backup = asyncio.ensure_future(factory())
            tasks.append(backup)
            pending = set(tasks)
            error: Optional[BaseException] = None
            while pending:
                done, pending = await asyncio.wait(
                    pending, return_when=asyncio.FIRST_COMPLETED
                )
                for task in done:
                    if task.cancelled():
                        continue
                    if task.exception() is None:
                        if task is backup:
                            self.stats.count("resilience.hedge_wins")
                        return task.result()
                    error = task.exception()
            raise error if error is not None else OriginError("hedge failed")
        finally:
            for task in tasks:
                if not task.done():
                    task.cancel()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CacheService(shard={self.shard_id}, {self.cache!r})"
