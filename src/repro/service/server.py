"""EdgeCacheServer: the asyncio runtime around the cache core.

One process hosts N region shards (one :class:`CacheService` each),
keys routed to their home shard by the paper's geographic hash
(:class:`~repro.service.routing.ShardDirectory`).  Clients speak a
JSON-lines TCP protocol: one request object per line, one response
object per line, ordered per connection.

What the server adds around the core:

* **connections** — one :class:`asyncio.BufferedProtocol` per client,
  reading into one buffer it keeps and working per *read*: every
  buffered line is parsed once and dispatched, its encoded response or
  its op's task goes on a per-connection deque, and the completed head
  of the deque leaves in one ``transport.write`` (a task's
  done-callback flushes the rest), so responses keep request order.
  The read also counts its lines in ``service.requests`` and stamps
  the heartbeat of each shard that ran an op inline, once each.  A
  full write buffer pauses reading until the client drains it; a
  request line is bounded at 64 KiB.  A get/put/invalidate line in the
  two-member spelling below is read off a compiled pattern, and every
  shard-op response is written by the shard's one line writer: an
  inline read or put returns its line (a fresh hit's memoized per
  cached copy), any other outcome a :class:`CacheResponse` that
  encodes through the same writer.  Both are byte for byte what
  ``json`` would read and write, so a get or put makes no ``json``
  call; any other spelling and the dict-shaped replies go through
  ``json`` as before;
* **shard workers** — each shard admits its ops in arrival order, and
  every admitted op runs in the caller's task — the connection's
  answer task — so an awaited op (a miss or validation that waits on
  the origin, failover, invalidate) costs one task, while still
  counting in the shard's load, its admission bound, its drain and
  its heartbeat.  An op with
  nothing ahead of it starts at once; one behind a wedge or earlier
  waiters first takes its turn on the shard's FIFO lock, so a slow
  origin wait never blocks other shards or the fresh hits behind it;
* **the await-free path** — a put, or a get that needs no wait (a
  fresh hit, or a miss or validation the origin answers at once; see
  :meth:`CacheService.get_nowait`), whose home worker is *idle*
  (:meth:`_ShardWorker.idle`: up and not draining, nothing waiting
  and no wedge, in-flight below ``max_inflight``, no answer task bound
  for the shard still unstarted) has nothing to await, so the server
  runs it in the read callback: no task at all, heartbeat stamped at
  the end of the read.
  Everything else takes the awaitable ``_get``/``_put``/``_submit``
  path in one answer task.  One function,
  :meth:`EdgeCacheServer._process`, makes that choice for every line;
* **write dissemination** — an in-process
  :class:`~repro.ports.ConsistencyTransport`: an UpdatePush is applied
  at the home shard first (which folds eq. 2 into the TTR) and then at
  the replica shard, an invalidation floods every shard;
* **replica failover** — a get the home shard cannot serve (breaker
  open and no local copy, deadline trip, worker down or aborted) is
  retried once against the key's replica shard (§2.4), marked as a
  degraded serve, within what is left of the request's one deadline;
* **shard supervision** — a :class:`ShardSupervisor` watchdog detects
  a crashed or wedged worker, restarts it with exponential backoff,
  and warm-rebuilds a crashed shard's cache from replica-held copies
  before readmitting traffic;
* **overload shedding** — each shard bounds its admitted-but-unfinished
  work (``max_inflight``); past the bound, ops are refused with an
  explicit ``overloaded`` response (served class ``shed``) instead of
  admitting without bound;
* **telemetry** — a sampler task publishes one row per interval to a
  :class:`~repro.obs.TelemetryBus`, feeding the same live-export /
  metrics-snapshot / ``--watch`` sinks the simulation uses, with the
  same series names — ``repro watch`` renders a service run unchanged;
* **graceful drain** — SIGTERM/SIGINT stops accepting connections,
  lets every admitted op finish, closes idle connections and
  lets busy ones write what they owe first, flushes a final telemetry
  row, writes the live export's end record, and exits 0.

The wire protocol (newline-delimited JSON)::

    {"op": "get", "key": 17}
    {"op": "put", "key": 17}
    {"op": "invalidate", "key": 17}
    {"op": "stats"}
    {"op": "ping"}
    {"op": "chaos", "action": "stall" | "resume"}       # origin switch
    {"op": "chaos", "action": "inject",
     "spec": "origin-error-rate:at=0,p=0.5,duration=2"}  # any fault spec

``key`` must be a JSON integer in ``[0, n_items)`` and a line a JSON
object, in any JSON spelling (member order, whitespace, escapes);
anything else is answered ``{"ok": false, "error": ...}`` and the
connection stays usable (an over-long line is answered, then the
connection closes).  Every line counts once in ``service.requests``.
"""

from __future__ import annotations

import asyncio
import json
import re
import signal
import sys
from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, Optional, Set, Union

import numpy as np

from repro.core.consistency import (
    ConsistencyScheme,
    PlainPush,
    PullEveryTime,
    PushAdaptivePull,
)
from repro.checks import check_numbers
from repro.core.messages import Invalidation, UpdatePush
from repro.ports import CounterStatSink
from repro.resilience.backoff import BackoffPolicy
from repro.resilience.manager import ResilienceManager
from repro.service.chaos import ServiceFaultInjector
from repro.service.clock import WallClock
from repro.service.core import CacheResponse, CacheService
from repro.service.faultplan import (
    CHAOS_GRAMMAR,
    ServiceFaultPlan,
    ServiceFaultSpec,
)
from repro.service.origin import InMemoryOrigin
from repro.service.routing import ShardDirectory
from repro.service.supervision import ShardSupervisor
from repro.workload.database import Database

__all__ = [
    "EdgeCacheServer",
    "ServiceConfig",
    "WorkerOverloaded",
    "WorkerUnavailable",
    "build_scheme",
]

#: First origin-retry backoff (seconds) when ``origin_retries > 0``.
RETRY_BACKOFF_BASE = 0.05

#: First-restart backoff (seconds) for a failed shard.
RESTART_BACKOFF_BASE = 0.05

#: Wire-protocol schemes -> constructors.
_SCHEMES = {
    "push-adaptive-pull": PushAdaptivePull,
    "plain-push": PlainPush,
    "pull-every-time": PullEveryTime,
}


def build_scheme(name: str) -> ConsistencyScheme:
    try:
        return _SCHEMES[name]()
    except KeyError:
        raise ValueError(
            f"unknown consistency scheme {name!r} "
            f"(choose from {sorted(_SCHEMES)})"
        ) from None


#: ``ServiceConfig``'s numbers: field, integral, whether 0 is allowed,
#: and what None means where None is a setting.
_NUMERIC_FIELDS = (
    ("port", True, True, None),  # 0: any free port
    ("n_shards", True, False, None),
    ("n_items", True, False, None),
    ("cache_fraction", False, False, None),
    ("seed", True, True, None),
    ("origin_latency", False, True, None),  # 0: an instant origin
    ("deadline", False, False, "no request deadline"),
    ("suspect_after", False, False, None),
    ("breaker_cooldown", False, False, None),
    ("origin_retries", True, True, None),  # 0: no in-request retries
    ("hedge_after", False, False, "no hedged origin calls"),
    ("max_inflight", True, False, "no admission bound"),
    ("heartbeat_timeout", False, False, None),
    ("telemetry_interval", False, False, None),
    ("duration", False, False, "serve until signalled"),
)


@dataclass
class ServiceConfig:
    """Everything ``repro serve`` needs to stand up an edge-cache tier."""

    host: str = "127.0.0.1"
    port: int = 7117
    n_shards: int = 4
    n_items: int = 500
    #: Per-shard dynamic cache capacity as a fraction of total database
    #: bytes (the paper expresses capacity the same way: 0.5 %-2.5 %).
    cache_fraction: float = 0.05
    seed: int = 1
    #: Simulated origin round-trip (seconds); 0 = instant origin.
    origin_latency: float = 0.0
    consistency: str = "push-adaptive-pull"
    #: Per-request latency budget (seconds); None disables deadlines.
    deadline: Optional[float] = 1.0
    suspect_after: float = 3.0
    breaker_cooldown: float = 2.0
    #: Origin retry budget per request (0 disables in-request retries;
    #: only answered failures consume it — stalls are the deadline's
    #: problem).
    origin_retries: int = 0
    #: Launch a hedged duplicate after a origin call has been slow for
    #: this many seconds; None disables hedging.
    hedge_after: Optional[float] = None
    #: Per-shard bound on admitted-but-unfinished ops; past it, new
    #: ops are shed with an ``overloaded`` response.  None = unbounded
    #: (the pre-survival behaviour).
    max_inflight: Optional[int] = 64
    #: Shard supervision (crash/wedge detection + backoff restarts).
    supervise: bool = True
    #: Seconds a worker may keep ops waiting without progress before
    #: the supervisor declares it wedged.
    heartbeat_timeout: float = 1.0
    #: Scripted chaos schedule executed on the server's clock.
    fault_plan: Optional[ServiceFaultPlan] = None
    #: Telemetry sampling interval (wall seconds).
    telemetry_interval: float = 1.0
    live_export: Optional[str] = None
    metrics_snapshot: Optional[str] = None
    watch: bool = False
    dashboard_mode: str = "auto"
    #: Auto-shutdown after this many wall seconds; None = run forever.
    duration: Optional[float] = None

    def __post_init__(self) -> None:
        # A float shard count ran int(n_shards) shards and reported the
        # float.
        check_numbers(vars(self), _NUMERIC_FIELDS, {"port": 65535})
        if self.consistency not in _SCHEMES:
            raise ValueError(
                f"unknown consistency scheme {self.consistency!r} "
                f"(choose from {sorted(_SCHEMES)})"
            )
        if (
            self.fault_plan is not None
            and self.fault_plan.max_shard() >= self.n_shards
        ):
            raise ValueError(
                f"fault plan targets shard {self.fault_plan.max_shard()}, "
                f"but the server only has {self.n_shards} shard(s)"
            )


class WorkerUnavailable(RuntimeError):
    """The shard worker is drained or down; the op was not admitted."""


class WorkerOverloaded(RuntimeError):
    """The shard's admission bound is full; the op was shed."""


class _ShardWorker:
    """Arrival-order admission for one shard, in the caller's task.

    :meth:`submit` runs every admitted op's coroutine in the task that
    submitted it (the connection's answer task): no queue, no relay
    future, no second task.  An op with nothing ahead of it starts at
    once.  One that finds a wedge or earlier waiters first takes its
    turn on a FIFO lock, in its own task, and starts there — so arrival
    order holds and a slow origin wait still blocks nothing behind it.
    Either way the op is in :meth:`load` until it finishes, and
    ``drain()`` stops admission and waits for everything already
    admitted.

    Survival extras: admission is bounded by ``max_inflight`` (past
    it, :meth:`submit` raises :class:`WorkerOverloaded` — explicit
    load shedding); every op that starts, here or inline (see
    :meth:`idle`), stamps a heartbeat, so the supervisor can tell a
    wedged worker from an idle one; an injected wedge is a task holding
    the turn, an injected crash a flag; and :meth:`abort` /
    :meth:`restart` implement the supervisor's kill-and-rebirth cycle.
    """

    def __init__(self, shard: CacheService, max_inflight: Optional[int] = None):
        self.shard = shard
        self.max_inflight = max_inflight
        #: Tasks holding an admitted op, waiting for their turn or running it.
        self._pending: Set[asyncio.Task] = set()
        #: Resolved when ``_pending`` empties (see :meth:`_settle`).
        self._settled: Optional[asyncio.Future] = None
        #: The FIFO turn taken by ops that find something ahead of them.
        self._turn = asyncio.Lock()
        #: Admitted ops still waiting for their turn.
        self._waiting = 0
        #: Injected wedges: each holds (or waits for) the turn, and is
        #: ahead of every op admitted after its injection.
        self._wedges: Set[asyncio.Task] = set()
        #: Admitting: started, and neither crashed nor aborted since.
        self._up = False
        self._stopped = False
        #: An injected crash; cleared by start().
        self._crashed = False
        #: A crash-abort cancelled everything pending; cleared by start().
        self._aborted = False
        #: Loop-time of the last progress mark (an op started or run
        #: inline, or a wedge took hold).
        self.last_beat = 0.0
        #: Answer tasks the server made for ops bound for this shard
        #: that have not taken their first step, i.e. not reached
        #: :meth:`submit` yet.  An op run inline now would overtake them.
        self.unstarted = 0
        #: Times this worker has been reborn by the supervisor.
        self.restarts = 0

    # -- state probes (the supervisor's view) --------------------------------

    @property
    def draining(self) -> bool:
        return self._stopped

    def alive(self) -> bool:
        return self._up

    def crashed(self) -> bool:
        """An injected crash took the shard down outside a drain."""
        return self._crashed and not self._stopped

    def wedged(self, loop_now: float, timeout: float) -> bool:
        """Ops are waiting but the shard has not beaten for ``timeout``."""
        return (
            not self._stopped
            and self._up
            and self._waiting > 0
            and loop_now - self.last_beat > timeout
        )

    def load(self) -> int:
        """Admitted-but-unfinished ops (waiting + running)."""
        return len(self._pending)

    def idle(self) -> bool:
        """An op run right now would be admitted, and start at once.

        The server's await-free path runs such an op itself instead of
        handing it over: same admission verdict (:meth:`submit` would
        neither refuse nor shed it), same order (no wedge, and nothing
        waiting or on its way to :meth:`submit` ahead of it), no task.
        """
        return (
            self._up
            and not self._stopped
            and not self._waiting
            and not self._wedges
            and not self.unstarted
            and (
                self.max_inflight is None
                or len(self._pending) < self.max_inflight
            )
        )

    def beat(self) -> None:
        """Progress mark: the shard just started or ran an op inline, or
        a wedge took hold."""
        self.last_beat = asyncio.get_running_loop().time()

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> None:
        self._up = True
        self._crashed = self._aborted = False
        self.beat()

    async def _settle(self) -> None:
        """Wait until no admitted op is unfinished."""
        while self._pending:
            if self._settled is None:
                self._settled = asyncio.get_running_loop().create_future()
            await asyncio.shield(self._settled)

    async def submit(self, coro):
        """Admit one op on this shard and run it here, in the caller's task.

        Fails fast instead of admitting into a worker that will never
        run the op: a drained or down worker raises
        :class:`WorkerUnavailable`; a full one (``max_inflight``
        admitted-but-unfinished ops) raises :class:`WorkerOverloaded`.

        The caller's task stands in ``_pending`` from admission to the
        op's end.  With a wedge or earlier waiters ahead, it first
        waits for its turn; a crash meanwhile fails it with
        :class:`WorkerUnavailable`, and so does a crash-abort
        cancelling it, waiting or running.
        """
        if self._stopped or not self._up:
            coro.close()
            raise WorkerUnavailable(
                "shard-drained" if self._stopped else "shard-down"
            )
        pending = self._pending
        if self.max_inflight is not None and len(pending) >= self.max_inflight:
            coro.close()
            raise WorkerOverloaded("admission bound full")
        task = asyncio.current_task()
        pending.add(task)
        try:
            if self._waiting or self._wedges:
                self._waiting += 1
                try:
                    # A wedge injected before this op was scheduled
                    # before it: after one step it holds the turn, or
                    # waits for it, ahead of this op.
                    await asyncio.sleep(0)
                    async with self._turn:
                        pass  # the turn only orders the starts
                finally:
                    self._waiting -= 1
                if self._crashed:
                    raise WorkerUnavailable("shard worker stopped")
            self.beat()
            return await coro
        except asyncio.CancelledError:
            if not self._aborted:
                raise
            if hasattr(task, "uncancel"):  # Python >= 3.11
                task.uncancel()
            raise WorkerUnavailable("shard worker aborted") from None
        finally:
            coro.close()  # an op that never started
            pending.discard(task)
            if self._settled is not None and not pending:
                self._settled.set_result(None)
                self._settled = None

    async def drain(self) -> None:
        """Stop admitting, end any wedge, wait for every admitted op."""
        self._stopped = True
        self._end_wedges()
        await self._settle()

    # -- supervisor hooks ----------------------------------------------------

    def inject_crash(self) -> None:
        """Chaos: the shard dies.  Admission stops, a wedge dies with it,
        and the ops waiting for their turn fail; running ops run on until
        the supervisor's :meth:`abort`."""
        self._up = False
        self._crashed = True
        self._end_wedges()

    def inject_wedge(self, duration: float) -> None:
        """Chaos: the shard stalls for ``duration`` seconds — ops admitted
        from now on wait behind it, and the heartbeat goes stale."""
        wedge = asyncio.ensure_future(self._hold_turn(float(duration)))
        self._wedges.add(wedge)
        wedge.add_done_callback(self._wedges.discard)

    async def _hold_turn(self, duration: float) -> None:
        async with self._turn:
            self.beat()  # staleness counts from the stall, not from idling
            await asyncio.sleep(duration)

    def _end_wedges(self) -> None:
        for wedge in list(self._wedges):
            wedge.cancel()

    async def abort(self, crashed: bool) -> None:
        """Take the worker down (supervisor restart path).

        ``crashed``: every admitted op, waiting or running, is
        cancelled into :class:`WorkerUnavailable` (the shard "process"
        died mid-work).  A wedge keeps both the cache and the admitted
        ops; they start once :meth:`restart` ends the wedge.
        """
        self._up = False
        if crashed:
            self._aborted = True
            for task in list(self._pending):
                task.cancel()
            await self._settle()

    def restart(self) -> None:
        self.restarts += 1
        self._end_wedges()
        self.start()


class _ShardTransport:
    """ConsistencyTransport adapter: in-process shard delivery.

    The simulation implements the same port with radio floods; here a
    push is two method calls — home shard first (it owns the TTR fold
    of eq. 2, exactly like the home custodian in the peer protocol),
    then the replica shard — and an invalidation visits every shard.
    """

    def __init__(self, server: "EdgeCacheServer"):
        self._server = server

    def push_update_to_regions(self, updater: int, key: int, category: str) -> None:
        server = self._server
        item = server.database[key]
        home = server.directory.home_region(key)
        replica = server.directory.replica_region(key)
        targets = [home] if replica == home else [home, replica]
        for region_id in targets:
            msg = UpdatePush(
                key=key,
                version=item.version,
                update_time=item.last_update_time,
                updater=updater,
                data_size=item.size_bytes,
                target_region_id=region_id,
            )
            server.shards[region_id].apply_push(item, msg)
        server.stats.count("consistency.pushes", float(len(targets)))

    def flood_invalidation(self, updater: int, key: int, category: str) -> None:
        server = self._server
        item = server.database[key]
        msg = Invalidation(key=key, version=item.version, updater=updater)
        for shard in server.shards.values():
            shard.apply_invalidation(msg)
        server.stats.count("consistency.invalidations")


#: Longest request line accepted, newline excluded (bytes).
MAX_LINE = 2 ** 16

#: Size of the one buffer each connection reads into (bytes).  A line
#: longer than this arrives over several reads.
READ_SIZE = 2 ** 16

#: The spelling of a shard op every client in the tree sends:
#: ``{"op": "get" | "put" | "invalidate", "key": N}``, exactly those two
#: members in that order, JSON whitespace wherever JSON allows it (not
#: ``\s``, which also admits ``\v`` and ``\f``), N a JSON integer
#: without sign or leading zeros and short enough for any ``int()``.  A
#: line of this shape is read off the match; every other line - valid
#: JSON or not - goes to ``json.loads``, so the two never disagree.
_SHARD_OP_LINE = re.compile(
    rb"[ \t\r]*".join([
        rb"", rb"\{", rb'"op"', rb":", rb'"(get|put|invalidate)"', rb",",
        rb'"key"', rb":", rb"(0|[1-9][0-9]{0,17})", rb"\}", rb"",
    ])
).fullmatch


class _Connection(asyncio.BufferedProtocol):
    """One client connection: parse per read, answer in order, flush once.

    The socket is read into one buffer the connection keeps
    (:meth:`get_buffer`); asyncio's plain :class:`asyncio.Protocol`
    would allocate a fresh 256 KiB ``bytes`` for every read instead.
    Every read is split into lines and each line handed to
    :meth:`EdgeCacheServer._process`, which returns either the encoded
    response or the task that will produce it.  Both go on one deque;
    whatever prefix of it is complete leaves in a single
    ``transport.write``, and a task's done-callback flushes again, so
    responses keep request order however ops interleave.  Dispatching
    every line of a read before answering is also what lets a
    pipelining client reach the shard admission bounds instead of
    piling up in socket buffers.

    Backpressure is the transport's: when the write buffer passes its
    high-water mark reading is paused, so a client that does not read
    its responses stops being served instead of growing the buffer.
    """

    def __init__(self, server: "EdgeCacheServer"):
        self.server = server
        self.transport: Optional[asyncio.Transport] = None
        #: Resolved by :meth:`connection_lost` (the drain awaits it).
        self.closed = asyncio.get_running_loop().create_future()
        #: Bytes received after the last newline.
        self._tail = b""
        #: What every read lands in; see :meth:`get_buffer`.
        self._buffer = memoryview(bytearray(READ_SIZE))
        #: Responses owed, oldest first: bytes, or a task resolving to them.
        self._owed: Deque[Union[bytes, "asyncio.Task[bytes]"]] = deque()
        #: Reads are ignored; the transport closes once ``_owed`` is flushed.
        self._closing = False

    def connection_made(self, transport) -> None:
        self.transport = transport
        self.server._connections.add(self)
        self.server.stats.count("service.connections")

    def get_buffer(self, sizehint: int) -> memoryview:
        return self._buffer

    def buffer_updated(self, nbytes: int) -> None:
        self.data_received(self._buffer[:nbytes])

    def data_received(self, data) -> None:
        """Serve every line ``data`` completes (``data``: bytes-like)."""
        if self._closing:
            return
        server = self.server
        started = server.clock.now()
        data = self._tail + data  # bytes, whatever ``data`` was
        lines = data.split(b"\n")
        self._tail = lines.pop()
        if len(data) > MAX_LINE:
            # A line over the bound, ended or not, gets one verdict and
            # then the connection closes: there is no resynchronising on
            # a stream with no line end in sight.
            lines.append(self._tail)
            for at, line in enumerate(lines):
                if len(line) > MAX_LINE:
                    del lines[at + 1:]
                    self._tail = b""
                    self._closing = True
                    break
            else:
                lines.pop()
        if not lines:
            return
        server.stats.count("service.requests", len(lines))
        owed = self._owed
        process = server._process
        for line in lines:
            response = process(line, started)
            if type(response) is not bytes:
                response.add_done_callback(self._flush)
            owed.append(response)
        ran_inline = server._ran_inline
        if ran_inline:
            for worker in ran_inline:
                worker.beat()
            ran_inline.clear()
        self._flush()

    def eof_received(self) -> bool:
        # A half-closing client may still be reading: serve an
        # unterminated last line, then keep the transport open until
        # everything owed has been written.
        if self._tail:
            self.data_received(b"\n")
        self._closing = True
        return bool(self._owed)

    def connection_lost(self, exc: Optional[Exception]) -> None:
        self._closing = True
        self.server._connections.discard(self)
        if not self.closed.done():
            self.closed.set_result(None)

    def pause_writing(self) -> None:
        self.transport.pause_reading()

    def resume_writing(self) -> None:
        self.transport.resume_reading()

    def drain(self) -> None:
        """Graceful close: at once if idle, else after the last response."""
        self._closing = True
        if not self._owed:
            self.transport.close()

    def _flush(self, _task: Optional[asyncio.Task] = None) -> None:
        """Write the completed head of ``_owed`` in one call."""
        owed = self._owed
        chunks = []
        while owed:
            head = owed[0]
            if not isinstance(head, bytes):
                if not head.done():
                    break
                if head.cancelled():  # loop teardown: nothing more to say
                    self.transport.abort()
                    return
                head = head.result()
            chunks.append(head)
            owed.popleft()
        if self.transport.is_closing():
            return  # the client went away; ops still run to completion
        if chunks:
            self.transport.write(b"".join(chunks))
        if self._closing and not owed:
            self.transport.close()


class EdgeCacheServer:
    """The asyncio edge-cache service (see module docstring).

    Construct with a :class:`ServiceConfig`, then either call
    :meth:`run` (blocking; installs signal handlers; what ``repro
    serve`` does) or drive it from an existing loop::

        server = EdgeCacheServer(cfg)
        await server.start()          # listening; server.port is bound
        ...
        await server.shutdown()       # graceful drain
    """

    def __init__(self, cfg: ServiceConfig):
        self.cfg = cfg
        self.clock = WallClock()
        self.stats = CounterStatSink()
        self.directory = ShardDirectory(cfg.n_shards, cfg.n_items, salt=cfg.seed)
        rng = np.random.default_rng(cfg.seed)
        self.database = Database(cfg.n_items, rng)
        self.origin = InMemoryOrigin(self.database, latency=cfg.origin_latency)
        self.scheme = build_scheme(cfg.consistency)
        self.scheme.bind(_ShardTransport(self))
        # Custodian-held TTR state starts exactly like the simulation's.
        for item in self.database.items:
            item.ttr = self.scheme.initial_ttr(item)
        # Dedicated seeded streams: [seed, 1] jitters retry/restart
        # backoff, [seed, 2] draws injected origin errors — neither can
        # perturb the database stream (default_rng(seed)) above.
        service_rng = np.random.default_rng([cfg.seed, 1])
        chaos_rng = np.random.default_rng([cfg.seed, 2])
        retry_backoff = (
            BackoffPolicy(
                base=RETRY_BACKOFF_BASE, jitter=0.1, rng=service_rng
            )
            if cfg.origin_retries > 0 else None
        )
        self.resilience = ResilienceManager(
            retries=cfg.origin_retries,
            deadline=cfg.deadline,
            backoff=retry_backoff,
            suspect_after=cfg.suspect_after,
            cooldown=cfg.breaker_cooldown,
            stats=self.stats,
            event_hook=self._resilience_event,
        )
        per_shard_capacity = (
            self.database.total_bytes * cfg.cache_fraction
        )
        self.shards: Dict[int, CacheService] = {
            region_id: CacheService(
                region_id,
                per_shard_capacity,
                clock=self.clock,
                directory=self.directory,
                origin=self.origin,
                scheme=self.scheme,
                resilience=self.resilience,
                stats=self.stats,
                hedge_after=cfg.hedge_after,
            )
            for region_id in self.directory.region_ids()
        }
        self.workers: Dict[int, _ShardWorker] = {
            region_id: _ShardWorker(shard, max_inflight=cfg.max_inflight)
            for region_id, shard in self.shards.items()
        }
        self.supervisor: Optional[ShardSupervisor] = None
        if cfg.supervise:
            self.supervisor = ShardSupervisor(
                workers=self.workers,
                shards=self.shards,
                directory=self.directory,
                clock=self.clock,
                stats=self.stats,
                backoff=BackoffPolicy(
                    base=RESTART_BACKOFF_BASE, jitter=0.1,
                    rng=service_rng,
                ),
                heartbeat_timeout=cfg.heartbeat_timeout,
                event_hook=self._resilience_event,
            )
        self.injector = ServiceFaultInjector(
            cfg.fault_plan if cfg.fault_plan is not None
            else ServiceFaultPlan(),
            workers=self.workers,
            origin=self.origin,
            clock=self.clock,
            stats=self.stats,
            rng=chaos_rng,
            event_hook=self._resilience_event,
        )
        self.port = cfg.port  # rebound to the real port after start()
        self.bus = None
        self._dashboard = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._connections: Set[_Connection] = set()
        #: Workers that ran an op inline during the read being served;
        #: the read stamps their heartbeats once it is done.
        self._ran_inline: Set[_ShardWorker] = set()
        self._telemetry_task: Optional[asyncio.Task] = None
        self._duration_task: Optional[asyncio.Task] = None
        self._shutdown = asyncio.Event()
        self._drained = False

    # -- lifecycle -----------------------------------------------------------

    async def start(self) -> None:
        """Bind, open the shards for admission, start the telemetry sampler."""
        self._build_bus()
        for worker in self.workers.values():
            worker.start()
        if self.supervisor is not None:
            self.supervisor.start()
        self.injector.start()
        self._server = await asyncio.get_running_loop().create_server(
            lambda: _Connection(self), self.cfg.host, self.cfg.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        if self.bus is not None:
            self._telemetry_task = asyncio.ensure_future(self._telemetry_loop())
        if self.cfg.duration is not None:
            self._duration_task = asyncio.ensure_future(
                self._auto_shutdown(self.cfg.duration)
            )

    async def serve_forever(self) -> None:
        """Block until :meth:`request_shutdown`, then drain."""
        await self._shutdown.wait()
        await self.shutdown()

    def request_shutdown(self) -> None:
        """Signal-safe shutdown trigger (idempotent)."""
        self._shutdown.set()

    async def shutdown(self) -> None:
        """Graceful drain; see module docstring.  Idempotent."""
        if self._drained:
            return
        self._drained = True
        self._shutdown.set()
        if self._duration_task is not None:
            self._duration_task.cancel()
        if self._server is not None:
            self._server.close()  # stop accepting; open connections stay
        # Chaos and supervision stop first: no new faults land and no
        # restart cycle races the drain.
        await self.injector.stop()
        if self.supervisor is not None:
            await self.supervisor.stop()
        # Everything admitted (waiting or running) finishes first ...
        # (a chaos-stalled origin stays stalled: parked ops resolve
        # through their deadlines, so the drain still terminates).
        await asyncio.gather(*(w.drain() for w in self.workers.values()))
        # ... then idle connections are closed; busy ones close
        # themselves after writing the last response they owe.
        connections = list(self._connections)
        for connection in connections:
            connection.drain()
        await asyncio.gather(*(c.closed for c in connections))
        if self._server is not None:
            await self._server.wait_closed()
        if self._telemetry_task is not None:
            self._telemetry_task.cancel()
            try:
                await self._telemetry_task
            except asyncio.CancelledError:
                pass
        if self.bus is not None:
            self.bus.publish(self.clock.now(), self._telemetry_row())
            if self._dashboard is not None:
                self._dashboard.close()
            self.bus.close()

    def run(self) -> int:
        """Blocking entry point: serve until SIGTERM/SIGINT, exit 0."""
        loop = asyncio.new_event_loop()
        try:
            asyncio.set_event_loop(loop)
            loop.run_until_complete(self.start())
            for signum in (signal.SIGTERM, signal.SIGINT):
                try:
                    loop.add_signal_handler(signum, self.request_shutdown)
                except (NotImplementedError, RuntimeError):  # pragma: no cover
                    pass  # non-Unix loop: Ctrl-C still raises KeyboardInterrupt
            print(
                f"edge-cache: {self.cfg.n_shards} shard(s) on "
                f"{self.cfg.host}:{self.port}, {self.cfg.n_items} items, "
                f"scheme {self.cfg.consistency}",
                file=sys.stderr,
            )
            loop.run_until_complete(self.serve_forever())
        except KeyboardInterrupt:  # pragma: no cover - interactive only
            loop.run_until_complete(self.shutdown())
        finally:
            loop.close()
        snapshot = self.stats.snapshot()
        served = snapshot.get("service.get", 0.0)
        hits = snapshot.get("cache.hits", 0.0)
        print(
            f"edge-cache: drained after {served:.0f} get(s), "
            f"{hits:.0f} local hit(s)",
            file=sys.stderr,
        )
        return 0

    async def _auto_shutdown(self, duration: float) -> None:
        await asyncio.sleep(duration)
        self.request_shutdown()

    # -- request handling ----------------------------------------------------

    def _process(
        self, line: bytes, started: float
    ) -> Union[bytes, "asyncio.Task[bytes]"]:
        """One request line in; its encoded response, or the task owing it.

        The one dispatch of every line (the connection counts it in
        ``service.requests``).  A get/put/invalidate, its op bytes and
        key read off :data:`_SHARD_OP_LINE` (or ``json.loads``), goes
        to its home shard.  If the home worker is
        :meth:`~_ShardWorker.idle`, a put and a get that needs no wait
        (:meth:`CacheService.get_nowait`) run right here, the read stamps
        the worker's heartbeat (:attr:`_ran_inline`), and a line head
        gets only its latency added.  Every other op becomes one task on
        the awaitable ``_get``/``_put``/``_submit`` path.
        """
        try:
            if len(line) > MAX_LINE:
                raise ValueError(f"request line exceeds {MAX_LINE} bytes")
            shard_op = _SHARD_OP_LINE(line)
            if shard_op is not None:
                op, key = shard_op.groups()
                key = int(key)
            else:
                request = json.loads(line)
                if not isinstance(request, dict):
                    raise ValueError("request must be a JSON object")
                op, key = request.get("op"), request.get("key")
                if op == "stats":
                    return self._reply(self.describe(), started)
                if op == "ping":
                    ping = {"op": "ping", "ok": True, "t": self.clock.now()}
                    return self._reply(ping, started)
                if op == "chaos":
                    return self._reply(self._chaos(request), started)
                if op not in ("get", "put", "invalidate"):
                    raise ValueError(f"unknown op {op!r}")
                op = op.encode()
            if type(key) is not int or not 0 <= key < self.cfg.n_items:
                raise ValueError(
                    f"key must be an integer in [0, {self.cfg.n_items}), "
                    f"got {key!r}"
                )
        except (ValueError, RecursionError) as exc:  # malformed request
            return self._reply({"ok": False, "error": str(exc)}, started)
        home = self.directory.homes[key]
        worker = self.workers[home]
        if worker.idle():
            served = None
            try:
                if op == b"get":
                    served = self.shards[home].get_nowait(key)
                elif op == b"put":
                    served = self.shards[home].put(key, -1, True)
            except Exception as exc:  # noqa: BLE001 - an inline op raised
                return self._reply(self._op_failed(exc), started)
            if served is not None:
                self._ran_inline.add(worker)
                if type(served) is bytes:
                    # The stamp _reply writes, appended to the line head.
                    return served + b"%r}\n" % round(
                        (self.clock.now() - started) * 1e3, 3
                    )
                return self._reply(served, started)
        if op == b"get":
            pending = self._get(key)
        elif op == b"put":
            pending = self._put(key)
        else:
            pending = self._submit(
                home, self._invalidate(key, home), op="invalidate", key=key
            )
        worker.unstarted += 1
        return asyncio.ensure_future(self._answer(worker, pending, started))

    async def _answer(
        self, worker: _ShardWorker, pending, started: float
    ) -> bytes:
        # This first step takes ``pending`` to its shard's admission
        # (started, or waiting for its turn) before anything else can
        # look at the worker.
        worker.unstarted -= 1
        try:
            response = await pending
        except Exception as exc:  # noqa: BLE001 - an awaited op raised
            response = self._op_failed(exc)
        return self._reply(response, started)

    def _op_failed(self, exc: Exception) -> dict:
        """A shard op raised, inline or awaited: the client is owed a
        line all the same, and the loop's exception handler the report."""
        asyncio.get_running_loop().call_exception_handler(
            {"message": "edge-cache: op failed", "exception": exc}
        )
        return {"ok": False, "error": repr(exc)}

    def _reply(
        self, response: Union[CacheResponse, dict], started: float
    ) -> bytes:
        """A response object, or a dict-shaped reply (stats, ping, chaos,
        errors), as its wire line with ``latency_ms`` stamped last."""
        latency_ms = round((self.clock.now() - started) * 1e3, 3)
        if type(response) is dict:
            response["latency_ms"] = latency_ms
            return json.dumps(response).encode() + b"\n"
        return response.encode(latency_ms)

    async def _submit(
        self, shard_id: int, coro, *, op: str, key: int
    ) -> CacheResponse:
        """Admit one op on a shard worker; refusals become responses.

        A full admission bound sheds the op (``overloaded``, served
        class ``shed``); a down or drained worker fails it fast
        (``unavailable``) — in both cases the client gets an explicit
        verdict instead of a hung request.
        """
        try:
            return await self.workers[shard_id].submit(coro)
        except WorkerOverloaded:
            self.stats.count("service.shed")
            self.stats.count("service.shed.queue_full")
            return CacheResponse(
                op, key, "overloaded", shard_id,
                served_class="shed", extra={"reason": "queue-full"},
            )
        except WorkerUnavailable as exc:
            self.stats.count("service.worker_unavailable")
            return CacheResponse(
                op, key, "unavailable", shard_id,
                served_class="failed", extra={"reason": str(exc)},
            )

    async def _get(self, key: int) -> CacheResponse:
        home = self.directory.home_region(key)
        # One latency budget per request: a failover spends what the
        # home attempt left of it, not a fresh one.
        deadline = self.resilience.deadline_for(self.clock.now())
        response = await self._submit(
            home, self.shards[home].get(key), op="get", key=key
        )
        # A shed op must stay shed: failing it over to the replica
        # would turn load shedding into load amplification.
        if not response.ok and response.served_class != "shed":
            replica = self.directory.replica_region(key)
            if replica != home:
                # §2.4 failover: one shot at the replica custodian,
                # which may hold a pushed copy even when the home path
                # is dark.  Steered: no breaker re-consultation there.
                fallback = await self._submit(
                    replica,
                    self.shards[replica].get(
                        key, steered=True, deadline=deadline
                    ),
                    op="get", key=key,
                )
                if fallback.ok:
                    fallback.extra["failover"] = "replica"
                    self.stats.count("service.replica_failover")
                    return fallback
        return response

    async def _put(self, key: int) -> CacheResponse:
        home = self.directory.home_region(key)
        return await self._submit(
            home, self._commit(key, home), op="put", key=key
        )

    async def _commit(self, key: int, home: int) -> CacheResponse:
        return self.shards[home].put(key, updater=-1)

    async def _invalidate(self, key: int, home: int) -> CacheResponse:
        response = self.shards[home].invalidate(key)
        # A client purge floods every shard unconditionally (it must
        # work under every scheme, unlike a Plain-Push notice).
        for region_id, shard in self.shards.items():
            if region_id != home and shard.purge(key):
                self.stats.count("service.purge_flood")
        return response

    def _chaos(self, request: dict) -> dict:
        """The chaos wire op: stall/resume aliases + arbitrary specs.

        ``stall``/``resume`` map onto immediate origin fault specs;
        ``inject`` parses any compact fault expression (``at`` is
        relative to now).  Unknown actions, unparsable specs and specs
        naming a shard the server does not have are rejected with a
        structured error echoing the supported grammar.
        """
        action = request.get("action")
        if action in ("stall", "resume"):
            self.injector.apply(ServiceFaultSpec(kind=f"origin-{action}"))
            return {
                "op": "chaos", "ok": True, "action": action,
                "stalled": self.origin.stalled,
            }
        if action == "inject":
            try:
                spec = ServiceFaultPlan.parse_spec(
                    str(request.get("spec", ""))
                )
                self.injector.inject(spec)
            except ValueError as exc:
                return {
                    "op": "chaos", "ok": False, "error": str(exc),
                    "grammar": list(CHAOS_GRAMMAR),
                }
            return {
                "op": "chaos", "ok": True, "action": "inject",
                "spec": spec.to_dict(),
            }
        return {
            "op": "chaos", "ok": False,
            "error": f"unknown chaos action {action!r}",
            "actions": ["stall", "resume", "inject"],
            "grammar": list(CHAOS_GRAMMAR),
        }

    # -- telemetry -----------------------------------------------------------

    def _build_bus(self) -> None:
        cfg = self.cfg
        if not (cfg.live_export or cfg.metrics_snapshot or cfg.watch):
            return
        from repro.obs import (
            Dashboard,
            JsonlLiveSink,
            MetricsSnapshotWriter,
            TelemetryBus,
        )

        self.bus = TelemetryBus()
        if cfg.live_export is not None:
            self.bus.attach_sink(JsonlLiveSink(cfg.live_export))
        if cfg.metrics_snapshot is not None:
            self.bus.attach_sink(MetricsSnapshotWriter(cfg.metrics_snapshot))
        if cfg.watch:
            self._dashboard = Dashboard(
                self.bus,
                duration=cfg.duration,
                interval=cfg.telemetry_interval,
                mode=cfg.dashboard_mode,
                title="repro edge-cache",
            )

    def _resilience_event(self, kind: str, **fields) -> None:
        if self.bus is not None:
            self.bus.publish_event(self.clock.now(), kind, fields)

    async def _telemetry_loop(self) -> None:
        while True:
            await asyncio.sleep(self.cfg.telemetry_interval)
            self.bus.publish(self.clock.now(), self._telemetry_row())

    def _telemetry_row(self) -> Dict[str, float]:
        """One sampled row, same series names the simulation publishes."""
        values = dict(self.stats.snapshot())
        gets = values.get("service.get", 0.0)
        hits = values.get("cache.hits", 0.0)
        degraded = values.get("cache.degraded_serves", 0.0)
        bytes_hit = values.get("cache.bytes_hit", 0.0)
        bytes_origin = values.get("cache.bytes_from_origin", 0.0)
        values["request.hit_ratio"] = (
            (hits + degraded) / gets if gets else 0.0
        )
        values["request.byte_hit_ratio"] = (
            bytes_hit / (bytes_hit + bytes_origin)
            if (bytes_hit + bytes_origin) else 0.0
        )
        values["service.open_connections"] = float(len(self._connections))
        sheds = values.get("service.shed", 0.0)
        values["service.shed_ratio"] = (
            sheds / (gets + sheds) if (gets + sheds) else 0.0
        )
        down = self.supervisor.down if self.supervisor is not None else set()
        shards_up = 0.0
        for shard_id, worker in self.workers.items():
            up = 1.0 if worker.alive() and shard_id not in down else 0.0
            shards_up += up
            values[f"service.shard{shard_id}.up"] = up
            values[f"service.shard{shard_id}.inflight"] = float(worker.load())
        values["service.shards_up"] = shards_up
        for shard in self.shards.values():
            values.update(shard.telemetry())
        values.update(self.resilience.telemetry())
        return values

    def describe(self) -> dict:
        """The ``stats`` op: a full JSON-friendly state snapshot."""
        return {
            "op": "stats",
            "ok": True,
            "t": self.clock.now(),
            "shards": self.cfg.n_shards,
            "items": self.cfg.n_items,
            "consistency": self.cfg.consistency,
            "origin": {
                "fetches": self.origin.fetches,
                "validations": self.origin.validations,
                "puts": self.origin.puts,
                "errors": self.origin.errors,
                "stalled": self.origin.stalled,
                "error_rate": self.origin.error_rate,
                "extra_latency": self.origin.extra_latency,
            },
            "supervision": {
                "enabled": self.supervisor is not None,
                "down": sorted(
                    self.supervisor.down
                ) if self.supervisor is not None else [],
                "restarts": {
                    str(shard_id): worker.restarts
                    for shard_id, worker in self.workers.items()
                    if worker.restarts
                },
            },
            "chaos_events": self.injector.applied,
            "telemetry": self._telemetry_row(),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"EdgeCacheServer(shards={len(self.shards)}, "
            f"port={self.port}, drained={self._drained})"
        )
