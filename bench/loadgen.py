"""The benchmark's own load generator for the edge-cache service.

``repro.service.loadgen`` records the *server's* self-reported
``latency_ms``, JSON-encodes inside its send loop and has no notion of
a due time, so it cannot say what a client sees.  This generator:

* draws the whole request stream from the workload seed and pre-encodes
  every request line **before** a round starts - the server only ever
  receives bytes, and the timed loop does no encoding;
* stamps every request and response on the client side with one clock;
* in the **closed** loop keeps ``window`` requests in flight per
  connection and sends the next one when a response lands;
* in the **open** loop sends request ``i`` at ``start + i / rate``
  whatever the server does, times it from that *due* time (so a stall
  charges every request it delayed) and reports how late the generator
  itself ran;
* counts a non-``ok``, shed or unanswered request as failed, and checks
  that responses received == requests sent.

Timed rounds only look for the ``"ok": true`` marker in each response;
a traced round keeps the raw response lines so the caller can parse
them in full *after* the round (see :func:`check_echo`).
"""

from __future__ import annotations

import asyncio
import json
from array import array
from collections import deque
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Deque, List, Optional, Sequence, Tuple

import numpy as np

from repro.workload.zipf import ZipfSampler

__all__ = [
    "Connection",
    "QuietClock",
    "OpenLoopSchedule",
    "RequestStream",
    "RoundResult",
    "check_echo",
    "closed_round",
    "open_connections",
    "open_round",
    "poll",
]

#: How ``json.dumps`` spells a served response (default and compact
#: separators); anything else - shed, failed, malformed - is a failure.
_OK_MARKS = (b'"ok": true', b'"ok":true')

#: Seconds a round may overrun before unanswered requests are failed.
ROUND_GRACE_S = 5.0


class RequestStream:
    """Seeded (op, key) stream with one pre-encoded line per request."""

    def __init__(self, seed: int, n_items: int, theta: float, put_ratio: float):
        self._sampler = ZipfSampler(n_items, theta, np.random.default_rng(seed))
        self._op_rng = np.random.default_rng([seed, 1])
        self._put_ratio = put_ratio
        self._lines = {
            op: [
                json.dumps({"op": op, "key": key}).encode() + b"\n"
                for key in range(n_items)
            ]
            for op in (("get", "put") if put_ratio > 0 else ("get",))
        }

    def take(self, count: int) -> Tuple[List[bytes], List[Tuple[str, int]]]:
        """The next ``count`` requests: wire lines and their (op, key)."""
        keys = self._sampler.sample_many(count).tolist()
        if self._put_ratio > 0:
            puts = (self._op_rng.random(count) < self._put_ratio).tolist()
            ops = ["put" if p else "get" for p in puts]
        else:
            ops = ["get"] * count
        lines = [self._lines[op][key] for op, key in zip(ops, keys)]
        return lines, list(zip(ops, keys))


class Connection:
    """One client connection and the stamps of its unanswered requests."""

    def __init__(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter):
        self.reader = reader
        self.writer = writer
        #: (request index, stamp) per request in flight, oldest first; the
        #: server answers each connection in request order.  The stamp is
        #: what latency runs from: the send time in a closed loop, the due
        #: time in an open one.
        self.inflight: Deque[Tuple[int, float]] = deque()


async def open_connections(host: str, port: int, count: int) -> List[Connection]:
    return [
        Connection(*await asyncio.open_connection(host, port))
        for _ in range(count)
    ]


@dataclass
class RoundResult:
    """What one round sent and what came back."""

    sent: int = 0
    ok: int = 0
    failed: int = 0          # answered, but not with "ok": true
    unanswered: int = 0      # no response within the round's grace
    wall_s: float = 0.0      # first send -> last response
    latencies_s: array = field(default_factory=lambda: array("d"))
    #: Open loop only: send time minus due time, per request.
    late_s: array = field(default_factory=lambda: array("d"))
    #: Traced rounds only: (request index, its stamp, raw response line),
    #: in order of receipt like ``latencies_s``.
    responses: List[Tuple[int, float, bytes]] = field(default_factory=list)

    @property
    def ops_failed(self) -> int:
        return self.failed + self.unanswered


def _record(result: RoundResult, conn: Connection, line: bytes, now: float,
            keep: bool) -> None:
    index, stamp = conn.inflight.popleft()
    result.latencies_s.append(now - stamp)
    if _OK_MARKS[0] in line or _OK_MARKS[1] in line:
        result.ok += 1
    else:
        result.failed += 1
    if keep:
        result.responses.append((index, stamp, line))


async def _finish(result: RoundResult, readers: Sequence, conns: Sequence[Connection],
                  budget_s: float, started: float, clock) -> RoundResult:
    """Await the reader tasks; requests still in flight after the grace fail."""
    done, pending = await asyncio.wait(
        [asyncio.ensure_future(r) for r in readers], timeout=budget_s
    )
    for task in pending:
        task.cancel()
    await asyncio.gather(*pending, return_exceptions=True)
    for task in done:
        task.result()  # surface a reader's exception
    result.wall_s = clock() - started
    result.unanswered = sum(len(c.inflight) for c in conns)
    for conn in conns:
        conn.inflight.clear()
    if result.ok + result.failed + result.unanswered != result.sent:
        raise RuntimeError(
            f"sent {result.sent} requests but accounted for "
            f"{result.ok} ok + {result.failed} failed + "
            f"{result.unanswered} unanswered"
        )
    return result


async def closed_round(
    conns: Sequence[Connection],
    lines: Sequence[bytes],
    window: int,
    duration_s: Optional[float],
    keep: bool = False,
    clock: Callable[[], float] = perf_counter,
) -> RoundResult:
    """Closed loop: ``window`` in flight per connection.

    Sends until ``duration_s`` has passed (or, with None, until
    ``lines`` run out - the fixed-count warm-up), then waits for the
    requests still in flight.  Connection ``c`` draws requests
    ``c, c + k, c + 2k, ...`` of the round.
    """
    result = RoundResult()
    started = clock()
    stop_at = None if duration_s is None else started + duration_s
    k = len(conns)

    async def drive(c: int, conn: Connection) -> None:
        indices = iter(range(c, len(lines), k))
        first = [i for _, i in zip(range(window), indices)]
        now = clock()
        conn.writer.write(b"".join(lines[i] for i in first))
        conn.inflight.extend((i, now) for i in first)
        result.sent += len(first)
        while conn.inflight:
            line = await conn.reader.readline()
            now = clock()
            if not line:
                return  # server closed: what is in flight stays unanswered
            _record(result, conn, line, now, keep)
            if stop_at is None or now < stop_at:
                i = next(indices, None)
                if i is not None:
                    conn.writer.write(lines[i])
                    conn.inflight.append((i, now))
                    result.sent += 1

    budget = (duration_s or 0.0) + ROUND_GRACE_S + len(lines) / 1000.0
    return await _finish(
        result, [drive(c, conn) for c, conn in enumerate(conns)], conns,
        budget, started, clock,
    )


class OpenLoopSchedule:
    """Fixed-rate send schedule: request ``i`` is due at ``start + i / rate``."""

    def __init__(self, rate: float, count: int, start: float):
        if rate <= 0:
            raise ValueError(f"rate must be positive, got {rate}")
        self.rate = float(rate)
        self.count = int(count)
        self.start = float(start)
        self._next = 0

    def due_at(self, index: int) -> float:
        return self.start + index / self.rate

    def take_due(self, now: float) -> range:
        """Indices that are due at ``now`` and not yet taken, in order."""
        first = self._next
        while self._next < self.count and self.due_at(self._next) <= now:
            self._next += 1
        return range(first, self._next)

    def wait(self, now: float) -> Optional[float]:
        """Seconds until the next request is due; None once all are taken."""
        if self._next >= self.count:
            return None
        return max(0.0, self.due_at(self._next) - now)


class QuietClock:
    """A clock that stops while the event loop does (polled open loop only).

    Every reading looks at how long ago the previous one was.  The
    polling sender reads the clock on every turn of the loop, and a turn
    handles a request or two: on the seed commit all but five turns a
    second end within 0.4 ms and none of the server's takes 1 ms (the
    collector's full pass, 9 ms every 5 s, does).  The shared host takes
    the processor away for 1-10 ms at a time, 3 to 30 times a second
    depending on its mood, and every such stall holds up the four
    requests per millisecond that fall due meanwhile - at 3 a second
    those *are* the 1 % tail.  A gap of more than ``limit_s`` between two
    readings is taken for the host's and left out: the schedule, the
    stamps and the latencies all run on this clock, so a stall neither
    delays a request nor makes the next ones late in a burst.
    ``skips`` and ``skipped_s`` say how much was left out.
    """

    def __init__(self, limit_s: float, clock: Callable[[], float] = perf_counter):
        self.limit_s = limit_s
        self.skipped_s = 0.0
        self.skips = 0
        self._clock = clock
        self._last: Optional[float] = None

    def __call__(self) -> float:
        now = self._clock()
        if self._last is not None and now - self._last > self.limit_s:
            self.skipped_s += now - self._last
            self.skips += 1
        self._last = now
        return now - self.skipped_s


async def poll(_wait_s: float) -> None:
    """``sleep`` for :func:`open_round` that never parks the event loop.

    It yields to the loop for one turn and returns, so the sender looks
    at the clock on every turn and the selector is only ever polled.  A
    sender that sleeps until the next due time is at the mercy of the
    selector's timeout (whole milliseconds in ``epoll``, four requests
    at 4,000 req/s) and of how fast the host wakes an idle process - at
    a fifth of capacity that, not the server, was three quarters of a
    request's latency, and it changes with the host's mood.
    """
    await asyncio.sleep(0)


async def open_round(
    conns: Sequence[Connection],
    lines: Sequence[bytes],
    rate: float,
    keep: bool = False,
    clock: Callable[[], float] = perf_counter,
    sleep: Callable = asyncio.sleep,
) -> RoundResult:
    """Open loop: all of ``lines`` at ``rate`` req/s, interleaved over ``conns``.

    A request's latency runs from its due time, not from when the
    generator got round to sending it; ``late_s`` holds that lag.
    """
    result = RoundResult()
    k = len(conns)
    expected = [len(range(c, len(lines), k)) for c in range(k)]
    started = clock()
    schedule = OpenLoopSchedule(rate, len(lines), started)

    async def send() -> None:
        while True:
            now = clock()
            for i in schedule.take_due(now):
                due = schedule.due_at(i)
                conn = conns[i % k]
                conn.writer.write(lines[i])
                conn.inflight.append((i, due))
                result.late_s.append(now - due)
                result.sent += 1
            wait = schedule.wait(now)
            if wait is None:
                return
            await sleep(wait)

    async def receive(conn: Connection, count: int) -> None:
        for _ in range(count):
            line = await conn.reader.readline()
            if not line:
                return
            _record(result, conn, line, clock(), keep)

    budget = len(lines) / rate + ROUND_GRACE_S
    sender = asyncio.ensure_future(send())
    try:
        return await _finish(
            result, [receive(c, n) for c, n in zip(conns, expected)], conns,
            budget, started, clock,
        )
    finally:
        sender.cancel()
        await asyncio.gather(sender, return_exceptions=True)


def check_echo(
    ops: Sequence[Tuple[str, int]],
    responses: Sequence[Tuple[int, float, bytes]],
) -> List[dict]:
    """Fully parse kept responses; raises unless each echoes its request.

    Returns the parsed responses in the order they were received.
    """
    parsed = []
    for index, _stamp, line in responses:
        response = json.loads(line)
        op, key = ops[index]
        if response.get("op") != op or response.get("key") != key:
            raise AssertionError(
                f"request {index} was {op} {key}, response echoes "
                f"{response.get('op')} {response.get('key')}"
            )
        if response.get("ok") is not True:
            raise AssertionError(f"request {index} ({op} {key}) not ok: {response}")
        parsed.append(response)
    return parsed
