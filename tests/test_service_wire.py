"""The edge-cache server's wire boundary and its await-free request path.

Three things are pinned here, all over a real loopback connection:

* **the wire boundary** — key validation, non-object lines, the 64 KiB
  line bound, split and batched reads, reads into one kept buffer
  (byte-per-segment requests, lines straddling a refill, writes larger
  than the buffer), read-pausing backpressure and per-connection
  response order;
* **inline ≡ awaitable** — a get/put stream served over the wire (every
  op that needs no wait runs inline, no task) and the same stream driven
  through ``await server._get/_put`` on a twin server produce the same
  responses and the same counters, under every consistency scheme, on an
  instant and on a delayed origin; on a cold cache, an inline miss and
  one that waits for the origin write the same bytes, the same ``stats``
  line and the same cache and detector state;
* **the inline guard** — a wedged, crashed, drained or full shard, a
  key whose fetch is in flight and a slow or browned-out origin all
  keep the awaitable path, and a tripped breaker decides alike on
  both;
* **one task per awaited op** — a miss that waits on the origin runs in
  its connection's answer task (admitted in place, origin awaited there,
  one deadline timer): pinned by count, with abort, drain, coalescing,
  deadline and failover semantics each checked on that path.

Waits are on events, futures and socket reads; a timeout only ever
bounds a failure (see :func:`until`).
"""

import asyncio
import gc
import json
import socket

import numpy as np
import pytest

from repro.service import (
    CacheService,
    EdgeCacheServer,
    InMemoryOrigin,
    ManualClock,
    ServiceConfig,
)
from repro.service.core import _Deadline
from repro.service.server import (
    MAX_LINE,
    READ_SIZE,
    WorkerOverloaded,
    WorkerUnavailable,
    _Connection,
    _ShardWorker,
)


def wire_config(**overrides):
    base = dict(port=0, n_shards=2, n_items=50, cache_fraction=1.0,
                deadline=None, supervise=False)
    base.update(overrides)
    return ServiceConfig(**base)


async def until(predicate, timeout=5.0):
    """Let the loop run until ``predicate()`` holds (timeout = failure)."""
    async def spin():
        while not predicate():
            await asyncio.sleep(0.001)

    await asyncio.wait_for(spin(), timeout)


def encode(*payloads):
    return b"".join(json.dumps(p).encode() + b"\n" for p in payloads)


class Client:
    """One pipelining client connection."""

    def __init__(self, reader, writer):
        self.reader, self.writer = reader, writer

    @classmethod
    async def connect(cls, server):
        return cls(*await asyncio.open_connection("127.0.0.1", server.port))

    async def read(self, count=1):
        lines = [
            await asyncio.wait_for(self.reader.readline(), timeout=5.0)
            for _ in range(count)
        ]
        return [json.loads(line) for line in lines]

    async def ask_raw(self, data, count=1):
        self.writer.write(data)
        return await self.read(count)

    async def ask(self, *payloads):
        """Send the requests in one segment; their responses, in order."""
        return await self.ask_raw(encode(*payloads), len(payloads))

    def close(self):
        self.writer.close()


def serve(scenario, **overrides):
    """Run ``scenario(server, client)`` against a started server."""
    server = EdgeCacheServer(wire_config(**overrides))

    async def main():
        await server.start()
        client = await Client.connect(server)
        try:
            await scenario(server, client)
        finally:
            client.close()
            await server.shutdown()

    asyncio.run(main())
    return server


def keys_homed_at(server, shard_id, replica=None):
    return [
        k for k in range(server.cfg.n_items)
        if server.directory.home_region(k) == shard_id
        and replica in (None, server.directory.replica_region(k))
    ]


def spy_on_answer(server):
    """Record every op that leaves the inline path (one entry per task)."""
    spawned = []
    answer = server._answer

    def spy(worker, pending, started):
        spawned.append(pending)
        return answer(worker, pending, started)

    server._answer = spy
    return spawned


def use_manual_clock(server):
    clock = ManualClock()
    server.clock = clock
    for shard in server.shards.values():
        shard.clock = clock
    return clock


def no_asyncio_errors(caplog):
    return not [r for r in caplog.records if r.name == "asyncio"]


BAD_KEYS = [99999, 50, -1, "7", 1.5, True, None]


class TestWireValidation:
    @pytest.mark.parametrize("op", ["get", "put", "invalidate"])
    def test_bad_key_is_a_structured_error_and_the_connection_survives(
        self, op, caplog
    ):
        async def scenario(server, client):
            for key in BAD_KEYS:
                (bad,) = await client.ask({"op": op, "key": key})
                assert bad["ok"] is False
                assert "key must be an integer in [0, 50)" in bad["error"]
            (missing,) = await client.ask({"op": op})
            assert missing["ok"] is False and "key" in missing["error"]
            (good,) = await client.ask({"op": op, "key": 49})
            assert good["ok"] is True and good["key"] == 49

        server = serve(scenario)
        # every line counted once; nothing was served, cached or
        # committed under a phantom key
        assert server.stats.value("service.requests") == len(BAD_KEYS) + 2
        assert server.origin.fetches + server.origin.puts <= 1
        for shard in server.shards.values():
            assert set(shard.cache.entries) <= {49}
        assert no_asyncio_errors(caplog)

    def test_non_object_and_malformed_lines_get_one_error_each(self, caplog):
        lines = [b"[1]", b"7", b'"x"', b"null", b"{nope", b"", b"\xff\xfe"]

        async def scenario(server, client):
            for line in lines:
                (bad,) = await client.ask_raw(line + b"\n")
                assert bad["ok"] is False and bad["error"]
            (pong,) = await client.ask({"op": "ping"})
            assert pong["ok"] is True

        server = serve(scenario)
        assert server.stats.value("service.requests") == len(lines) + 1
        assert no_asyncio_errors(caplog)

    def test_line_bound_is_64_kib(self, caplog):
        """A line of exactly MAX_LINE bytes is served; one byte more is
        refused with one response and the connection then closes."""
        assert MAX_LINE == 2 ** 16
        head, tail = b'{"op": "ping"', b"}"
        longest = head + b" " * (MAX_LINE - len(head) - len(tail)) + tail

        async def scenario(server, client):
            (pong,) = await client.ask_raw(longest + b"\n")
            assert pong["ok"] is True
            refused, = await client.ask_raw(
                longest[:-1] + b" }\n" + encode({"op": "ping"})
            )
            assert refused["ok"] is False
            assert "exceeds 65536 bytes" in refused["error"]
            assert await client.reader.read() == b""  # closed, ping dropped

        server = serve(scenario)
        assert server.stats.value("service.requests") == 2
        assert no_asyncio_errors(caplog)

    def test_unterminated_flood_is_refused_at_the_bound(self, caplog):
        async def scenario(server, client):
            refused, = await client.ask_raw(b"x" * (MAX_LINE + 1))
            assert "exceeds 65536 bytes" in refused["error"]
            assert await client.reader.read() == b""

        serve(scenario)
        assert no_asyncio_errors(caplog)

    def test_request_split_across_two_segments_parses(self):
        async def scenario(server, client):
            line = encode({"op": "get", "key": 3})
            client.writer.write(line[:9])
            (connection,) = server._connections
            await until(lambda: connection._tail == line[:9])
            assert server.stats.value("service.requests") == 0
            (response,) = await client.ask_raw(line[9:])
            assert response["status"] == "miss" and response["key"] == 3

        serve(scenario)

    def test_ten_requests_in_one_segment_leave_in_one_write(self):
        async def scenario(server, client):
            keys = list(range(10))
            await client.ask(*({"op": "get", "key": k} for k in keys))
            (connection,) = server._connections
            writes = []
            write = connection.transport.write
            connection.transport.write = lambda data: (
                writes.append(data), write(data)
            )[1]
            hits = await client.ask(*({"op": "get", "key": k} for k in keys))
            assert [h["key"] for h in hits] == keys
            assert {h["status"] for h in hits} == {"hit-fresh"}
            assert len(writes) == 1 and writes[0].count(b"\n") == 10

        serve(scenario)

    def test_half_closing_client_gets_its_unterminated_last_line(self):
        async def scenario(server, client):
            client.writer.write(encode({"op": "get", "key": 1})
                                + b'{"op": "ping"}')
            client.writer.write_eof()
            miss, pong = await client.read(2)
            assert miss["status"] == "miss" and pong["op"] == "ping"
            assert await client.reader.read() == b""

        serve(scenario)


class Recorder:
    """A transport keeping what the server writes."""

    def __init__(self):
        self.written = []

    def write(self, data):
        self.written.append(data)

    def is_closing(self):
        return False

    def close(self):
        pass


class TestBufferedRead:
    """Each connection reads into one buffer of READ_SIZE bytes; framing
    must not care where a read ends."""

    def test_a_request_sent_one_byte_per_segment_parses(self):
        async def scenario(server, client):
            line = encode({"op": "get", "key": 3})
            await until(lambda: server._connections)
            (connection,) = server._connections
            for end in range(1, len(line)):
                client.writer.write(line[end - 1:end])
                await until(lambda: connection._tail == line[:end])
            assert server.stats.value("service.requests") == 0
            (response,) = await client.ask_raw(line[-1:])
            assert response["status"] == "miss" and response["key"] == 3
            assert server.stats.value("service.requests") == 1

        serve(scenario)

    def test_pipelined_requests_larger_than_the_buffer_answer_in_order(self):
        keys = [(7 * i) % 50 for i in range(10_000)]
        payload = encode(*({"op": "get", "key": k} for k in keys))
        assert len(payload) > 3 * READ_SIZE

        async def scenario(server, client):
            responses = await client.ask_raw(payload, len(keys))
            assert [r["key"] for r in responses] == keys
            assert all(r["ok"] for r in responses)

        server = serve(scenario)
        assert server.stats.value("service.requests") == len(keys)

    def test_a_line_straddling_a_buffer_refill_parses(self):
        straddler = encode({"op": "get", "key": 2})
        first = padded_line({"op": "get", "key": 1}, READ_SIZE - 10)
        data = first + straddler + encode({"op": "get", "key": 3})

        async def scenario(server, client):
            transport = Recorder()
            connection = _Connection(server)
            connection.connection_made(transport)
            try:
                buffer = connection.get_buffer(-1)
                assert len(buffer) == READ_SIZE
                buffer[:] = data[:READ_SIZE]
                connection.buffer_updated(READ_SIZE)
                assert connection._tail == straddler[:10]
                rest = data[READ_SIZE:]
                connection.get_buffer(-1)[:len(rest)] = rest
                connection.buffer_updated(len(rest))
            finally:
                connection.connection_lost(None)
            lines = b"".join(transport.written).splitlines()
            assert [json.loads(r)["key"] for r in lines] == [1, 2, 3]

        serve(scenario)

    def test_every_read_lands_in_the_same_buffer(self):
        async def scenario(server, client):
            await until(lambda: server._connections)
            (connection,) = server._connections
            handed = []
            get_buffer = connection.get_buffer

            def spy(sizehint):
                handed.append(get_buffer(sizehint))
                return handed[-1]

            connection.get_buffer = spy
            for key in range(3):
                (response,) = await client.ask({"op": "get", "key": key})
                assert response["key"] == key
            assert len(handed) >= 3
            assert all(buffer is handed[0] for buffer in handed)
            assert len(handed[0]) == READ_SIZE

        serve(scenario)


def padded_line(payload, length):
    """``payload``'s JSON padded with spaces: ``length`` bytes, newline
    included."""
    line = json.dumps(payload).encode()
    return line + b" " * (length - 1 - len(line)) + b"\n"


class TestConnectionOrderAndFlow:
    def test_responses_keep_request_order_behind_a_slow_miss(self):
        """Per-connection response order: three hits completed long
        before the miss ahead of them are written only after it."""
        async def scenario(server, client):
            cold = keys_homed_at(server, 0)[0]
            warm = keys_homed_at(server, 1)[:3]  # served inline
            await client.ask(*({"op": "get", "key": k} for k in warm))
            server.origin.stall()
            client.writer.write(encode(
                *({"op": "get", "key": k} for k in [cold] + warm)
            ))
            (connection,) = server._connections
            await until(lambda: len(connection._owed) == 4)
            miss, *hits = connection._owed
            assert not miss.done()
            assert all(isinstance(hit, bytes) for hit in hits)
            assert server.stats.value("cache.hits") == 3
            server.origin.resume()
            responses = await client.read(4)
            assert [r["key"] for r in responses] == [cold] + warm
            assert [r["status"] for r in responses] == (
                ["miss"] + ["hit-fresh"] * 3
            )

        serve(scenario)

    def test_purge_then_get_in_one_segment_misses(self):
        """Effect order: an inline hit must not overtake the purge sent
        just before it, whose task has not started yet."""
        async def scenario(server, client):
            key = keys_homed_at(server, 0)[0]
            await client.ask({"op": "get", "key": key})
            purged, after = await client.ask(
                {"op": "invalidate", "key": key}, {"op": "get", "key": key}
            )
            assert purged["status"] == "invalidated"
            assert after["status"] == "miss"

        serve(scenario)

    def test_latency_is_stamped_from_line_receipt(self):
        """latency_ms runs from the read that carried the line to the
        op's completion — not to the (later, ordered) flush."""
        server = EdgeCacheServer(wire_config())
        clock = use_manual_clock(server)

        async def main():
            await server.start()
            client = await Client.connect(server)
            cold, warm = keys_homed_at(server, 0)[:2]
            await client.ask({"op": "get", "key": warm})
            clock.advance(1.0)
            server.origin.stall()
            client.writer.write(encode({"op": "get", "key": cold},
                                       {"op": "get", "key": warm}))
            (connection,) = server._connections
            await until(lambda: len(connection._owed) == 2
                        and connection._owed[1].done())
            clock.advance(0.25)
            server.origin.resume()
            miss, hit = await client.read(2)
            assert miss["latency_ms"] == 250.0
            assert hit["latency_ms"] == 0.0
            client.close()
            await server.shutdown()

        asyncio.run(main())

    def test_unread_responses_pause_reading_until_the_client_drains(self):
        """Backpressure: a client that pipelines without reading makes
        the server stop reading (bounded write buffer); reading resumes
        once the client drains."""
        first, second = 4000, 50

        async def main():
            server = EdgeCacheServer(wire_config())
            await server.start()
            loop = asyncio.get_running_loop()
            sock = socket.socket()
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
            sock.setblocking(False)
            await loop.sock_connect(sock, ("127.0.0.1", server.port))
            await until(lambda: server._connections)
            (connection,) = server._connections
            paused, resumed = asyncio.Event(), asyncio.Event()
            pause, resume = connection.pause_writing, connection.resume_writing
            connection.pause_writing = lambda: (pause(), paused.set())
            connection.resume_writing = lambda: (resume(), resumed.set())

            await loop.sock_sendall(sock, b'{"op": "stats"}\n' * first)
            await asyncio.wait_for(paused.wait(), timeout=20.0)
            transport = connection.transport
            assert not transport.is_reading()
            held = transport.get_write_buffer_size()
            assert held > 0
            counted = server.stats.value("service.requests")
            await loop.sock_sendall(sock, b'{"op": "ping"}\n' * second)
            for _ in range(20):
                await asyncio.sleep(0)
            # nothing was read, so nothing was served or buffered on top
            assert server.stats.value("service.requests") == counted
            assert transport.get_write_buffer_size() <= held

            received = 0
            while received < first + second:
                chunk = await asyncio.wait_for(
                    loop.sock_recv(sock, 1 << 20), timeout=20.0
                )
                assert chunk, "server closed before answering everything"
                received += chunk.count(b"\n")
            assert resumed.is_set() and transport.is_reading()
            assert server.stats.value("service.requests") == first + second
            sock.close()
            await server.shutdown()

        asyncio.run(main())

    def test_drain_closes_idle_connections_and_empties_the_registry(self):
        async def main():
            server = EdgeCacheServer(wire_config())
            await server.start()
            clients = [await Client.connect(server) for _ in range(3)]
            for client in clients:
                await client.ask({"op": "ping"})
            assert len(server._connections) == 3
            await asyncio.wait_for(server.shutdown(), timeout=5.0)
            assert len(server._connections) == 0
            for client in clients:
                assert await client.reader.read() == b""
                client.close()

        asyncio.run(main())


class TestInlinePath:
    def test_fresh_hit_and_put_cost_no_task_and_count_once(self):
        """Exactly one service.requests per line, inline or not."""
        async def scenario(server, client):
            spawned = spy_on_answer(server)
            tasks = len(asyncio.all_tasks())
            (miss,) = await client.ask({"op": "get", "key": 5})
            assert miss["status"] == "miss"
            hit, put = await client.ask({"op": "get", "key": 5},
                                        {"op": "put", "key": 5})
            assert hit["status"] == "hit-fresh"
            assert put["status"] == "updated"
            assert not spawned  # the origin answers at once: no waits
            assert len(asyncio.all_tasks()) == tasks
            (stats,) = await client.ask({"op": "stats"})
            assert stats["telemetry"]["service.requests"] == 4
            assert stats["telemetry"]["service.get"] == 2
            assert stats["telemetry"]["service.put"] == 1

        serve(scenario)

    @staticmethod
    async def count_tasks_and_timers(server, client, statuses):
        """Send 8 gets (4 per shard) once per status in ``statuses``;
        per round, the tasks, the timers of any kind and the deadline
        timers among them it made.  Counted, not timed; the client side
        makes none of them (bare readline)."""
        loop = asyncio.get_running_loop()
        tasks, timers, deadlines = [], [], []

        def factory(loop, coro, **kwargs):
            tasks.append(coro)
            return asyncio.Task(coro, loop=loop, **kwargs)

        call_later = loop.call_later

        def counted_call_later(delay, callback, *args, **kwargs):
            timers.append(delay)
            if isinstance(getattr(callback, "__self__", None), _Deadline):
                deadlines.append(delay)
            return call_later(delay, callback, *args, **kwargs)

        loop.set_task_factory(factory)
        loop.call_later = counted_call_later
        counts = []
        try:
            keys = keys_homed_at(server, 0)[:4] + keys_homed_at(server, 1)[:4]
            request = encode(*({"op": "get", "key": k} for k in keys))
            for status in statuses:
                del tasks[:], timers[:], deadlines[:]
                client.writer.write(request)
                responses = [json.loads(await client.reader.readline())
                             for _ in keys]
                assert [r["key"] for r in responses] == keys
                assert {r["status"] for r in responses} == {status}
                counts.append((len(tasks), len(timers), len(deadlines)))
        finally:
            loop.set_task_factory(None)
            del loop.call_later
        return counts

    def test_cold_get_costs_one_task_and_one_timer_a_fresh_hit_neither(self):
        """On an origin that takes time, N misses on an idle server make
        N tasks (the answer tasks, nothing behind them) and arm at most
        N deadline timers (the origin's own sleeps arm the rest); the N
        fresh hits that follow make no task and no timer of any kind."""
        async def scenario(server, client):
            (miss, hit) = await self.count_tasks_and_timers(
                server, client, ("miss", "hit-fresh")
            )
            tasks, _, deadlines = miss
            assert tasks == 8 and 0 < deadlines <= 8
            assert hit == (0, 0, 0)

        server = serve(scenario, deadline=5.0, origin_latency=0.002)
        assert server.origin.fetches == 8
        assert server.stats.value("service.requests") == 16

    def test_an_instant_origin_costs_misses_and_validations_no_task_or_timer(
        self,
    ):
        """The origin answers in its first step: a miss and a TTR
        validation need no wait, so they run in the read callback like
        a fresh hit, with no task and no timer of any kind."""
        async def scenario(server, client):
            clock = use_manual_clock(server)
            (miss,) = await self.count_tasks_and_timers(
                server, client, ("miss",)
            )
            clock.advance(1e6)  # every TTR window closed
            (validated,) = await self.count_tasks_and_timers(
                server, client, ("hit-validated",)
            )
            assert miss == validated == (0, 0, 0)

        server = serve(scenario, deadline=5.0)
        assert server.origin.fetches == server.origin.validations == 8
        assert server.stats.value("service.requests") == 16

    def test_heartbeat_advances_under_inline_only_traffic(self):
        """An all-hit workload never reaches ``submit()``; it must
        still not look wedged to the supervisor."""
        async def scenario(server, client):
            key = keys_homed_at(server, 0)[0]
            await client.ask({"op": "get", "key": key})
            worker = server.workers[0]
            spawned = spy_on_answer(server)
            beats = [worker.last_beat]
            for _ in range(5):
                (hit,) = await client.ask({"op": "get", "key": key})
                assert hit["status"] == "hit-fresh"
                beats.append(worker.last_beat)
            assert beats == sorted(beats) and beats[-1] > beats[0]
            assert not spawned
            now = asyncio.get_running_loop().time()
            assert not worker.wedged(now, server.cfg.heartbeat_timeout)

        server = serve(scenario, supervise=True, heartbeat_timeout=0.05)
        assert server.workers[0].restarts == 0

    def test_worker_is_idle_only_once_admitted_ops_have_begun(self):
        """Admission, step by step.  With nothing ahead of it an op
        begins inside ``submit()``, in the caller's task, counts in
        ``load()`` and fills ``max_inflight``.  Behind a wedge, or
        behind ops still waiting for their turn, an op waits in its own
        task and is not overtaken."""
        server = EdgeCacheServer(wire_config())

        async def main():
            worker = _ShardWorker(server.shards[0], max_inflight=2)
            assert not worker.idle()  # never started
            worker.start()
            assert worker.idle()
            release = asyncio.Event()
            begun, ran_in = [], {}

            async def op(name):
                begun.append(name)
                ran_in[name] = asyncio.current_task()
                await release.wait()
                return name

            first = asyncio.ensure_future(worker.submit(op("a")))
            await asyncio.sleep(0)  # one step: admitted and begun, no hop
            assert begun == ["a"] and ran_in["a"] is first
            assert worker.load() == 1
            assert worker.idle()  # one below the bound
            second = asyncio.ensure_future(worker.submit(op("b")))
            await asyncio.sleep(0)
            assert begun == ["a", "b"] and worker.load() == 2
            assert not worker.idle()  # in flight == max_inflight
            with pytest.raises(WorkerOverloaded):
                await worker.submit(op("shed"))
            release.set()
            assert await asyncio.gather(first, second) == ["a", "b"]
            assert worker.load() == 0 and worker.idle()

            worker.max_inflight = None  # the order half: three at once
            release.clear()
            del begun[:]
            # c reaches submit() one step before the wedge task first
            # runs, yet the wedge is ahead of it from injection on
            behind_wedge = asyncio.ensure_future(worker.submit(op("c")))
            worker.inject_wedge(30.0)
            assert not worker.idle()
            await asyncio.sleep(0)  # the wedge takes hold
            assert not worker.idle()
            behind_waiter = asyncio.ensure_future(worker.submit(op("d")))
            await asyncio.sleep(0)
            await asyncio.sleep(0)
            assert not begun and worker.load() == 2
            await worker.abort(crashed=False)
            assert not worker.idle()  # down
            with pytest.raises(WorkerUnavailable, match="shard-down"):
                await worker.submit(op("down"))
            assert not begun and worker.load() == 2  # a wedge keeps them
            worker.restart()
            await asyncio.sleep(0)  # the wedge lets go of the turn ...
            assert not begun and not worker.idle()  # ... c and d still wait
            release.set()
            # arrives after the restart, before c and d start: waits too
            assert await asyncio.wait_for(worker.submit(op("e")), 5.0) == "e"
            assert begun == ["c", "d", "e"]
            assert ran_in["c"] is behind_wedge and ran_in["d"] is behind_waiter
            assert await asyncio.gather(behind_wedge, behind_waiter) == ["c", "d"]
            assert worker.load() == 0 and worker.idle()
            await worker.drain()
            assert not worker.idle()

        asyncio.run(main())

    def test_crash_fails_the_ops_waiting_for_their_turn(self):
        """Ops waiting behind a wedge never start on a crashed shard: a
        crash-abort cancels them into :class:`WorkerUnavailable`, and an
        injected crash fails them at once, supervisor or not."""
        server = EdgeCacheServer(wire_config())

        async def main():
            worker = _ShardWorker(server.shards[0])
            worker.start()
            begun = []

            async def op(name):
                begun.append(name)
                return name

            for stop in ("abort", "crash"):
                worker.inject_wedge(30.0)
                await asyncio.sleep(0)  # the wedge takes hold
                waiting = [asyncio.ensure_future(worker.submit(op(name)))
                           for name in ("f", "g")]
                await asyncio.sleep(0)
                assert worker.load() == 2
                if stop == "abort":
                    await worker.abort(crashed=True)
                else:
                    worker.inject_crash()
                    assert worker.crashed() and not worker.idle()
                for future in waiting:
                    with pytest.raises(WorkerUnavailable):
                        await asyncio.wait_for(future, timeout=5.0)
                assert not begun and worker.load() == 0
                worker.restart()
            assert worker.idle()
            await worker.drain()

        asyncio.run(main())

    def test_in_place_admission_stamps_the_heartbeat(self):
        """Every op runs in its answer task, so each start is the
        shard's progress mark: at once, or when its turn comes."""
        server = EdgeCacheServer(wire_config())

        async def main():
            worker = _ShardWorker(server.shards[0])
            worker.start()
            worker.last_beat = 0.0

            async def op():
                return worker.last_beat

            assert await worker.submit(op()) > 0.0
            worker.inject_wedge(30.0)
            await asyncio.sleep(0)  # the wedge takes hold
            waiting = asyncio.ensure_future(worker.submit(op()))
            await asyncio.sleep(0)
            worker.last_beat = 0.0
            await worker.drain()  # ends the wedge; the waiter starts
            assert await waiting > 0.0
            assert worker.load() == 0

        asyncio.run(main())

    def test_a_started_server_owns_no_task_per_shard(self):
        async def main():
            server = EdgeCacheServer(wire_config(n_shards=4, supervise=True))
            before = asyncio.all_tasks()
            await server.start()
            assert asyncio.all_tasks() - before == {
                server.supervisor._watch_task
            }
            await server.shutdown()

        asyncio.run(main())


def run_stream(scheme, ops, over_the_wire, origin_latency=0.0):
    """Serve ``ops`` on a fresh server; (responses, counters, tasks)."""
    server = EdgeCacheServer(wire_config(
        n_items=64, cache_fraction=0.08, consistency=scheme,
        origin_latency=origin_latency,
    ))
    clock = use_manual_clock(server)
    spawned = spy_on_answer(server)
    responses = []

    async def main():
        await server.start()
        client = await Client.connect(server)
        for op, key in ops:
            clock.advance(0.05)
            if over_the_wire:
                (response,) = await client.ask({"op": op, "key": key})
                del response["latency_ms"]
            else:
                call = server._get if op == "get" else server._put
                response = json.loads(json.dumps((await call(key)).to_dict()))
            responses.append(response)
        client.close()
        await server.shutdown()

    asyncio.run(main())
    counters = dict(server.stats.snapshot())
    counters.update({
        f"origin.{name}": getattr(server.origin, name)
        for name in ("fetches", "validations", "puts")
    })
    return responses, counters, len(spawned)


class TestInlineEqualsAwaitable:
    @pytest.mark.parametrize("origin_latency", [0.0, 0.001],
                             ids=["instant", "delayed"])
    @pytest.mark.parametrize(
        "scheme", ["push-adaptive-pull", "plain-push", "pull-every-time"]
    )
    def test_wire_stream_matches_the_awaitable_twin(self, scheme,
                                                    origin_latency):
        rng = np.random.default_rng(20050404)
        n = 2000
        keys = np.minimum(rng.zipf(1.3, n) - 1, 63).tolist()
        ops = [("put" if p else "get", k)
               for p, k in zip((rng.random(n) < 0.3).tolist(), keys)]

        wire, wire_counters, wire_tasks = run_stream(
            scheme, ops, True, origin_latency
        )
        twin, twin_counters, twin_tasks = run_stream(
            scheme, ops, False, origin_latency
        )

        assert wire == twin
        # the wire run is the only one that saw lines and a connection
        assert wire_counters.pop("service.requests") == n
        assert wire_counters.pop("service.connections") == 1
        assert "service.requests" not in twin_counters
        twin_counters.pop("service.connections")
        assert wire_counters == twin_counters
        disseminated = ("consistency.invalidations" if scheme == "plain-push"
                        else "consistency.pushes")
        for name in ("service.get", "cache.hits", "origin.fetches",
                     disseminated):
            assert wire_counters[name] > 0
        if scheme != "plain-push":  # plain push never validates
            assert wire_counters["origin.validations"] > 0
        # ... and the only one that took the inline path: a task per op
        # that waited on the origin, none for the rest
        assert twin_tasks == 0
        if origin_latency:
            inline = sum(r["status"] in ("hit-fresh", "updated") for r in wire)
            assert wire_tasks == n - inline > 0
        else:
            assert wire_tasks == 0
        if scheme != "pull-every-time":
            assert any(r["status"] == "hit-fresh" for r in wire)


def cold_ops(n_items, n, seed):
    """Uniform gets over ``n_items`` keys, about a third of them asked
    twice in a row (a fresh hit whose memoized line later gets evicted),
    and one put in ten."""
    rng = np.random.default_rng(seed)
    ops = []
    for key in rng.integers(0, n_items, n).tolist():
        ops.append(("put" if rng.random() < 0.1 else "get", key))
        if rng.random() < 0.3:
            ops.append(("get", key))
    return ops


def run_cold_stream(ops, mode, **overrides):
    """Serve ``ops`` on a fresh manual-clock server; (lines, stats line,
    server, tasks).

    ``mode`` "inline" sends each op as a line; "awaited" does the same
    with an origin that never reports itself instant, so every read the
    origin answers waits for it in ``get()``; "objects" awaits
    ``_get``/``_put`` and returns the response objects.  Each shard's
    detector starts from one timeout, so each origin answer's success
    shows in its score.
    """
    server = EdgeCacheServer(wire_config(**overrides))
    clock = use_manual_clock(server)
    spawned = spy_on_answer(server)
    out = []

    async def main():
        await server.start()
        for shard_id in server.shards:
            server.resilience.on_home_timeout(shard_id, clock.now())
        client = await Client.connect(server)
        for op, key in ops:
            clock.advance(0.05)
            if mode == "objects":
                call = server._get if op == "get" else server._put
                out.append(await call(key))
            else:
                client.writer.write(encode({"op": op, "key": key}))
                out.append(await client.reader.readline())
        client.writer.write(encode({"op": "stats"}))
        stats = await client.reader.readline()
        client.close()
        await server.shutdown()
        return stats

    with pytest.MonkeyPatch.context() as patch:
        if mode == "awaited":
            patch.setattr(InMemoryOrigin, "instant", property(lambda _: False))
        stats = asyncio.run(main())
    return out, stats, server, len(spawned)


def cache_state(server):
    """Per shard: its entries as (key, priority, seq), the inflation
    floor, and the detector's score."""
    return {
        shard_id: (
            [(k, e.priority, e.seq) for k, e in shard.cache.entries.items()],
            shard.cache.inflation,
            server.resilience.detector.score(shard_id),
        )
        for shard_id, shard in server.shards.items()
    }


class TestColdStreamEqualsAwaitable:
    """The miss path: an inline miss and an awaited one settle alike."""

    @pytest.mark.parametrize("cache_fraction", [0.002, 1e-5],
                             ids=["cold", "nothing-fits"])
    def test_lines_stats_and_state_match_the_awaited_twin(
        self, cache_fraction
    ):
        config = dict(n_items=2400, n_shards=4, cache_fraction=cache_fraction)
        ops = cold_ops(2400, 1500, seed=51)
        wire, wire_stats, server, wire_tasks = run_cold_stream(
            ops, "inline", **config
        )
        awaited, awaited_stats, twin, twin_tasks = run_cold_stream(
            ops, "awaited", **config
        )
        objects, _, plain, _ = run_cold_stream(ops, "objects", **config)

        # Same bytes: each line is its awaited twin's, and json.dumps of
        # the response object plus the latency (0.0 on a manual clock).
        assert wire == awaited
        for line, response in zip(wire, objects):
            assert line == json.dumps(
                {**response.to_dict(), "latency_ms": 0.0}
            ).encode() + b"\n"
        assert wire_stats == awaited_stats  # key order included
        # ... and the same cache, inflation and detector, every way.
        assert cache_state(server) == cache_state(twin) == cache_state(plain)
        for shard_id, shard in server.shards.items():
            assert set(shard._hit_lines) <= set(shard.cache.entries)
            # the size-text memo: one entry per item the origin served
            assert len(shard._size_texts) <= len({
                r.key for r in objects
                if r.shard == shard_id and r.status in ("miss", "refreshed")
            })

        # The inline run took no task; its twin one per origin answer.
        answers = [r for r in objects
                   if r.status in ("miss", "refreshed", "hit-validated")]
        assert wire_tasks == 0
        assert twin_tasks == len(answers) > 0
        # Each origin answer booked one breaker success.
        alpha = server.resilience.detector.alpha
        for shard_id in server.shards:
            successes = sum(r.shard == shard_id for r in answers)
            assert server.resilience.detector.score(shard_id) == (
                alpha ** successes
            )
        # Admission is §3.2-3.3's verdict: a copy goes in iff it fits.
        misses = [r for r in objects if r.status == "miss"]
        capacity = server.shards[0].cache.capacity_bytes
        assert all(
            r.extra["admitted"] == (r.size_bytes <= capacity) for r in misses
        )
        evictions = sum(s.cache.evictions for s in server.shards.values())
        if cache_fraction == 1e-5:
            assert capacity < min(i.size_bytes for i in server.database.items)
            assert evictions == 0 and not any(
                r.extra["admitted"] for r in misses
            )
        else:
            assert evictions > 0
            assert any(r.status == "hit-fresh" for r in objects)


class TestInlineGuard:
    def test_wedged_shard_queues_hits_until_the_supervisor_restarts_it(self):
        async def scenario(server, client):
            key = keys_homed_at(server, 0)[0]
            await client.ask({"op": "get", "key": key})
            (hit,) = await client.ask({"op": "get", "key": key})
            assert hit["status"] == "hit-fresh"
            spawned = spy_on_answer(server)
            worker = server.workers[0]
            worker.inject_wedge(30.0)  # >> heartbeat timeout
            # Answered only after the restart: the hit waited for its
            # turn (stale heartbeat + waiting ops = wedged).
            (queued,) = await client.ask({"op": "get", "key": key})
            assert queued["status"] == "hit-fresh"
            assert len(spawned) == 1
            assert worker.restarts == 1

        server = serve(scenario, supervise=True, heartbeat_timeout=0.1)
        assert server.stats.value("resilience.shard_restarts") == 1

    def test_a_wedge_shorter_than_the_timeout_on_an_idle_shard_is_no_failure(self):
        """A wedge stamps the heartbeat when it takes hold: staleness
        counts from the stall, not from the idle stretch before it."""
        async def scenario(server, client):
            key = keys_homed_at(server, 0)[0]
            await client.ask({"op": "get", "key": key})
            worker = server.workers[0]
            timeout = server.cfg.heartbeat_timeout
            await asyncio.sleep(2 * timeout)  # idle: the last beat is stale
            worker.inject_wedge(timeout / 3)
            (waited,) = await client.ask({"op": "get", "key": key})
            assert waited["status"] == "hit-fresh"
            assert worker.restarts == 0

        server = serve(scenario, supervise=True, heartbeat_timeout=0.3)
        assert server.stats.value("resilience.shard_down") == 0

    def test_crashed_shard_fails_over_instead_of_serving_inline(self):
        async def scenario(server, client):
            key = keys_homed_at(server, 0, replica=1)[0]
            await client.ask({"op": "get", "key": key},
                             {"op": "put", "key": key})  # replica warm
            worker = server.workers[0]
            worker.inject_crash()
            assert worker.crashed() and not worker.idle()
            (response,) = await client.ask({"op": "get", "key": key})
            assert response["ok"] and response["failover"] == "replica"
            assert response["served_class"] == "degraded"
            (put,) = await client.ask({"op": "put", "key": key})
            assert put["status"] == "unavailable"
            assert put["reason"] == "shard-down"

        server = serve(scenario)
        assert server.stats.value("service.replica_failover") == 1
        assert server.origin.puts == 1

    def test_drained_shards_answer_unavailable(self):
        async def scenario(server, client):
            key = keys_homed_at(server, 0)[0]
            await client.ask({"op": "get", "key": key})
            for worker in server.workers.values():
                await worker.drain()
            (response,) = await client.ask({"op": "get", "key": key})
            assert response["status"] == "unavailable"
            assert response["reason"] == "shard-drained"

        server = serve(scenario)
        assert server.stats.value("cache.hits") == 0

    def test_full_shard_sheds_the_hit_behind_its_admission_bound(self):
        async def scenario(server, client):
            warm, *cold = keys_homed_at(server, 0)[:3]
            await client.ask({"op": "get", "key": warm})
            server.origin.stall()  # both misses park, filling the bound
            client.writer.write(encode(
                *({"op": "get", "key": k} for k in cold + [warm])
            ))
            await until(
                lambda: server.stats.value("service.shed.queue_full") == 1
            )
            assert server.stats.value("cache.hits") == 0
            server.origin.resume()
            first, second, shed = await client.read(3)
            assert first["status"] == second["status"] == "miss"
            assert shed["status"] == "overloaded"
            assert shed["reason"] == "queue-full"

        serve(scenario, max_inflight=2)

    def test_a_read_of_a_key_in_flight_waits_for_the_leader(self):
        """The origin answers at once again, but a fetch of the key is
        still in flight: the read waits for it instead of fetching, and
        is served the copy the leader admitted."""
        async def scenario(server, client):
            key = keys_homed_at(server, 0)[0]
            spawned = spy_on_answer(server)
            server.origin.stall()
            client.writer.write(encode({"op": "get", "key": key}))
            await until(lambda: key in server.shards[0]._inflight)
            server.origin.resume()
            # the second read arrives before the leader has woken up
            (connection,) = server._connections
            connection.data_received(encode({"op": "get", "key": key}))
            leader, follower = await client.read(2)
            assert leader["status"] == "miss"
            assert follower["status"] == "hit-fresh"
            assert len(spawned) == 2

        server = serve(scenario)
        assert server.origin.fetches == 1

    @staticmethod
    def breaker_stream(origin_latency):
        """Reads through a tripped, then half-open breaker; the
        responses, every counter, and the answer tasks made."""
        server = EdgeCacheServer(wire_config(
            deadline=5.0, suspect_after=2.0, breaker_cooldown=10.0,
            origin_latency=origin_latency,
        ))
        clock = use_manual_clock(server)
        spawned = spy_on_answer(server)
        warm, cold, probe = keys_homed_at(server, 0, replica=1)[:3]
        responses = []

        async def ask(client, *keys):
            for key in keys:
                (response,) = await client.ask({"op": "get", "key": key})
                del response["latency_ms"]
                responses.append(response)

        async def main():
            await server.start()
            client = await Client.connect(server)
            await ask(client, warm)
            clock.advance(server.shards[0].cache.get(warm).ttr + 1.0)
            for _ in range(2):
                server.resilience.on_home_timeout(0, clock.now())
            assert server.resilience.tripped(0)
            await ask(client, warm, cold)  # steered: stale-hit, failover
            clock.advance(10.0)
            await ask(client, warm, warm)  # the probe validates, closes
            for _ in range(2):
                server.resilience.on_home_timeout(0, clock.now())
            clock.advance(10.0)
            await ask(client, probe, cold)  # a miss probes, closes; home
            # never admitted ``cold`` (the replica served it)
            client.close()
            await server.shutdown()

        asyncio.run(main())
        counters = dict(server.stats.snapshot())
        counters.update(fetches=server.origin.fetches,
                        validations=server.origin.validations)
        return responses, counters, len(spawned)

    def test_a_tripped_or_half_open_breaker_decides_alike_inline_or_awaited(
        self,
    ):
        inline, inline_counters, inline_tasks = self.breaker_stream(0.0)
        awaited, awaited_counters, awaited_tasks = self.breaker_stream(0.001)
        assert inline == awaited
        assert inline_counters == awaited_counters
        assert [r["status"] for r in inline] == [
            "miss", "stale-hit", "miss", "hit-validated", "hit-fresh",
            "miss", "miss",
        ]
        assert inline[1]["reason"] == "breaker-open"
        assert inline[2]["failover"] == "replica"
        for name, value in (("resilience.breaker_open", 2),
                            ("resilience.breaker_steered", 2),
                            ("resilience.probe", 2),
                            ("resilience.breaker_close", 2)):
            assert inline_counters[name] == value
        # only the steered miss (to fail over) and the miss probing a
        # half-open breaker wait for a task when the origin is instant
        assert inline_tasks == 2 and awaited_tasks == 6

    @pytest.mark.parametrize("fault", ["error-rate", "latency-spike"])
    def test_a_browned_out_origin_keeps_the_awaited_path(self, fault):
        """Every read waits, and each origin round trip draws one
        brownout number (retries included), as before."""
        class CountingRng:
            def __init__(self):
                self.rng, self.draws = np.random.default_rng(5), 0

            def random(self):
                self.draws += 1
                return self.rng.random()

        rng = CountingRng()

        async def scenario(server, client):
            keys = keys_homed_at(server, 0)[:6]
            await client.ask(*({"op": "get", "key": k} for k in keys[:3]))
            use_manual_clock(server).advance(1e6)  # every TTR window closed
            spawned = spy_on_answer(server)
            if fault == "error-rate":
                server.origin.set_error_rate(0.5, rng)
            else:
                server.origin.set_extra_latency(0.001)
            responses = await client.ask(
                *({"op": "get", "key": k} for k in keys)
            )
            assert len(spawned) == len(keys)
            assert {r["status"] for r in responses} <= {
                "miss", "hit-validated", "stale-hit", "unavailable",
            }

        server = serve(scenario, origin_retries=1, suspect_after=100.0)
        origin = server.origin
        attempts = origin.fetches + origin.validations + origin.errors - 3
        if fault == "error-rate":
            assert origin.errors > 0
            assert rng.draws == attempts >= 6
        else:
            assert rng.draws == origin.errors == 0

    def test_an_op_that_raises_answers_one_error_line_inline_or_awaited(
        self, monkeypatch, caplog
    ):
        """Inline ≡ awaitable on failure too: the client is owed a line
        and the loop's exception handler one report, whether the op ran
        in the read callback or in an answer task."""
        def broken_put(self, key, updater, line=False):
            raise RuntimeError("disk on fire")

        monkeypatch.setattr(CacheService, "put", broken_put)

        async def scenario(server, client):
            reported = []
            asyncio.get_running_loop().set_exception_handler(
                lambda loop, context: reported.append(context)
            )
            spawned = spy_on_answer(server)
            key, cold = keys_homed_at(server, 0)[:2]
            ping, put = {"op": "ping"}, {"op": "put", "key": key}
            pong, inline, pong_again = await client.ask(ping, put, ping)
            assert pong["op"] == pong_again["op"] == "ping"
            assert pong["ok"] is True and pong_again["ok"] is True
            assert not spawned and len(reported) == 1
            assert reported[0]["message"] == "edge-cache: op failed"
            assert isinstance(reported[0]["exception"], RuntimeError)
            # behind a miss that waits on the origin and has not begun,
            # its shard is not idle: the same put, on the awaitable path
            server.origin.set_extra_latency(0.001)
            miss, awaited = await client.ask({"op": "get", "key": cold}, put)
            assert miss["status"] == "miss"
            assert len(spawned) == 2 and len(reported) == 2
            for failed in (inline, awaited):
                del failed["latency_ms"]
            assert inline == awaited == {
                "ok": False, "error": "RuntimeError('disk on fire')",
            }
            (connection,) = server._connections  # still the same one
            assert not connection._closing

        server = serve(scenario)
        assert server.stats.value("service.requests") == 5
        assert no_asyncio_errors(caplog)


def count_calls(obj, name):
    """Count calls to ``obj.name`` (calls made, not calls completed)."""
    calls, original = [], getattr(obj, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    setattr(obj, name, counted)
    return calls


async def parked(server, shard_id, count=1):
    """Wait until ``count`` ops are admitted and unfinished on a shard."""
    await until(lambda: server.workers[shard_id].load() == count)


class TestOneTaskPath:
    """An awaited op lives in its connection's answer task: what a
    queue hop, a relay future and ``shield``/``wait_for`` used to
    guarantee is checked here on the path that replaced them."""

    def test_crash_abort_of_an_in_place_miss_fails_over_and_keeps_the_connection(
        self, caplog
    ):
        async def scenario(server, client):
            key, other = keys_homed_at(server, 0, replica=1)[:2]
            await client.ask({"op": "get", "key": key},
                             {"op": "put", "key": key})  # replica warm
            server.shards[0].cache.evict(key)
            worker = server.workers[0]
            server.origin.stall()
            client.writer.write(encode({"op": "get", "key": key}))
            await parked(server, 0)
            (connection,) = server._connections
            (answer,) = connection._owed
            assert worker._pending == {answer}  # running in its answer task

            worker.inject_crash()
            assert worker.crashed() and worker.load() == 1
            await asyncio.wait_for(worker.abort(crashed=True), timeout=5.0)
            assert worker.load() == 0
            (response,) = await client.read()
            assert response["ok"] and response["failover"] == "replica"
            assert answer.done() and not answer.cancelled()

            worker.restart()
            server.origin.resume()
            (after,) = await client.ask({"op": "get", "key": other})
            assert after["status"] == "miss" and "failover" not in after

        server = serve(scenario)
        assert server.stats.value("service.worker_unavailable") == 1
        assert server.stats.value("service.replica_failover") == 1
        assert no_asyncio_errors(caplog)

    def test_shutdown_waits_for_an_in_place_op_and_its_response_is_written(self):
        async def scenario(server, client):
            key = keys_homed_at(server, 0)[0]
            server.origin.stall()
            client.writer.write(encode({"op": "get", "key": key}))
            await parked(server, 0)
            (connection,) = server._connections
            (answer,) = connection._owed
            assert server.workers[0]._pending == {answer}
            shutdown = asyncio.ensure_future(server.shutdown())
            await until(lambda: all(w.draining for w in server.workers.values()))
            for _ in range(20):
                await asyncio.sleep(0)
            assert not shutdown.done()  # held by the one admitted op
            server.origin.resume()
            (response,) = await client.read()
            assert response["status"] == "miss" and response["key"] == key
            assert await client.reader.read() == b""  # answered, then closed
            await asyncio.wait_for(shutdown, timeout=5.0)

        serve(scenario)

    @staticmethod
    def cold_shard(**overrides):
        server = EdgeCacheServer(wire_config(**overrides))
        clock = use_manual_clock(server)
        return server, server.shards[0], clock, keys_homed_at(server, 0)[0]

    @pytest.mark.parametrize("demise", ["deadline", "cancelled"])
    def test_follower_outlives_its_leader(self, demise):
        """The first waiter fetches in its own task, so its deadline or
        cancellation takes the fetch with it - and must not take the
        followers: they start the fetch over within their own budget."""
        server, shard, clock, key = self.cold_shard(deadline=30.0)

        async def main():
            server.origin.stall()
            leader = asyncio.ensure_future(shard.get(
                key, deadline=clock.now() + (0.02 if demise == "deadline"
                                             else 30.0)
            ))
            await until(lambda: key in shard._inflight)
            followers = [asyncio.ensure_future(shard.get(key))
                         for _ in range(2)]
            await until(
                lambda: shard.stats.value("cache.coalesced_fetches") == 2
            )
            if demise == "deadline":
                assert (await leader).status == "deadline"
            else:
                leader.cancel()
                with pytest.raises(asyncio.CancelledError):
                    await leader
            # one follower takes the lead, the other follows that fetch
            await until(
                lambda: shard.stats.value("cache.origin_fetches") == 2
            )
            assert not any(f.done() for f in followers)
            server.origin.resume()
            served = await asyncio.wait_for(asyncio.gather(*followers), 5.0)
            assert [r.status for r in served] == ["miss", "miss"]
            assert not shard._inflight

        asyncio.run(main())
        # one fetch at a time: the leader's died with it, the second
        # served both followers
        assert server.origin.fetches == 1
        assert shard.stats.value("resilience.deadline_exceeded") == (
            1 if demise == "deadline" else 0
        )

    def test_reset_mid_fetch_leaves_no_waiter_hanging(self, caplog):
        server, shard, clock, key = self.cold_shard()

        async def main():
            server.origin.stall()
            waiters = [asyncio.ensure_future(shard.get(key)) for _ in range(3)]
            await until(
                lambda: shard.stats.value("cache.coalesced_fetches") == 2
            )
            shard.reset()
            assert not shard._inflight
            server.origin.resume()
            served = await asyncio.wait_for(asyncio.gather(*waiters), 5.0)
            assert all(r.ok for r in served)

        asyncio.run(main())
        gc.collect()
        assert no_asyncio_errors(caplog)

    def test_one_retry_ladder_fails_every_waiter_and_logs_nothing(self, caplog):
        server, shard, clock, key = self.cold_shard(
            origin_latency=0.001, suspect_after=100.0,
        )

        async def main():
            server.origin.set_error_rate(1.0, np.random.default_rng(1))
            served = await asyncio.wait_for(
                asyncio.gather(*(shard.get(key) for _ in range(3))), 5.0
            )
            assert {r.status for r in served} == {"unavailable"}
            assert {r.extra["reason"] for r in served} == {"origin-error"}
            alone = await shard.get(key + 1)  # a leader nobody followed
            assert alone.status == "unavailable"

        asyncio.run(main())
        assert server.origin.errors == 2  # one per key, not one per waiter
        gc.collect()
        assert no_asyncio_errors(caplog)

    def test_pre_spent_budget_never_calls_the_origin(self):
        server, shard, clock, key = self.cold_shard(deadline=1.0)
        origin = server.origin

        async def main():
            cold = await shard.get(key, deadline=clock.now())
            assert cold.status == "deadline" and origin.fetches == 0
            assert (await shard.get(key)).status == "miss"
            clock.advance(shard.cache.get(key).ttr + 1.0)  # window closed
            stale = await shard.get(key, deadline=clock.now() - 1.0)
            assert stale.status == "stale-hit"
            assert stale.extra["reason"] == "deadline"

        asyncio.run(main())
        assert origin.fetches == 1 and origin.validations == 0
        assert shard.stats.value("resilience.deadline_exceeded") == 2

    def test_deadline_trip_books_once_per_op(self):
        server, shard, clock, key = self.cold_shard(deadline=0.02)
        timeouts = count_calls(server.resilience, "on_home_timeout")

        async def main():
            server.origin.stall()
            tripped = await asyncio.wait_for(shard.get(key), 5.0)
            assert tripped.status == "deadline"
            server.origin.resume()
            assert (await shard.get(key)).status == "miss"
            clock.advance(shard.cache.get(key).ttr + 1.0)
            server.origin.stall()
            stale = await asyncio.wait_for(shard.get(key), 5.0)
            assert stale.status == "stale-hit"

        asyncio.run(main())
        assert shard.stats.value("resilience.deadline_exceeded") == 2
        assert shard.stats.value("cache.deadline_miss") == 1
        assert len(timeouts) == 2

    @pytest.mark.parametrize("replica_copy", ["none", "fresh", "stale"])
    def test_failover_spends_what_the_home_attempt_left(self, replica_copy):
        """``deadline`` is the budget of the request, not of each
        attempt: once the home attempt has spent it, the failover
        serves what the replica shard holds, or answers ``deadline``
        at once - it does not wait on the origin a second time."""
        budget = 0.05
        server = EdgeCacheServer(wire_config(
            deadline=budget, suspect_after=100.0,
        ))
        clock = use_manual_clock(server)
        fetches = count_calls(server.origin, "fetch")
        validations = count_calls(server.origin, "validate")

        async def main():
            for worker in server.workers.values():
                worker.start()
            key = keys_homed_at(server, 0, replica=1)[0]
            if replica_copy != "none":
                await server._get(key)
                await server._put(key)  # the push admits a replica copy
                server.shards[0].cache.evict(key)
                if replica_copy == "stale":
                    clock.advance(server.shards[1].cache.get(key).ttr + 1.0)
            del fetches[:]
            server.origin.stall()
            request = asyncio.ensure_future(server._get(key))
            await parked(server, 0)
            clock.advance(budget)  # the home attempt spends all of it
            response = await asyncio.wait_for(request, 5.0)
            # no second wait on the origin: the one call is the home
            # attempt's, and it never completed
            assert len(fetches) == 1 and not validations
            if replica_copy == "none":
                assert response.status == "deadline" and not response.ok
            else:
                assert response.ok and response.extra["failover"] == "replica"
                assert response.status == (
                    "hit-fresh" if replica_copy == "fresh" else "stale-hit"
                )
            server.origin.resume()
            for worker in server.workers.values():
                await worker.drain()

        asyncio.run(main())
        assert server.origin.fetches == (0 if replica_copy == "none" else 1)
