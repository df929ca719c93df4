"""The wire codec's fence: same bytes, same verdicts, and what it costs.

A shard-op line of the two-member spelling is read off a compiled
pattern and every shard-op response writes its own line; neither may
be told apart, on the wire, from ``json.loads`` and ``json.dumps``:

* **parser differential** - any line, served by a server with the
  pattern and by one whose pattern never matches (disabled here, in the
  test: ``src/`` has no such switch), gets the same response bytes and
  leaves the same counters;
* **encoder differential** - ``CacheResponse.encode(x)`` is byte for
  byte ``json.dumps`` of ``to_dict()`` plus ``latency_ms``, the members
  written without ``json`` (bools, strings) included, and every line a
  server writes, inline or not, is that encoding of the response its
  awaitable twin returns;
* **cost by count** - fresh hits, misses, validated hits and
  idle-shard puts make no ``json`` call at all;
* **the fresh-hit memo** - a fresh hit's memoized line is the line the
  unmemoized path writes, through puts, UpdatePushes, evictions, purges
  and TTR expiry, and the memo holds no key the cache does not.

Servers are driven one line per read through a connection whose
transport records what the server writes, on a manual clock - no
socket, and ``latency_ms`` is 0.0 on both sides.
"""

import asyncio
import json
from unittest import mock

import numpy as np
import pytest

from repro.core.consistency import PushAdaptivePull
from repro.core.messages import UpdatePush
from repro.service import (
    CacheResponse,
    CacheService,
    EdgeCacheServer,
    InMemoryOrigin,
    ManualClock,
    ShardDirectory,
)
from repro.service import core as core_module
from repro.service import server as server_module
from repro.service.server import MAX_LINE, _Connection
from repro.workload.database import Database
from tests.test_service_wire import (
    Recorder,
    until,
    use_manual_clock,
    wire_config,
)

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

SETTINGS = settings(
    max_examples=150,
    deadline=None,
    derandomize=True,  # reproducible CI: examples derive from the test name
)

OPS = ("get", "put", "invalidate")


def serve(scenario, **overrides):
    """Run ``scenario(ask)`` on a fresh manual-clock server with its shard
    workers up; ``await ask(lines)`` is the response line of each, each
    line sent as one read on a connection of its own."""
    server = EdgeCacheServer(wire_config(**overrides))
    use_manual_clock(server)

    async def ask(lines):
        responses = []
        for line in lines:
            transport = Recorder()
            connection = _Connection(server)
            connection.connection_made(transport)
            connection.data_received(line + b"\n")
            await until(lambda: transport.written)
            responses.extend(transport.written)
            connection.connection_lost(None)
        return responses

    async def main():
        for worker in server.workers.values():
            worker.start()
        try:
            return await scenario(ask)
        finally:
            for worker in server.workers.values():
                await worker.drain()

    return asyncio.run(main()), server


def drive(lines, **overrides):
    """Feed ``lines`` to a fresh server; (response lines, server)."""
    return serve(lambda ask: ask(lines), **overrides)


def twin(ops, **overrides):
    """The awaitable twin of :func:`drive`: each ``(op, key)`` through
    ``_get``/``_put``/the purge ``_process`` submits, on a fresh
    manual-clock server; the response objects."""
    server = EdgeCacheServer(wire_config(**overrides))
    use_manual_clock(server)

    async def main():
        for worker in server.workers.values():
            worker.start()
        responses = []
        for op, key in ops:
            if op == "get":
                responses.append(await server._get(key))
            elif op == "put":
                responses.append(await server._put(key))
            else:
                home = server.directory.home_region(key)
                responses.append(await server._submit(
                    home, server._invalidate(key, home),
                    op="invalidate", key=key,
                ))
        for worker in server.workers.values():
            await worker.drain()
        return responses

    return asyncio.run(main())


def counters(server):
    out = dict(server.stats.snapshot())
    out.update({
        f"origin.{name}": getattr(server.origin, name)
        for name in ("fetches", "validations", "puts")
    })
    return out


# -- (a) the parser ---------------------------------------------------------

WS = st.text(" \t\r", max_size=2)
KEYS = st.one_of(
    st.integers(0, 49),  # served: the differential covers hits and puts too
    st.integers(0, 10 ** 19),
    st.sampled_from([50, 10 ** 18 - 1, 10 ** 18, 2 ** 63, 10 ** 19]),
)


@st.composite
def spelled(draw):
    """A valid spelling: whitespace at every position JSON allows it."""
    w = [draw(WS) for _ in range(10)]
    op, key = draw(st.sampled_from(OPS)), draw(KEYS)
    return (
        f'{w[0]}{{{w[1]}"op"{w[2]}:{w[3]}"{op}"{w[4]},{w[5]}"key"{w[6]}:'
        f'{w[7]}{key}{w[8]}}}{w[9]}'
    ).encode()


def padded(line, size):
    return line + b" " * (size - len(line))


NEAR_MISSES = [
    b'{"op":"get","key":3\x0b}',  # \v and \f: whitespace to \s, not to JSON
    b'\x0c{"op":"get","key":3}',
    b'{"op":"get",\x0b"key":3}',
    b'{"op":"get","key":007}',
    b'{"op":"get","key":00}',
    b'{"op":"get","key":-0}',
    b'{"op":"get","key":-1}',
    b'{"op":"get","key":1.0}',
    b'{"op":"get","key":1e2}',
    b'{"op":"get","key":true}',
    b'{"op":"get","key":null}',
    b'{"op":"get","key":"17"}',
    b'{"op":"get","key":[3]}',
    b'{"op":"get","key":}',
    b'{"op":"get"}',
    b'{"key":3}',
    b'{"key":3,"op":"get"}',
    b'{"op":"get","op":"put","key":3}',
    b'{"op":"put","key":3,"key":4}',
    b'{"op":"get","key":3,"key":"x"}',
    b'{"op":"get","key":3,"trace":1}',
    b'{"trace":1,"op":"get","key":3}',
    b'{"op":"\\u0067et","key":3}',
    b'{"\\u006fp":"get","key":3}',
    b'{"op":"GET","key":3}',
    b'{"op":"delete","key":3}',
    b'{"op":["get"],"key":3}',
    b'{"op":"get","key":3}x',
    b'{"op":"get","key":3}{}',
    b'{"op":"get","key":3},',
    b'{"op":"get","key":3',
    b'"op":"get","key":3}',
    b'[{"op":"get","key":3}]',
    b"{'op':'get','key':3}",
    b'{op:"get",key:3}',
    b'{"op":"get","key":3}\xff',
    b'{"op":"g\xffet","key":3}',
    b"\xff\xfe",
    b'\xef\xbb\xbf{"op":"get","key":3}',  # a BOM: json.loads reads past it
    '{"op":"get","key":3}'.encode("utf-16"),
    '{"op":"put","key":3}'.encode("utf-32-le"),
    b"",
    b" ",
    b"\r",
    b"{}",
    b"[1]",
    b"7",
    b"null",
    b'{"op":"get","key":1' + b"0" * 4400 + b"}",  # past int()'s digit limit
    b"[" * 5000,  # RecursionError
    b'{"op":"stats","key":3}',
    b'{"op":"ping","key":3}',
    b'{"op":"ping"}',
    b'{"op":"chaos","key":3}',
    b'{"op":"chaos","action":"inject","spec":"shard-kill:at=0,shard=99"}',
]
#: The line bound sits in front of the pattern and of ``json.loads`` alike.
LONG_LINES = [
    padded(b'{"op":"get","key":3}', MAX_LINE),  # the longest line served
    padded(b'{"op":"get","key":3}', MAX_LINE + 1),
    padded(b'{"op":"get","key":3,"x":1}', MAX_LINE + 1),
]

#: Bytes that turn a valid spelling into a near miss when spliced in.
SPLICES = st.sampled_from(
    [b"\x0b", b"\x0c", b"\x00", b"0", b"-", b".", b"e", b'"', b"\\", b"{",
     b"}", b":", b",", b"x", b" ", b"\xff", b"\xc3\xa9"]
)


@st.composite
def mutated(draw):
    """A valid spelling with one byte spliced in, dropped or swapped."""
    line = draw(spelled())
    at = draw(st.integers(0, len(line)))
    how = draw(st.sampled_from(["insert", "drop", "swap"]))
    splice = b"" if how == "drop" else draw(SPLICES)
    return line[:at] + splice + line[at + (how != "insert"):]


LINES = st.lists(
    st.one_of(spelled(), spelled(), mutated(),
              st.sampled_from(NEAR_MISSES + LONG_LINES)),
    min_size=1, max_size=12,
)


def never_matches(line):
    return None


def assert_pattern_changes_nothing(lines):
    matched, with_pattern = drive(lines)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(server_module, "_SHARD_OP_LINE", never_matches)
        loaded, without_pattern = drive(lines)
    assert matched == loaded
    assert len(matched) == len(lines)
    assert counters(with_pattern) == counters(without_pattern)
    assert with_pattern.stats.value("service.requests") == len(lines)
    for line in matched:
        assert isinstance(json.loads(line), dict) and line.endswith(b"\n")


class TestParserDifferential:
    @SETTINGS
    @given(lines=LINES)
    def test_any_line_is_answered_as_json_loads_answers_it(self, lines):
        assert_pattern_changes_nothing(lines)

    @pytest.mark.parametrize(
        "odd", NEAR_MISSES + LONG_LINES, ids=lambda line: repr(line[:40])
    )
    def test_each_odd_line_between_two_served_gets(self, odd):
        get = b'{"op": "get", "key": 3}'
        assert_pattern_changes_nothing([get, odd, get])

    def test_the_spellings_clients_send_skip_the_general_parser(self):
        """Every client in the tree sends ``json.dumps`` of op-then-key;
        the pattern reads that spelling, compact or padded, and nothing
        that ``json.loads`` would read differently."""
        match = server_module._SHARD_OP_LINE
        for op in OPS:
            for key in (0, 7, 49, 10 ** 18 - 1):
                for line in (
                    json.dumps({"op": op, "key": key}),
                    json.dumps({"op": op, "key": key}, separators=(",", ":")),
                    f' {{ "op" : "{op}" ,\t"key" : {key} }} \r',
                ):
                    found = match(line.encode())
                    assert found is not None, line
                    assert (found.group(1).decode(), int(found.group(2))) == (
                        op, key,
                    )
        for miss in NEAR_MISSES:
            assert match(miss) is None, miss
        assert match(b'{"op":"get","key":' + b"9" * 19 + b"}") is None


# -- (b) the encoder --------------------------------------------------------

STATUSES = (
    "hit-fresh", "hit-validated", "refreshed", "miss", "stale-hit",
    "unavailable", "deadline", "updated", "invalidated", "absent",
    "overloaded",
)
SERVED_CLASSES = ("local", "origin", "degraded", "shed", "failed")
SIZES = st.one_of(
    st.sampled_from([0.0, 5e-324, 2.2250738585072014e-308, 1e22, 1e-7,
                     1234.5678, 10240.0]),
    st.floats(min_value=0.0, allow_nan=False, allow_infinity=False),
)
REASONS = st.one_of(
    st.sampled_from([
        "queue-full", "hot-key", "shard-down", "breaker-open",
        'say "when"', "back\\slash", "two\nlines\ttabbed", "café",
        "\U0001f525 on fire", "\x00\x1f\x7f", "</script>", " ",
    ]),
    st.text(max_size=20),
)
EXTRAS = st.fixed_dictionaries({}, optional={
    "admitted": st.booleans(),
    "reason": REASONS,
    "failover": st.just("replica"),
})
#: Strings the encoder writes without ``json``: quotes, backslashes,
#: control characters, non-ASCII text and lone surrogates among any text.
JSON_FREE_TEXT = st.text(st.one_of(
    st.characters(),
    st.sampled_from(['"', "\\", "\x00", "\x1f", "\x7f", "\u2028", "é",
                     "\U0001f525", "\ud800", "\udfff"]),
), max_size=12)
LATENCIES = st.one_of(
    st.sampled_from([0.0, 1e-3, 12.346, 1e16]),
    st.floats(min_value=0.0, max_value=1e7).map(lambda x: round(x, 3)),
)


@st.composite
def responses(draw):
    size = draw(SIZES)
    if draw(st.booleans()):
        size = np.float64(size)  # what a Database built from numpy may hold
    return CacheResponse(
        draw(st.sampled_from(OPS)),
        draw(st.integers(0, 10 ** 6)),
        draw(st.sampled_from(STATUSES)),
        draw(st.integers(0, 63)),
        version=draw(st.sampled_from([-1, 0, 1, 2 ** 31, 2 ** 63, 10 ** 30])),
        size_bytes=size,
        served_class=draw(st.sampled_from(SERVED_CLASSES)),
        extra=draw(EXTRAS),
    )


def oracle(response, latency_ms):
    return json.dumps(
        {**response.to_dict(), "latency_ms": latency_ms}
    ).encode() + b"\n"


class TestEncoderDifferential:
    @SETTINGS
    @given(response=responses(), latency_ms=LATENCIES)
    @example(CacheResponse("get", 0, "unavailable", 0), 0.0)
    @example(
        CacheResponse("get", 17, "miss", 3, version=0,
                      size_bytes=np.float64(5123.25), served_class="origin",
                      extra={"admitted": True, "failover": "replica"}),
        1e16,
    )
    @example(
        CacheResponse("put", 5, "unavailable", 1,
                      extra={"reason": 'x"\\\né\U0001f525'}),
        1e-3,
    )
    def test_encode_is_json_dumps_of_to_dict(self, response, latency_ms):
        assert response.encode(latency_ms) == oracle(response, latency_ms)

    @SETTINGS
    @given(
        admitted=st.booleans(),
        reason=JSON_FREE_TEXT,
        failover=JSON_FREE_TEXT,
        size=SIZES.map(np.float64),
        latency_ms=LATENCIES,
    )
    @example(admitted=True, reason="\ud800", failover='"\\\x00\x1f\x7f',
             size=np.float64(5e-324), latency_ms=0.0)
    def test_members_written_without_json_are_json_dumps(
        self, admitted, reason, failover, size, latency_ms
    ):
        """``admitted`` as ``true``/``false`` and ``reason``/``failover``
        through the C string encoder, beside a ``numpy.float64`` size:
        the line is ``json.dumps`` of the same members."""
        for extra in (
            {"admitted": admitted},
            {"reason": reason},
            {"admitted": admitted, "failover": failover},
            {"reason": reason, "failover": failover},
        ):
            response = CacheResponse(
                "get", 7, "miss", 1, version=3, size_bytes=size,
                served_class="origin", extra=extra,
            )
            assert response.encode(latency_ms) == oracle(response, latency_ms)

    def test_every_response_the_server_builds_is_encoded_alike(self):
        """A mixed stream through a real server, under a scheme that
        never validates within the stream and one that always does:
        each wire line - written inline from the line writer, or from a
        response object - is the oracle's encoding of the response its
        awaitable twin returns for the same op, at the latency the line
        carries."""
        rng = np.random.default_rng(20)
        ops = [
            (OPS[int(o)], int(k))
            for o, k in zip(rng.choice(3, 400, p=[0.7, 0.2, 0.1]),
                            rng.integers(0, 50, 400))
        ]
        lines = [json.dumps({"op": op, "key": key}).encode()
                 for op, key in ops]
        statuses = set()
        for scheme in ("push-adaptive-pull", "pull-every-time"):
            wire, _ = drive(lines, consistency=scheme)
            objects = twin(ops, consistency=scheme)
            assert len(wire) == len(objects) == len(ops)
            for line, response in zip(wire, objects):
                assert line == oracle(response, json.loads(line)["latency_ms"])
            statuses |= {r.status for r in objects}
        assert {"miss", "hit-fresh", "hit-validated", "updated",
                "invalidated"} <= statuses


# -- (c) cost by count ------------------------------------------------------

class TestCostByCount:
    def test_hits_misses_puts_and_validations_make_no_json_call(
        self, monkeypatch
    ):
        """Counted, not timed: the canonical spelling never reaches
        ``json.loads`` and no shard-op response reaches ``json.dumps`` -
        a miss, a fresh hit, a put and a validated hit alike."""
        counting = mock.Mock(wraps=json)  # counts, then delegates
        monkeypatch.setattr(server_module, "json", counting)
        monkeypatch.setattr(core_module, "json", counting)

        def take():
            calls = (counting.loads.call_count, counting.dumps.call_count)
            counting.reset_mock()
            return calls

        def statuses(responses):
            return {json.loads(r)["status"] for r in responses}

        def lines(op):
            return [json.dumps({"op": op, "key": k}).encode()
                    for k in range(8)]

        async def scenario(ask):
            assert statuses(await ask(lines("get"))) == {"miss"}
            assert take() == (0, 0)
            assert statuses(await ask(lines("get"))) == {"hit-fresh"}
            assert take() == (0, 0)
            assert statuses(await ask(lines("put"))) == {"updated"}
            assert take() == (0, 0)
            (stats,) = await ask([b'{"op": "stats"}'])
            assert take() == (1, 1)
            return json.loads(stats)

        stats, server = serve(scenario)
        assert stats["telemetry"]["service.requests"] == 3 * 8 + 1
        assert server.origin.fetches == 8 and server.origin.puts == 8

        async def validated(ask):
            assert statuses(await ask(lines("get"))) == {"miss"}
            assert statuses(await ask(lines("get"))) == {"hit-validated"}
            return take()

        calls, server = serve(validated, consistency="pull-every-time")
        assert calls == (0, 0)
        assert server.origin.validations == 8


# -- (d) the fresh-hit memo -------------------------------------------------

#: Few keys for the steps that hit, many for the ones that evict.
MEMO_KEYS = st.integers(0, 2)
MEMO_STEPS = st.lists(
    st.one_of(
        st.tuples(st.just("get"), MEMO_KEYS, LATENCIES),
        st.tuples(st.just("get"), MEMO_KEYS, LATENCIES),
        st.tuples(st.just("put"), MEMO_KEYS),  # commit + UpdatePush here
        st.tuples(st.just("commit"), MEMO_KEYS),  # the origin moves on alone
        st.tuples(st.just("pressure"),
                  st.lists(st.integers(0, 23), max_size=8)),
        st.tuples(st.just("purge"), MEMO_KEYS),
        st.tuples(st.just("invalidate"), MEMO_KEYS),
        st.tuples(st.just("tick"), st.floats(0.0, 90.0)),
    ),
    min_size=8, max_size=40,
)


class PushHere:
    """ConsistencyTransport delivering every UpdatePush to one shard."""

    def __init__(self, shard):
        self.shard = shard

    def push_update_to_regions(self, updater, key, category):
        item = self.shard.origin.db[key]
        self.shard.apply_push(item, UpdatePush(
            key=key, version=item.version, update_time=item.last_update_time,
            updater=updater, data_size=item.size_bytes,
            target_region_id=self.shard.shard_id,
        ))


def memo_shard():
    """One shard with room for about a fifth of its 24 keys."""
    database = Database(24, np.random.default_rng(3))
    scheme = PushAdaptivePull()
    for item in database.items:
        item.ttr = scheme.initial_ttr(item)
    shard = CacheService(
        0, 0.2 * database.total_bytes,
        clock=ManualClock(),
        directory=ShardDirectory(2, 24),
        origin=InMemoryOrigin(database),
        scheme=scheme,
    )
    scheme.bind(PushHere(shard))
    return shard


def expected_read(shard, key):
    """The response a read of ``key`` on ``shard`` must answer: its status
    is decided from the shard's state before the read, and the returned
    function reads the rest off the state after it."""
    entry = shard.cache.get(key)
    if entry is None:
        status = "miss"
    elif not shard.scheme.needs_validation(entry, shard.clock.now()):
        status = "hit-fresh"
    elif entry.version >= shard.origin.db[key].version:
        status = "hit-validated"
    else:
        status = "refreshed"

    def after():
        if status in ("miss", "refreshed"):
            item = shard.origin.db[key]
            return CacheResponse(
                "get", key, status, shard.shard_id, version=item.version,
                size_bytes=item.size_bytes, served_class="origin",
                extra={"admitted": key in shard.cache},
            )
        copy = shard.cache.get(key)
        return CacheResponse(
            "get", key, status, shard.shard_id, version=copy.version,
            size_bytes=copy.size_bytes, served_class="local",
        )

    return after


def read_line(shard, key, latency_ms):
    """One inline read of ``key``: its line, checked against the oracle."""
    expected = expected_read(shard, key)
    served = shard.get_nowait(key)
    assert type(served) is bytes
    line = served + b"%r}\n" % latency_ms
    assert line == oracle(expected(), latency_ms)
    return line


class TestHitLineMemo:
    """Every line an inline read writes - a fresh hit's memoized one
    included - is the oracle's line for what the shard's state says the
    read must answer, whatever happened to the copy since a memo was
    built, and the memo holds no key the cache does not."""

    @SETTINGS
    @given(steps=MEMO_STEPS)
    @example(steps=[("get", 1, 0.0), ("get", 1, 0.0), ("put", 1),
                    ("get", 1, 0.5)])
    @example(steps=[("get", 1, 0.0), ("get", 1, 0.0),
                    ("pressure", list(range(24)))])
    @example(steps=[("get", 1, 0.0), ("commit", 1), ("tick", 90.0),
                    ("get", 1, 0.0), ("tick", 90.0), ("get", 1, 0.0)])
    def test_a_hit_line_is_the_unmemoized_line(self, steps):
        shard = memo_shard()
        for step in steps:
            op, arg = step[0], step[1]
            if op == "get":
                read_line(shard, arg, step[2])
            elif op == "put":
                shard.put(arg)
            elif op == "commit":
                shard.origin.commit(arg, shard.clock.now())
            elif op == "pressure":
                for key in arg:
                    read_line(shard, key, 0.0)
            elif op == "purge":
                shard.purge(arg)
            elif op == "invalidate":
                shard.invalidate(arg)
            else:
                shard.clock.advance(arg)
            memo = shard._hit_lines
            assert len(memo) <= len(shard.cache.entries)
            assert set(memo) <= set(shard.cache.entries)
