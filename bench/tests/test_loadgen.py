"""Open-loop schedule and lateness under a fake clock; failure accounting."""

import asyncio
import math
from time import perf_counter

import pytest

import loadgen


def test_schedule_hands_out_each_request_once_when_due():
    schedule = loadgen.OpenLoopSchedule(rate=4.0, count=6, start=10.0)
    assert [schedule.due_at(i) for i in range(3)] == [10.0, 10.25, 10.5]
    assert list(schedule.take_due(9.9)) == []
    assert schedule.wait(9.9) == pytest.approx(0.1)
    assert list(schedule.take_due(10.3)) == [0, 1]
    assert list(schedule.take_due(10.3)) == []
    assert schedule.wait(10.3) == pytest.approx(0.2)
    # A stall: everything that fell due meanwhile comes out at once.
    assert list(schedule.take_due(11.6)) == [2, 3, 4, 5]
    assert schedule.wait(11.6) is None
    with pytest.raises(ValueError):
        loadgen.OpenLoopSchedule(rate=0.0, count=1, start=0.0)


class _FakeClock:
    """Time moves only in ``sleep``; a coarse timer wakes on 10 ms ticks."""

    def __init__(self, tick: float):
        self.t = 0.0
        self.tick = tick

    def now(self) -> float:
        return self.t

    async def sleep(self, seconds: float) -> None:
        target = self.t + seconds
        self.t = math.ceil(round(target / self.tick, 9)) * self.tick
        await asyncio.sleep(0)


class _EchoPipe:
    """Writer and reader in one: every request line is answered at once."""

    def __init__(self, reply: bytes):
        self.reply = reply
        self.queue: asyncio.Queue = asyncio.Queue()
        self.written = []

    def write(self, data: bytes) -> None:
        self.written.append(data)
        for _ in data.splitlines():
            self.queue.put_nowait(self.reply)

    async def readline(self) -> bytes:
        return await self.queue.get()


def _connections(count: int, reply: bytes = b'{"ok": true}\n'):
    pipes = [_EchoPipe(reply) for _ in range(count)]
    return pipes, [loadgen.Connection(pipe, pipe) for pipe in pipes]


def test_open_loop_times_from_due_time_and_reports_lateness():
    clock = _FakeClock(tick=0.010)
    pipes, conns = _connections(2)
    lines = [b"%d\n" % i for i in range(8)]

    async def main():
        # 250 req/s: due every 4 ms, but the timer only wakes every 10 ms.
        return await loadgen.open_round(
            conns, lines, rate=250.0, keep=True, clock=clock.now,
            sleep=clock.sleep,
        )

    result = asyncio.run(main())
    assert result.sent == result.ok == 8 and result.ops_failed == 0
    # Interleaved over the connections, in schedule order on each.
    assert pipes[0].written == [b"0\n", b"2\n", b"4\n", b"6\n"]
    assert pipes[1].written == [b"1\n", b"3\n", b"5\n", b"7\n"]
    due = [i * 0.004 for i in range(8)]
    sent_at = [0.0, 0.010, 0.010, 0.020, 0.020, 0.020, 0.030, 0.030]
    assert list(result.late_s) == pytest.approx(
        [s - d for s, d in zip(sent_at, due)]
    )
    # Latency runs from the due time: even with an instant echo it is at
    # least the generator's lag (plus at most the tick the reader waited).
    for (index, stamp, _), latency in zip(result.responses, result.latencies_s):
        assert stamp == pytest.approx(due[index])
        lag = result.late_s[index]
        assert lag - 1e-9 <= latency <= lag + clock.tick + 1e-9


def test_quiet_clock_leaves_out_gaps_longer_than_its_limit():
    readings = iter([5.0, 5.0004, 5.0010, 5.0080, 5.0085, 5.0300])
    clock = loadgen.QuietClock(0.001, clock=lambda: next(readings))
    # 0.4 and 0.6 ms pass; the 7 ms gap does not; 0.5 ms; the 21.5 ms gap.
    assert [clock() for _ in range(6)] == pytest.approx(
        [5.0, 5.0004, 5.0010, 5.0010, 5.0015, 5.0015]
    )
    assert clock.skips == 2
    assert clock.skipped_s == pytest.approx(0.007 + 0.0215)


def test_poll_gives_the_loop_one_turn_and_never_sleeps():
    async def main():
        turns = []

        async def other():
            turns.append("other")

        task = asyncio.ensure_future(other())
        began = perf_counter()
        await loadgen.poll(60.0)
        assert task.done()
        return turns, perf_counter() - began

    turns, elapsed = asyncio.run(main())
    assert turns == ["other"] and elapsed < 1.0


def test_non_ok_and_unanswered_requests_count_as_failed(monkeypatch):
    _, conns = _connections(2, reply=b'{"ok": false, "status": "overloaded"}\n')
    lines = [b"x\n"] * 10

    async def shed():
        return await loadgen.closed_round(conns, lines, window=2, duration_s=None)

    result = asyncio.run(shed())
    assert (result.sent, result.ok, result.failed) == (10, 0, 10)

    class _Silent(_EchoPipe):
        def write(self, data: bytes) -> None:
            self.written.append(data)

    monkeypatch.setattr(loadgen, "ROUND_GRACE_S", 0.05)
    silent = _Silent(b"")
    mute = [loadgen.Connection(silent, silent)]

    async def unanswered():
        return await loadgen.closed_round(mute, [b"x\n"] * 3, window=3, duration_s=0.01)

    result = asyncio.run(unanswered())
    assert (result.sent, result.unanswered, result.ops_failed) == (3, 3, 3)


def test_check_echo_rejects_a_response_for_another_key():
    ops = [("get", 4), ("put", 9)]
    good = [(0, 0.0, b'{"op": "get", "key": 4, "ok": true}'),
            (1, 0.0, b'{"op": "put", "key": 9, "ok": true}')]
    assert len(loadgen.check_echo(ops, good)) == 2
    with pytest.raises(AssertionError, match="echoes"):
        loadgen.check_echo(ops, [(0, 0.0, b'{"op": "get", "key": 5, "ok": true}')])
    with pytest.raises(AssertionError, match="not ok"):
        loadgen.check_echo(ops, [(1, 0.0, b'{"op": "put", "key": 9, "ok": false}')])


def test_request_stream_is_a_function_of_its_seed():
    a = loadgen.RequestStream(3, 100, 0.9, 0.3).take(50)
    b = loadgen.RequestStream(3, 100, 0.9, 0.3).take(50)
    c = loadgen.RequestStream(4, 100, 0.9, 0.3).take(50)
    assert a == b and a != c
    lines, ops = a
    assert lines[0] == b'{"op": "%s", "key": %d}\n' % (ops[0][0].encode(), ops[0][1])
    assert {op for op, _ in ops} == {"get", "put"}
