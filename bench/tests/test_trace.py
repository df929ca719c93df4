"""Layer self-time partition, span parents and request-id assignment."""

import asyncio
import cProfile
from time import perf_counter

import pytest

from trace import (
    UNATTRIBUTED, SpanRecorder, assign_request_ids, layer_self_times,
)


def _burn(units: int) -> int:
    """Shared helper: belongs to no layer, so its callers pay for it."""
    total = 0
    for i in range(units * 40_000):
        total += i & 7
    return total


def layer_b() -> int:
    return _burn(3) + sum(range(1000))


def layer_a() -> int:
    own = 0
    for i in range(40_000):
        own += i & 3
    return own + _burn(1) + layer_b()


def _classify(code):
    if isinstance(code, str):
        return None
    return {"layer_a": "A", "layer_b": "B"}.get(code.co_name)


def test_layer_rows_partition_the_profiled_wall():
    profile = cProfile.Profile()
    started = perf_counter()
    profile.enable()
    layer_a()
    profile.disable()
    wall = perf_counter() - started

    entries = profile.getstats()
    seconds, calls = layer_self_times(entries, _classify)
    total = sum(e.inlinetime for e in entries)
    # Exact partition of what the profiler saw, and that is the wall.
    assert sum(seconds.values()) == pytest.approx(total, rel=1e-9)
    assert total == pytest.approx(wall, rel=0.15)
    assert calls == {"A": 1, "B": 1}
    # The helper's 4 units went 1 to A and 3 to B; A also burns ~1 unit itself.
    assert seconds["B"] > 1.2 * seconds["A"]
    assert seconds["B"] == pytest.approx(0.6 * total, rel=0.25)
    # Only the profiler's own enable/disable bookkeeping has no caller.
    assert seconds.get(UNATTRIBUTED, 0.0) < 0.05 * total


def test_helper_called_only_by_helpers_inherits_their_split():
    def inner():
        return _burn(2)

    def outer():
        return inner()

    def layer_c():
        return outer()

    def classify(code):
        if not isinstance(code, str) and code.co_name == "layer_c":
            return "C"
        return None

    profile = cProfile.Profile()
    profile.enable()
    layer_c()
    profile.disable()
    seconds, _ = layer_self_times(profile.getstats(), classify)
    assert seconds["C"] > 0.95 * sum(seconds.values())


class _Core:
    def __init__(self, origin):
        self.origin = origin

    async def get(self, key):
        await asyncio.sleep(0)
        # A task created inside the span still knows its parent.
        return await asyncio.ensure_future(self.origin.fetch(key))

    def put(self, key):
        return self.origin.commit(key)


class _Origin:
    async def fetch(self, key):
        await asyncio.sleep(0)
        return key

    def commit(self, key):
        return key


def test_span_recorder_links_children_and_restores_originals():
    original_get = _Core.__dict__["get"]
    ticks = iter(range(1000))
    recorder = SpanRecorder(
        ((_Core, "get", "service.core.get"), (_Core, "put", "service.core.put"),
         (_Origin, "fetch", "service.origin.fetch"),
         (_Origin, "commit", "service.origin.commit")),
        clock=lambda: float(next(ticks)),
    )
    recorder.install()
    try:
        core = _Core(_Origin())

        async def main():
            await asyncio.gather(core.get(1), core.get(2))
            core.put(3)

        asyncio.run(main())
    finally:
        recorder.remove()
    assert _Core.__dict__["get"] is original_get

    names = [(s[0], s[1], s[4]) for s in recorder.spans]
    gets = [i for i, s in enumerate(recorder.spans) if s[0] == "service.core.get"]
    for i, span in enumerate(recorder.spans):
        assert span[3] is not None and span[3] > span[2]
        if span[0] == "service.origin.fetch":
            parent = recorder.spans[span[4]]
            assert parent[0] == "service.core.get" and parent[1] == span[1]
    assert len(gets) == 2
    assert ("service.origin.commit", 3, len(recorder.spans) - 2) in names
    assert len(recorder.durations_ms("service.origin.fetch")) == 2


def test_request_ids_follow_op_key_and_time():
    spans = [
        ["service.core.get", 5, 1.0, 1.2, None],     # 0: first get of key 5
        ["service.origin.fetch", 5, 1.1, 1.15, 0],   # 1: its child
        ["service.core.get", 5, 2.0, 2.1, None],     # 2: second get of key 5
        ["service.core.put", 5, 2.5, 2.6, None],     # 3: a put, not a get
        ["service.core.get", 9, 3.0, 3.1, None],     # 4: nobody asked for it
    ]
    requests = [
        ("r0-c0-0", "get", 5, 0.9, 1.3),
        ("r0-c1-0", "get", 5, 1.9, 2.2),
        ("r0-c0-1", "put", 5, 2.4, 2.7),
        ("r0-c1-1", "get", 9, 3.5, 3.6),   # sent after span 4 began
    ]
    assert assign_request_ids(spans, requests) == [
        "r0-c0-0", "r0-c0-0", "r0-c1-0", "r0-c0-1", None,
    ]
