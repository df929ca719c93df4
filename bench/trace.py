"""Tracing installed from the benchmark's side, removed afterwards.

Two instruments, neither of which touches a file under ``src/``:

* :class:`LayerProfile` - a ``cProfile`` run whose per-function self
  time is grouped by source path into *layers* (one per module of
  ``src/repro`` that the workloads exercise, plus the asyncio runtime,
  the JSON codec and the benchmark's own generator).  Functions that
  belong to no layer - builtins, numpy, stdlib helpers, and small shared
  ``repro`` modules such as ``geom`` or the stat registry - are charged
  to the layer that *called* them, using the profile's caller edges, so
  the layer rows partition the profiled wall time.
* :class:`SpanRecorder` - wrappers around the service's public
  coroutines that record ``(name, key, start, end, parent)`` spans in
  memory; they give the waiting times a CPU profile cannot.

``cProfile`` charges a call's cost to Python-level calls but not to
work inside native code, so traced proportions are a guide to *where*
time goes; they never feed an end-to-end metric.
"""

from __future__ import annotations

import cProfile
import contextvars
import functools
import inspect
from collections import defaultdict
from time import perf_counter
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = [
    "LAYER_RULES",
    "UNATTRIBUTED",
    "LayerProfile",
    "SpanRecorder",
    "assign_request_ids",
    "classify_path",
    "layer_self_times",
]

#: Pseudo-layer for time no caller edge leads to a layer for (profiler
#: roots) and for the benchmark's own driver code.
UNATTRIBUTED = "unattributed"

#: Waiting in the selector is idleness, not asyncio's work.
IDLE = "runtime.idle"

#: (path fragment, layer), first match wins.  A source file matching no
#: rule is a helper: its time goes to whoever called it.
LAYER_RULES: Sequence[Tuple[str, str]] = (
    ("/repro/sim/engine.py", "sim.engine"),
    ("/repro/net/network.py", "net.network"),
    ("/repro/net/topology.py", "net.topology"),
    ("/repro/routing/gpsr.py", "routing.gpsr"),
    ("/repro/routing/flooding.py", "routing.flooding"),
    ("/repro/routing/planarization.py", "routing.planarization"),
    ("/repro/routing/stack.py", "routing.stack"),
    ("/repro/core/peer.py", "core.peer"),
    ("/repro/core/network.py", "core.network"),
    ("/repro/core/cache.py", "core.cache"),
    ("/repro/core/replacement.py", "core.cache"),
    ("/repro/core/consistency.py", "core.consistency"),
    ("/repro/energy/model.py", "energy.model"),
    ("/repro/energy/attribution.py", "obs"),
    ("/repro/obs/", "obs"),
    ("/repro/mobility/", "mobility"),
    ("/repro/workload/generator.py", "workload"),
    ("/repro/workload/zipf.py", "workload"),
    ("/repro/service/server.py", "service.server"),
    ("/repro/service/chaos.py", "service.server"),
    ("/repro/service/core.py", "service.core"),
    ("/repro/service/origin.py", "service.origin"),
    ("/repro/service/routing.py", "service.routing"),
    ("/repro/service/supervision.py", "service.supervision"),
    ("/repro/resilience/", "resilience.manager"),
    ("/repro/ports.py", "ports"),
    ("/asyncio/", "runtime.asyncio"),
    ("/selectors.py", "runtime.asyncio"),
    ("/json/", "wire.json"),
    ("/bench/loadgen.py", "loadgen"),
    ("/bench/", UNATTRIBUTED),
)

#: ``core.regions`` and ``core.geohash`` are the service's routing layer
#: (ShardDirectory is a thin wrapper over them); in the simulator they
#: are helpers of whichever module asked where a key lives.
SERVICE_ONLY_RULES: Sequence[Tuple[str, str]] = (
    ("/repro/core/regions.py", "service.routing"),
    ("/repro/core/geohash.py", "service.routing"),
)


def classify_path(path: str, rules: Sequence[Tuple[str, str]]) -> Optional[str]:
    for fragment, layer in rules:
        if fragment in path:
            return layer
    return None


def _classifier(rules: Sequence[Tuple[str, str]]) -> Callable[[object], Optional[str]]:
    def classify(code: object) -> Optional[str]:
        if isinstance(code, str):  # a builtin, e.g. "<method 'poll' of ...>"
            return IDLE if "'poll' of 'select." in code else None
        return classify_path(code.co_filename, rules)

    return classify


def layer_self_times(
    entries: Iterable, classify: Callable[[object], Optional[str]]
) -> Tuple[Dict[str, float], Dict[str, int]]:
    """Partition a profile's self time by layer.

    ``entries`` is ``cProfile.Profile.getstats()``.  Returns
    ``(self_seconds, calls)`` keyed by layer; the seconds sum to the
    profile's total self time exactly (what no caller chain explains is
    booked under :data:`UNATTRIBUTED`).

    A helper function's self time is split over its callers in
    proportion to the time it spent under each (the caller edges
    ``cProfile`` keeps); a helper called by another helper inherits that
    caller's own split, gprof-style.
    """
    entries = list(entries)
    owner = {e.code: classify(e.code) for e in entries}
    # incoming[callee] = [(caller, callee self time under caller, total time)]
    incoming: Dict[object, List[Tuple[object, float, float]]] = defaultdict(list)
    for entry in entries:
        for sub in entry.calls or ():
            incoming[sub.code].append((entry.code, sub.inlinetime, sub.totaltime))

    shares: Dict[object, Dict[str, float]] = {}
    visiting = set()

    def share_of(code: object) -> Dict[str, float]:
        """Layer distribution (summing to 1) that ``code``'s time belongs to."""
        layer = owner.get(code)
        if layer is not None:
            return {layer: 1.0}
        if code in shares:
            return shares[code]
        if code in visiting:  # helper recursion: no new information
            return {}
        visiting.add(code)
        mix: Dict[str, float] = defaultdict(float)
        weight = 0.0
        for caller, _, total in incoming.get(code, ()):
            if total <= 0.0:
                continue
            for name, part in share_of(caller).items():
                mix[name] += total * part
                weight += total * part
        visiting.discard(code)
        result = (
            {name: value / weight for name, value in mix.items()}
            if weight > 0.0 else {UNATTRIBUTED: 1.0}
        )
        shares[code] = result
        return result

    seconds: Dict[str, float] = defaultdict(float)
    calls: Dict[str, int] = defaultdict(int)
    for entry in entries:
        layer = owner[entry.code]
        if layer is not None:
            seconds[layer] += entry.inlinetime
            calls[layer] += entry.callcount
            continue
        edges = incoming.get(entry.code, ())
        explained = 0.0
        for caller, inline, _ in edges:
            for name, part in share_of(caller).items():
                seconds[name] += inline * part
            explained += inline
        # Self time with no caller edge (the helper was a profiler root).
        seconds[UNATTRIBUTED] += entry.inlinetime - explained
    return dict(seconds), dict(calls)


class LayerProfile:
    """``with LayerProfile(rules) as prof: ...`` then ``prof.table()``."""

    def __init__(self, service: bool):
        rules = tuple(SERVICE_ONLY_RULES) + tuple(LAYER_RULES) if service else LAYER_RULES
        self._classify = _classifier(rules)
        self._profile = cProfile.Profile()
        self.wall_s = 0.0
        self._t0 = 0.0

    def __enter__(self) -> "LayerProfile":
        self._t0 = perf_counter()
        self._profile.enable()
        return self

    def __exit__(self, *exc) -> None:
        self._profile.disable()
        self.wall_s += perf_counter() - self._t0

    def table(self) -> Tuple[Dict[str, float], Dict[str, int]]:
        return layer_self_times(self._profile.getstats(), self._classify)


class SpanRecorder:
    """Record spans around public methods, from outside.

    ``install()`` replaces each ``(cls, method)`` with a wrapper that
    appends ``[name, key, start, end, parent]`` to :attr:`spans`
    (``parent`` is the index of the enclosing span, carried across
    ``await`` and task creation by a context variable); ``remove()``
    puts the originals back.
    """

    def __init__(self, targets: Sequence[Tuple[type, str, str]],
                 clock: Callable[[], float] = perf_counter):
        self._targets = targets
        self._clock = clock
        self._originals: List[Tuple[type, str, object]] = []
        self._current: contextvars.ContextVar = contextvars.ContextVar(
            "bench_span", default=None
        )
        self.spans: List[list] = []

    def _wrap(self, name: str, original):
        spans, clock, current = self.spans, self._clock, self._current

        def begin(key) -> Tuple[int, contextvars.Token]:
            index = len(spans)
            spans.append([name, key, clock(), None, current.get()])
            return index, current.set(index)

        def end(index: int, token) -> None:
            current.reset(token)
            spans[index][3] = clock()

        if inspect.iscoroutinefunction(original):
            @functools.wraps(original)
            async def wrapper(obj, key, *args, **kwargs):
                index, token = begin(key)
                try:
                    return await original(obj, key, *args, **kwargs)
                finally:
                    end(index, token)
        else:
            @functools.wraps(original)
            def wrapper(obj, key, *args, **kwargs):
                index, token = begin(key)
                try:
                    return original(obj, key, *args, **kwargs)
                finally:
                    end(index, token)
        return wrapper

    def install(self) -> None:
        for cls, method, name in self._targets:
            original = cls.__dict__[method]
            self._originals.append((cls, method, original))
            setattr(cls, method, self._wrap(name, original))

    def remove(self) -> None:
        while self._originals:
            cls, method, original = self._originals.pop()
            setattr(cls, method, original)

    def durations_ms(self, name: str) -> List[float]:
        return [
            (s[3] - s[2]) * 1e3 for s in self.spans
            if s[0] == name and s[3] is not None
        ]


def assign_request_ids(
    spans: Sequence[list], requests: Sequence[Tuple[str, str, int, float, float]]
) -> List[Optional[str]]:
    """Give every span the id of the client request that caused it.

    ``requests`` are ``(request_id, op, key, sent, received)`` as the
    generator saw them.  The server is measured from outside, so the id
    does not travel on the wire: a root span ``service.core.<op>`` on
    ``key`` belongs to the earliest unclaimed request for the same op
    and key whose send..receive interval contains the span's start;
    child spans take their parent's id.
    """
    waiting: Dict[Tuple[str, int], List[Tuple[float, float, str]]] = defaultdict(list)
    for request_id, op, key, sent, received in requests:
        waiting[(op, key)].append((sent, received, request_id))
    for queue in waiting.values():
        queue.sort(reverse=True)  # pop() yields the earliest send
    ids: List[Optional[str]] = [None] * len(spans)
    for index, (name, key, start, _end, parent) in enumerate(spans):
        if parent is not None:
            ids[index] = ids[parent]
            continue
        queue = waiting.get((name.rsplit(".", 1)[-1], key))
        while queue and queue[-1][1] < start:
            queue.pop()  # answered before this span began: not its cause
        if queue and queue[-1][0] <= start:
            ids[index] = queue.pop()[2]
    return ids
