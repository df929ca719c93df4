"""Request-level tracing: per-request causal spans on simulated time.

Every request issued by the workload gets a **trace**: a stable trace
id, its issuing peer and key, and a list of typed **spans**.  Two span
families exist:

* **phase spans** (``phase.local``, ``phase.home``, ``phase.replica``,
  ``phase.poll``) partition the request's lifetime exactly: each phase
  span ends the moment the next begins, and the last one ends when the
  request is served or fails, so the phase durations sum to the
  request's reported latency (the ``repro run --slowest`` breakdown
  relies on this identity);
* **point spans** (``geohash.resolve``, ``gpsr.hop``, ``region.flood``,
  ``cache.lookup``, ``cache.admit``, ``cache.evict``,
  ``consistency.poll``, ``consistency.push``, ``failover.replica``)
  are zero-duration markers recording which mechanism fired, where.

When a :class:`~repro.faults.plan.FaultPlan` rule fires on a message
belonging to an open trace, the fault kind is tagged onto both the
trace and its currently open phase span — the "why was this request
slow" answer the flat event log cannot give.

Determinism
-----------
The tracer is a pure observer: it never schedules events and never
touches the :class:`StatRegistry`, and its only randomness — the
optional head-based :class:`~repro.obs.sampling.TraceSampler` — draws
from a dedicated observer stream, so a traced (or sampled) run is
byte-identical (event-log and report digests) to the same run without
tracing.  All timestamps are simulated time.

Sampling
--------
With a sampler installed, :meth:`Tracer.begin` decides at the trace
head whether the request is recorded at all; rejected requests return
``None`` and every downstream recording call (``bind``, ``phase``,
``point``, ``finish``) accepts ``None`` as a no-op.  Trace ids are
consumed for rejected traces too, so a sampled export's ids line up
with the same run traced in full.

Exports
-------
:meth:`Tracer.to_jsonl` writes one JSON object per trace;
:meth:`Tracer.to_chrome_trace` writes the Chrome trace-event format
(load the file in Perfetto / ``chrome://tracing``; one row per peer,
simulated microseconds on the time axis).  Both accept str or
``os.PathLike`` paths, expand ``~``, and create missing parent
directories.
"""

from __future__ import annotations

import json
from collections import Counter, deque
from pathlib import Path
from typing import Any, Deque, Dict, Iterator, List, Optional

__all__ = ["Span", "Trace", "Tracer"]

#: Spans retained per trace before per-trace dropping kicks in.  A deep
#: perimeter detour can touch hundreds of hops; the cap bounds memory
#: on pathological routes while keeping normal traces complete.
SPANS_PER_TRACE_CAP = 512


class Span:
    """One typed span: an interval (or instant) of simulated time."""

    __slots__ = ("name", "start", "end", "peer", "attrs", "fault_tags",
                 "energy_uj")

    def __init__(self, name: str, start: float, peer: int = -1, **attrs: Any):
        self.name = name
        self.start = start
        self.end = start
        self.peer = peer
        self.attrs = attrs
        self.fault_tags: List[str] = []
        #: Radio energy attributed to this span (uJ); filled by the
        #: :class:`~repro.energy.attribution.EnergyAttributor` on phase
        #: spans when energy attribution is enabled, else stays 0.
        self.energy_uj: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "peer": self.peer,
        }
        if self.attrs:
            out["attrs"] = dict(self.attrs)
        if self.fault_tags:
            out["faults"] = list(self.fault_tags)
        if self.energy_uj:
            out["energy_uj"] = self.energy_uj
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Span({self.name!r}, {self.start:.4f}..{self.end:.4f})"


class Trace:
    """The full causal record of one request."""

    __slots__ = (
        "trace_id",
        "peer",
        "key",
        "start",
        "end",
        "outcome",
        "spans",
        "fault_tags",
        "dropped_spans",
        "open_phase",
    )

    def __init__(self, trace_id: int, peer: int, key: int, start: float):
        self.trace_id = trace_id
        self.peer = peer
        self.key = key
        self.start = start
        self.end = start
        #: Serve class ("local-static", "home", ...), "failed", or None
        #: while the request is still in flight.
        self.outcome: Optional[str] = None
        self.spans: List[Span] = []
        self.fault_tags: List[str] = []
        self.dropped_spans = 0
        self.open_phase: Optional[Span] = None

    @property
    def latency(self) -> float:
        return self.end - self.start

    def phase_breakdown(self) -> List[Span]:
        """The phase spans, in order (they partition ``latency``)."""
        return [s for s in self.spans if s.name.startswith("phase.")]

    def add_span(self, span: Span) -> bool:
        if len(self.spans) >= SPANS_PER_TRACE_CAP:
            self.dropped_spans += 1
            return False
        self.spans.append(span)
        return True

    def to_dict(self) -> Dict[str, Any]:
        return {
            "trace_id": self.trace_id,
            "peer": self.peer,
            "key": self.key,
            "start": self.start,
            "end": self.end,
            "latency": self.latency,
            "outcome": self.outcome,
            "faults": list(self.fault_tags),
            "dropped_spans": self.dropped_spans,
            "spans": [s.to_dict() for s in self.spans],
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Trace(#{self.trace_id}, peer={self.peer}, key={self.key}, "
            f"outcome={self.outcome!r}, spans={len(self.spans)})"
        )


class Tracer:
    """Collects request traces for one simulation run.

    Parameters
    ----------
    clock:
        Zero-argument callable returning the current simulated time
        (``lambda: sim.now``).
    capacity:
        Completed traces retained (oldest dropped first); ``None``
        retains everything.
    sampler:
        Optional :class:`~repro.obs.sampling.TraceSampler` consulted
        once per :meth:`begin`; ``None`` records every trace.
    """

    def __init__(self, clock, capacity: Optional[int] = 100_000,
                 sampler=None):
        self._clock = clock
        self._completed: Deque[Trace] = deque(maxlen=capacity)
        self._capacity = capacity
        self._sampler = sampler
        #: Open traces by the request id currently carrying them.  One
        #: trace may be re-bound as its request id changes hands (a
        #: poll that restarts as a home search keeps its request id).
        self._by_request: Dict[int, Trace] = {}
        self._next_trace_id = 0
        self.dropped_traces = 0
        #: Traces rejected at the head by the sampler.
        self.sampled_out = 0

    # -- lifecycle --------------------------------------------------------

    def begin(self, peer: int, key: int) -> Optional[Trace]:
        """Open a trace for a request issued now.

        Returns ``None`` when the head-based sampler rejects the
        request; the trace id is consumed either way, so ids are stable
        across sample rates.
        """
        trace_id = self._next_trace_id
        self._next_trace_id += 1
        if self._sampler is not None and not self._sampler.sample():
            self.sampled_out += 1
            return None
        return Trace(trace_id, peer, key, self._clock())

    def bind(self, trace: Optional[Trace], request_id: int) -> None:
        """Associate an open trace with an in-flight request id."""
        if trace is None:
            return
        self._by_request[request_id] = trace

    def lookup(self, request_id: Optional[int]) -> Optional[Trace]:
        """The open trace carried by ``request_id``, if any."""
        if request_id is None:
            return None
        return self._by_request.get(request_id)

    def phase(self, trace: Optional[Trace], name: str, **attrs: Any) -> None:
        """End the open phase span (if any) and start ``phase.<name>``."""
        if trace is None:
            return
        now = self._clock()
        if trace.open_phase is not None:
            trace.open_phase.end = now
        span = Span(f"phase.{name}", now, peer=trace.peer, **attrs)
        trace.open_phase = span if trace.add_span(span) else None

    def point(self, trace: Optional[Trace], name: str, peer: int = -1,
              **attrs: Any) -> None:
        """Record an instantaneous typed span on ``trace`` (no-op on None)."""
        if trace is None:
            return
        trace.add_span(Span(name, self._clock(), peer=peer, **attrs))

    def point_by_request(self, request_id: Optional[int], name: str,
                         peer: int = -1, **attrs: Any) -> None:
        """Record a point span on the trace carried by ``request_id``.

        Used by layers that only see a message (routing hops, remote
        floods, fault hooks) — the request id is the correlator.
        """
        self.point(self.lookup(request_id), name, peer=peer, **attrs)

    def tag_fault(self, request_id: Optional[int], kind: str) -> None:
        """Tag the trace (and its open phase span) with a fired fault rule."""
        trace = self.lookup(request_id)
        if trace is None:
            return
        trace.fault_tags.append(kind)
        if trace.open_phase is not None:
            trace.open_phase.fault_tags.append(kind)

    def finish(self, trace: Optional[Trace], outcome: str,
               request_id: Optional[int] = None) -> None:
        """Close a trace: end its open phase and file it as completed."""
        if trace is None:
            return
        now = self._clock()
        trace.end = now
        if trace.open_phase is not None:
            trace.open_phase.end = now
            trace.open_phase = None
        trace.outcome = outcome
        if request_id is not None:
            self._by_request.pop(request_id, None)
        if (
            self._capacity is not None
            and len(self._completed) == self._capacity
        ):
            self.dropped_traces += 1
        self._completed.append(trace)

    def discard(self, request_id: int) -> None:
        """Drop the trace carried by ``request_id`` without filing it."""
        self._by_request.pop(request_id, None)

    # -- queries ----------------------------------------------------------

    def __len__(self) -> int:
        return len(self._completed)

    def __iter__(self) -> Iterator[Trace]:
        return iter(self._completed)

    @property
    def open_traces(self) -> int:
        return len(self._by_request)

    def completed(self, outcome: Optional[str] = None) -> List[Trace]:
        """Completed traces, optionally filtered by outcome."""
        if outcome is None:
            return list(self._completed)
        return [t for t in self._completed if t.outcome == outcome]

    def slowest(self, n: int = 5, outcome: Optional[str] = None) -> List[Trace]:
        """The ``n`` highest-latency completed traces (served or failed),
        optionally only those with ``outcome``."""
        return sorted(
            self.completed(outcome), key=lambda t: t.latency, reverse=True
        )[:n]

    def span_counts(self) -> Dict[str, int]:
        """Total span counts per span name, across all completed traces."""
        counts: Counter = Counter()
        for trace in self._completed:
            counts.update(span.name for span in trace.spans)
        return dict(counts)

    def outcome_counts(self) -> Dict[str, int]:
        return dict(Counter(t.outcome for t in self._completed))

    # -- exporters --------------------------------------------------------

    @staticmethod
    def _export_path(path) -> Path:
        """Normalize an export target (see :func:`repro.obs.export.export_path`)."""
        from repro.obs.export import export_path

        return export_path(path)

    def to_jsonl(self, path) -> int:
        """Write one JSON object per completed trace; returns the count.

        Zero completed traces produce a valid empty file (a sampled-out
        or trace-free run still exports, and an empty export diffs
        cleanly against any other).
        """
        from repro.obs.export import write_jsonl

        return write_jsonl(path, (t.to_dict() for t in self._completed))

    def to_chrome_trace(self, path) -> int:
        """Export the Chrome trace-event format (Perfetto-viewable).

        Simulated seconds map to trace microseconds; each peer becomes
        a thread row; phase spans are complete ("X") events and point
        spans are instant ("i") events.  Returns the event count.
        """
        events: List[Dict[str, Any]] = []
        for trace in self._completed:
            for span in trace.spans:
                args: Dict[str, Any] = {
                    "trace_id": trace.trace_id,
                    "key": trace.key,
                }
                args.update({k: repr(v) if not isinstance(
                    v, (bool, int, float, str)) else v
                    for k, v in span.attrs.items()})
                if span.fault_tags:
                    args["faults"] = ",".join(span.fault_tags)
                tid = span.peer if span.peer >= 0 else trace.peer
                common = {
                    "name": span.name,
                    "pid": 0,
                    "tid": int(tid),
                    "ts": span.start * 1e6,
                    "cat": span.name.split(".", 1)[0],
                    "args": args,
                }
                if span.end > span.start:
                    events.append({**common, "ph": "X",
                                   "dur": span.duration * 1e6})
                else:
                    events.append({**common, "ph": "i", "s": "t"})
        with open(self._export_path(path), "w", encoding="utf-8") as fh:
            json.dump({"traceEvents": events,
                       "displayTimeUnit": "ms"}, fh)
        return len(events)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Tracer(completed={len(self._completed)}, "
            f"open={len(self._by_request)}, dropped={self.dropped_traces}, "
            f"sampled_out={self.sampled_out})"
        )
