"""Structured event logging.

An optional, bounded, in-memory log of protocol-level events (request
lifecycle, custody movement, region changes).  Disabled by default —
the hot path pays a single ``if`` — and enabled per run with
``SimulationConfig(enable_event_log=True)``.

Events are plain records, queryable after the run::

    net = PReCinCtNetwork(cfg_with_log)
    net.run()
    for e in net.log.of_kind("request.served"):
        print(e.time, e.fields["peer"], e.fields["latency"])
"""

from __future__ import annotations

import json
from collections import Counter, deque
from dataclasses import dataclass, field
from typing import Any, Deque, Dict, Iterator, List, Optional

__all__ = ["Event", "EventLog"]


@dataclass(frozen=True)
class Event:
    """One logged protocol event."""

    time: float
    kind: str
    fields: Dict[str, Any] = field(default_factory=dict)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kv = " ".join(f"{k}={v!r}" for k, v in self.fields.items())
        return f"[{self.time:10.3f}] {self.kind} {kv}"


class EventLog:
    """Bounded in-memory event ring.

    Parameters
    ----------
    capacity:
        Maximum retained events; older events are discarded first.
        ``None`` retains everything (use only for short runs).
    """

    def __init__(self, capacity: Optional[int] = 100_000):
        self._events: Deque[Event] = deque(maxlen=capacity)
        self.dropped = 0
        self._capacity = capacity

    def record(self, time: float, kind: str, **fields: Any) -> None:
        if (
            self._capacity is not None
            and len(self._events) == self._capacity
        ):
            self.dropped += 1
        self._events.append(Event(time, kind, fields))

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[Event]:
        return iter(self._events)

    def of_kind(self, kind: str) -> List[Event]:
        """All retained events of one kind, in time order."""
        return [e for e in self._events if e.kind == kind]

    def counts(self) -> Dict[str, int]:
        """Event counts per kind."""
        return dict(Counter(e.kind for e in self._events))

    def between(self, start: float, end: float) -> List[Event]:
        """Events in the half-open virtual-time window [start, end)."""
        return [e for e in self._events if start <= e.time < end]

    def clear(self) -> None:
        self._events.clear()
        self.dropped = 0

    # -- persistence ------------------------------------------------------

    def to_jsonl(self, path) -> int:
        """Write the retained events as JSON Lines; returns the count.

        The first line is a header object carrying the ring's ``dropped``
        count, so truncation survives the round trip.  Non-JSON field
        values are rendered with ``repr`` (lossy but never fails).
        """
        n = 0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"__eventlog__": 1, "dropped": self.dropped}))
            fh.write("\n")
            for event in self._events:
                fh.write(json.dumps(
                    {"time": event.time, "kind": event.kind,
                     "fields": event.fields},
                    sort_keys=True, default=repr))
                fh.write("\n")
                n += 1
        return n

    @classmethod
    def from_jsonl(cls, path, capacity: Optional[int] = None) -> "EventLog":
        """Rebuild an :class:`EventLog` from a :meth:`to_jsonl` file.

        ``capacity`` defaults to unbounded so a loaded log is never
        re-truncated; the header's ``dropped`` count is restored.
        """
        log = cls(capacity=capacity)
        with open(path, "r", encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                record = json.loads(line)
                if "__eventlog__" in record:
                    log.dropped = int(record.get("dropped", 0))
                    continue
                log._events.append(Event(
                    float(record["time"]), str(record["kind"]),
                    dict(record.get("fields", {}))))
        return log

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"EventLog(n={len(self._events)}, dropped={self.dropped})"
