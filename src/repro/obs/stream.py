"""Streaming telemetry bus: fan-out of live samples to pure consumers.

:class:`TelemetryBus` is the one path a telemetry row takes: the
simulation's :class:`~repro.obs.telemetry.TelemetrySampler` and the
edge-cache service's sampler task publish each row the moment it is
taken, and the bus fans it out to any number of subscribers:

* :class:`RingSubscriber` — a bounded in-memory window of recent rows
  (the sparkline history behind the live dashboard);
* :class:`JsonlLiveSink` — an append-per-sample JSONL file, flushed
  after every record so ``tail -f`` (and ``repro watch``) can follow a
  running simulation mid-run;
* :class:`MetricsSnapshotWriter` — a Prometheus-style text-exposition
  file, atomically rewritten per sample, for scraping the *current*
  gauge values;
* plain callables registered with :meth:`TelemetryBus.add_listener`
  (anomaly rules, then the dashboard's render hook).

Besides rows, the bus carries **events** — out-of-band markers such as
anomaly-rule firings (:meth:`TelemetryBus.publish_event`).  Sinks write
them as their own JSONL records and the dashboard renders them as
banners; ``repro watch`` replays both.

Determinism: everything here is a pure consumer of already-collected
rows.  No RNG, no stat writes, no simulation-state reads, no event-loop
interaction beyond the sampler tick that feeds ``publish`` — so arming
the bus (with any sink set) leaves run digests byte-identical, which
the golden-digest suite asserts.
"""

from __future__ import annotations

import json
import os
import re
from collections import deque
from typing import Any, Callable, Dict, List, Optional

from repro.obs.export import export_path

__all__ = [
    "JsonlLiveSink",
    "MetricsSnapshotWriter",
    "RingSubscriber",
    "TelemetryBus",
]


class RingSubscriber:
    """Bounded window of the most recent published rows and events.

    ``rows`` holds ``(t, values)`` pairs (values are the published dict,
    not a copy — consumers must treat them as read-only), ``events``
    holds ``(t, kind, payload)`` triples.  Both are ``deque`` ring
    buffers, so a subscriber's memory is bounded however long the run.
    """

    def __init__(self, history: int = 120):
        if history <= 0:
            raise ValueError(f"subscriber history must be positive: {history!r}")
        self.rows: deque = deque(maxlen=history)
        self.events: deque = deque(maxlen=history)

    def on_row(self, t: float, values: Dict[str, float]) -> None:
        self.rows.append((t, values))

    def on_event(self, t: float, kind: str, payload: Dict[str, Any]) -> None:
        self.events.append((t, kind, payload))

    @property
    def last(self) -> Optional[Dict[str, float]]:
        """The most recent row's values (None before the first sample)."""
        return self.rows[-1][1] if self.rows else None

    def series(self, name: str) -> List[float]:
        """Recent history of one column (absent samples carry 0.0)."""
        return [values.get(name, 0.0) for _, values in self.rows]

    def __len__(self) -> int:
        return len(self.rows)


class JsonlLiveSink:
    """Append-per-sample JSONL export, flushed so ``tail -f`` works.

    The file starts with a ``{"record": "header", "live": true}`` line,
    grows one ``{"record": "row", "t": ..., <column>: ...}`` line per
    published sample (plus ``{"record": "anomaly", ...}`` lines for bus
    events), and ends with a ``{"record": "end", "rows": N}`` line when
    the run closes the bus — which is how a follower distinguishes "the
    run is finished" from "the run is just quiet".
    :func:`~repro.obs.watch.watch_file` reads it back, live or after
    the fact.
    """

    def __init__(self, path):
        self.path = export_path(path)
        self.rows_written = 0
        self._fh = open(self.path, "w", encoding="utf-8")
        self._write({"record": "header", "live": True, "schema": 1})
        self._closed = False

    def _write(self, record: Dict[str, Any]) -> None:
        self._fh.write(json.dumps(record, sort_keys=True, default=repr))
        self._fh.write("\n")
        self._fh.flush()

    def on_row(self, t: float, values: Dict[str, float]) -> None:
        self._write({"record": "row", "t": t, **values})
        self.rows_written += 1

    def on_event(self, t: float, kind: str, payload: Dict[str, Any]) -> None:
        self._write({"record": kind, "t": t, **payload})

    def close(self) -> None:
        """Write the end marker and close the file.  Idempotent."""
        if self._closed:
            return
        self._closed = True
        self._write({"record": "end", "rows": self.rows_written})
        self._fh.close()


#: Characters legal in a Prometheus metric name; everything else maps to _.
_PROM_BAD = re.compile(r"[^a-zA-Z0-9_:]")


def prometheus_name(series: str) -> str:
    """``stat.net.unicast_sent`` -> ``repro_stat_net_unicast_sent``."""
    return "repro_" + _PROM_BAD.sub("_", series)


class MetricsSnapshotWriter:
    """Prometheus text-exposition snapshot of the latest telemetry row.

    Every published row atomically rewrites ``path`` (write to a
    sibling temp file, then ``os.replace``) with one gauge per column
    plus ``repro_sim_time_seconds``, so a scraper — or a human with
    ``cat`` — always sees one complete, current snapshot and never a
    torn write.
    """

    def __init__(self, path):
        self.path = export_path(path)
        self.snapshots_written = 0

    def on_row(self, t: float, values: Dict[str, float]) -> None:
        lines = [
            "# TYPE repro_sim_time_seconds gauge",
            f"repro_sim_time_seconds {t:g}",
        ]
        for series in sorted(values):
            name = prometheus_name(series)
            lines.append(f"# TYPE {name} gauge")
            lines.append(f"{name} {values[series]:g}")
        tmp = self.path.with_name(self.path.name + ".tmp")
        tmp.write_text("\n".join(lines) + "\n", encoding="utf-8")
        os.replace(tmp, self.path)
        self.snapshots_written += 1

    def on_event(self, t: float, kind: str, payload: Dict[str, Any]) -> None:
        pass  # snapshots expose current gauges only

    def close(self) -> None:
        pass  # the last snapshot *is* the final state


class TelemetryBus:
    """Fan-out of live telemetry rows and events to subscribers.

    The sampler calls :meth:`publish` once per sampled row; anomaly
    watchers call :meth:`publish_event` per firing.  Subscribers are
    either sink objects (``on_row``/``on_event``/optional ``close``) or
    plain ``(t, values)`` callables via :meth:`add_listener`.
    """

    def __init__(self):
        self._sinks: List[Any] = []
        self._listeners: List[Callable[[float, Dict[str, float]], None]] = []
        self.rows_published = 0
        self.events_published = 0
        self._closed = False

    def subscribe(self, history: int = 120) -> RingSubscriber:
        """Attach and return a bounded :class:`RingSubscriber`."""
        sub = RingSubscriber(history)
        self._sinks.append(sub)
        return sub

    def attach_sink(self, sink) -> None:
        """Attach an ``on_row``/``on_event`` sink (live file, snapshot)."""
        self._sinks.append(sink)

    def add_listener(
        self, fn: Callable[[float, Dict[str, float]], None]
    ) -> None:
        """Attach a plain callable invoked after sinks see each row."""
        self._listeners.append(fn)

    def publish(self, t: float, values: Dict[str, float]) -> None:
        """Fan one sampled row out to every subscriber."""
        self.rows_published += 1
        for sink in self._sinks:
            sink.on_row(t, values)
        for fn in self._listeners:
            fn(t, values)

    def publish_event(
        self, t: float, kind: str, payload: Optional[Dict[str, Any]] = None
    ) -> None:
        """Fan an out-of-band event (e.g. an anomaly firing) out."""
        self.events_published += 1
        payload = payload or {}
        for sink in self._sinks:
            on_event = getattr(sink, "on_event", None)
            if on_event is not None:
                on_event(t, kind, payload)

    def close(self) -> None:
        """Close every sink that has a ``close`` (end-of-run).  Idempotent."""
        if self._closed:
            return
        self._closed = True
        for sink in self._sinks:
            close = getattr(sink, "close", None)
            if close is not None:
                close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"TelemetryBus(sinks={len(self._sinks)}, "
            f"rows={self.rows_published}, events={self.events_published})"
        )
