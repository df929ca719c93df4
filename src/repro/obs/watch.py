"""``repro watch`` — follow or replay a telemetry JSONL live export.

A :class:`~repro.obs.stream.JsonlLiveSink` file is append-only and
flushed per record, so it can be consumed *while the producing run is
still going* (``repro run --watch --live-export live.jsonl`` in one
terminal, ``repro watch live.jsonl --follow`` in another), or scrubbed
after the fact.  :func:`watch_file` reads the export incrementally and
feeds an in-process :class:`~repro.obs.stream.TelemetryBus` +
:class:`~repro.obs.dashboard.Dashboard`, so the live view and the
replay view are the same code path.

Record grammar (one JSON object per line):

* ``{"record": "header", ...}`` — file preamble; ignored beyond
  validation.
* ``{"record": "row", "t": ..., <column>: <value>, ...}`` — one
  telemetry sample.
* ``{"record": "end", "rows": N}`` — the producing run finished; a
  follower stops here.
* anything else (e.g. ``{"record": "anomaly", ...}``) — an event,
  republished to the bus and rendered as a dashboard banner.

In follow mode the reader polls for new complete lines (a partially
written trailing line is left for the next poll — the producer flushes
whole records, but the filesystem makes no atomicity promise) and stops
on the ``end`` record, ``timeout`` wall seconds of silence, or Ctrl-C.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from typing import Optional

from repro.obs.dashboard import Dashboard
from repro.obs.stream import TelemetryBus

__all__ = ["WatchResult", "watch_file"]


@dataclass
class WatchResult:
    """What one :func:`watch_file` pass consumed."""

    rows: int = 0
    events: int = 0
    #: True when the export's ``end`` record was seen (run finished).
    ended: bool = False
    #: True when follow mode gave up after ``timeout`` quiet seconds.
    timed_out: bool = False


def watch_file(
    path,
    *,
    follow: bool = False,
    interval: float = 1.0,
    mode: str = "auto",
    out=None,
    timeout: Optional[float] = None,
    poll: float = 0.25,
    clock=time.monotonic,
    sleep=time.sleep,
) -> WatchResult:
    """Render a telemetry JSONL export as a live dashboard.

    Parameters
    ----------
    path:
        The export to read (a ``--live-export`` file).
    follow:
        Keep polling for new records after EOF (``tail -f``) until the
        ``end`` record, ``timeout`` quiet wall-seconds, or Ctrl-C;
        False replays the current contents and returns at EOF.
    interval / mode / out:
        Forwarded to :class:`~repro.obs.dashboard.Dashboard` — wall
        seconds between repaints, ``auto``/``ansi``/``plain``, output
        stream.
    timeout:
        Follow mode only: give up after this many wall seconds without
        a new record (None = wait forever).
    poll:
        Follow mode poll period (wall seconds).
    clock / sleep:
        Wall-clock hooks, injected by tests.
    """
    bus = TelemetryBus()
    dash = Dashboard(
        bus, duration=None, interval=interval, mode=mode, out=out,
        clock=clock, title=f"repro watch {path}",
    )
    result = WatchResult()
    last_progress = clock()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lineno = 0
            while True:
                pos = fh.tell()
                line = fh.readline()
                if not line or (follow and not line.endswith("\n")):
                    # EOF, or a torn trailing line mid-append.
                    if not follow:
                        break
                    if (
                        timeout is not None
                        and clock() - last_progress >= timeout
                    ):
                        result.timed_out = True
                        break
                    fh.seek(pos)
                    sleep(poll)
                    continue
                last_progress = clock()
                lineno += 1
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except ValueError as exc:
                    raise ValueError(
                        f"{path}:{lineno}: malformed JSONL record: {exc}"
                    ) from None
                if not isinstance(record, dict):
                    raise ValueError(
                        f"{path}:{lineno}: not a JSON object record"
                    )
                kind = record.get("record")
                if kind == "header":
                    continue
                if kind == "row":
                    t = float(record.get("t", 0.0))
                    values = {
                        k: float(v) for k, v in record.items()
                        if k not in ("record", "t")
                        and isinstance(v, (int, float))
                    }
                    bus.publish(t, values)
                    result.rows += 1
                elif kind == "end":
                    result.ended = True
                    break
                else:
                    # Event record (anomaly firing, future kinds).
                    t = float(record.get("t", 0.0))
                    payload = {
                        k: v for k, v in record.items()
                        if k not in ("record", "t")
                    }
                    bus.publish_event(t, str(kind), payload)
                    result.events += 1
    except KeyboardInterrupt:  # pragma: no cover - interactive only
        pass
    finally:
        dash.close()
    return result
