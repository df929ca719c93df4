"""Flight recorder: post-mortem bundles for anomalous runs.

When something goes wrong mid-run — an invariant violation at a fault
boundary, a request that timed out unserved, a crashed event callback,
or an audit digest divergence — the interesting state is about to be
garbage-collected with the run.  The flight recorder snapshots it
first: the tail of the event log, the offending request's full trace,
the telemetry tail, and a context record, written as one bundle
directory per incident.

Bundles are named ``<seq>-<reason>`` (a per-run counter, not wall
clock) so repeated runs of the same failing scenario produce the same
file set.  Dumping is bounded by ``max_dumps`` — a run failing ten
thousand requests should not write ten thousand bundles.

The recorder only *reads* simulator state and writes to the host
filesystem, so an armed recorder that never fires is invisible to the
determinism digests; one that does fire still only observes.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

__all__ = ["FlightRecorder"]


class FlightRecorder:
    """Dumps incident bundles into a directory tree.

    Parameters
    ----------
    bundle_dir:
        Root directory; each incident becomes a subdirectory.
    eventlog, tracer:
        Optional live sources; whichever are present are included in
        every bundle.
    telemetry:
        Optional list of the ``(t, values)`` rows published so far
        (:attr:`~repro.obs.telemetry.TelemetrySampler.rows`); its last
        50 go into every bundle.
    last_events:
        Event-log tail length per bundle.
    max_dumps:
        Incident cap for the run (further triggers are counted but
        not written).
    """

    def __init__(
        self,
        bundle_dir: Union[str, Path],
        eventlog=None,
        tracer=None,
        telemetry=None,
        last_events: int = 200,
        max_dumps: int = 5,
    ):
        # last_events=0 would slice list(log)[-0:] — the whole log.
        if last_events <= 0:
            raise ValueError(f"last_events must be positive, got {last_events}")
        if max_dumps <= 0:
            raise ValueError(f"max_dumps must be positive, got {max_dumps}")
        self.bundle_dir = Path(bundle_dir)
        self.eventlog = eventlog
        self.tracer = tracer
        self.telemetry = telemetry
        self.last_events = last_events
        self.max_dumps = max_dumps
        self.dumps_written: List[Path] = []
        #: Manifest dicts of the written bundles, in write order (the
        #: in-memory mirror of each bundle's ``manifest.json``).
        self.manifests: List[Dict[str, Any]] = []
        self.triggers = 0

    def dump(
        self,
        reason: str,
        context: Optional[Dict[str, Any]] = None,
        trace=None,
        sim_time: Optional[float] = None,
    ) -> Optional[Path]:
        """Write one incident bundle; returns its path (None if capped).

        ``trace`` is the offending request's :class:`~repro.obs.tracer.Trace`
        when the caller has one; otherwise the bundle still carries the
        event-log and telemetry tails.
        """
        self.triggers += 1
        if len(self.dumps_written) >= self.max_dumps:
            return None
        slug = "".join(
            c if c.isalnum() or c in "-_" else "-" for c in reason
        ).strip("-") or "incident"
        bundle = self.bundle_dir / f"{len(self.dumps_written):03d}-{slug}"
        bundle.mkdir(parents=True, exist_ok=True)

        manifest: Dict[str, Any] = {
            "reason": reason,
            "sim_time": sim_time,
            "context": context or {},
            "contents": [],
        }

        if self.eventlog is not None:
            events = list(self.eventlog)[-self.last_events:]
            with open(bundle / "events.jsonl", "w", encoding="utf-8") as fh:
                for event in events:
                    fh.write(json.dumps(
                        {"time": event.time, "kind": event.kind,
                         "fields": event.fields},
                        sort_keys=True, default=repr))
                    fh.write("\n")
            manifest["contents"].append("events.jsonl")
            manifest["eventlog_dropped"] = self.eventlog.dropped

        if trace is not None:
            with open(bundle / "trace.json", "w", encoding="utf-8") as fh:
                json.dump(trace.to_dict(), fh, indent=2, sort_keys=True,
                          default=repr)
            manifest["contents"].append("trace.json")

        if self.telemetry:
            tail = [{"t": t, **values} for t, values in self.telemetry[-50:]]
            with open(bundle / "telemetry_tail.json", "w",
                      encoding="utf-8") as fh:
                json.dump(tail, fh, indent=2)
            manifest["contents"].append("telemetry_tail.json")

        with open(bundle / "manifest.json", "w", encoding="utf-8") as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True, default=repr)

        manifest["bundle"] = str(bundle)
        self.manifests.append(manifest)
        self.dumps_written.append(bundle)
        return bundle

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"FlightRecorder(dir={str(self.bundle_dir)!r}, "
            f"dumps={len(self.dumps_written)}, triggers={self.triggers})"
        )
