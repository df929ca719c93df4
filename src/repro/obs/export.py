"""Shared path handling and JSONL I/O for every observer exporter.

Tracer, TelemetryTable, EnergyLedger, and FlightRecorder all speak the
same ``to_jsonl`` (read back by ``from_jsonl``, or for traces by
:func:`repro.obs.tracediff.load_traces`); the path normalization they need
(expand ``~``, create missing parent directories, reject directories
with a clear error instead of failing inside ``open``) lives here once
instead of being copied into each exporter.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, Iterable, List

__all__ = ["export_path", "write_jsonl", "read_jsonl"]


def export_path(path) -> Path:
    """Normalize an export target: expand ``~``, create parents.

    Accepts str or ``os.PathLike``; a bare filename resolves against
    the working directory.  Rejects directories early with a clear
    error instead of failing inside ``open``.
    """
    out = Path(path).expanduser()
    if out.is_dir():
        raise IsADirectoryError(f"export path is a directory: {out}")
    out.parent.mkdir(parents=True, exist_ok=True)
    return out


def write_jsonl(path, records: Iterable[Dict[str, Any]]) -> int:
    """Write one JSON object per record; returns the record count.

    Zero records produce a valid empty file (an empty export still
    round-trips and diffs cleanly against any other).
    """
    n = 0
    with open(export_path(path), "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record, sort_keys=True, default=repr))
            fh.write("\n")
            n += 1
    return n


def read_jsonl(path) -> List[Dict[str, Any]]:
    """Read a JSONL export back as a list of dicts.

    Blank lines are skipped; a non-object line raises ``ValueError``
    naming the offending ``path:lineno``.
    """
    src = Path(path).expanduser()
    records: List[Dict[str, Any]] = []
    with open(src, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            record = json.loads(line)
            if not isinstance(record, dict):
                raise ValueError(
                    f"{src}:{lineno}: not a JSON object record"
                )
            records.append(record)
    return records
