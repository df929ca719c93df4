"""Shared path handling and JSONL writing for the observer exporters.

:meth:`~repro.obs.tracer.Tracer.to_jsonl` (read back by
:func:`repro.obs.tracediff.load_traces`) and the live telemetry sinks
(:mod:`repro.obs.stream`) need the same path normalization (expand
``~``, create missing parent directories, reject directories with a
clear error instead of failing inside ``open``); it lives here once.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, Iterable

__all__ = ["export_path", "write_jsonl"]


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
