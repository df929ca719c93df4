"""Saving and loading experiment results.

Campaigns produce lists of :class:`RunReport`; these helpers persist
them as JSON (lossless, nested) and load them back, so sweeps can be
analyzed without re-simulation.
"""

from __future__ import annotations

import json
from dataclasses import asdict
from pathlib import Path
from typing import Iterable, List, Union

from repro.analysis.metrics import RunReport

__all__ = ["reports_to_json", "reports_from_json"]

PathLike = Union[str, Path]


def reports_to_json(reports: Iterable[RunReport], path: PathLike) -> None:
    """Serialize reports to a JSON file (lossless round trip)."""
    payload = [asdict(report) for report in reports]
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True))


def reports_from_json(path: PathLike) -> List[RunReport]:
    """Load reports saved by :func:`reports_to_json`."""
    payload = json.loads(Path(path).read_text())
    if not isinstance(payload, list):
        raise ValueError(f"{path}: expected a JSON list of reports")
    reports = []
    for item in payload:
        served = item.get("served_by_class", {})
        item["served_by_class"] = {str(k): int(v) for k, v in served.items()}
        reports.append(RunReport(**item))
    return reports
