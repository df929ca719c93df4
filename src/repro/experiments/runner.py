"""Folding the seed replications of one experiment cell."""

from __future__ import annotations

from typing import Dict, List

from repro.analysis.metrics import RunReport

__all__ = ["average_reports"]


def average_reports(reports: List[RunReport], label: str) -> RunReport:
    """Fold independent replications of one configuration into one report.

    Averaging across replications is how the paper's curves are
    produced; counters (``served_by_class`` and ``extra`` included) are
    summed key-wise, ratios and latencies averaged.
    """
    if not reports:
        raise ValueError("need at least one report to average")
    n = len(reports)

    def mean(attr: str) -> float:
        return sum(getattr(r, attr) for r in reports) / n

    def summed(attr: str) -> Dict:
        merged: Dict = {}
        for r in reports:
            for key, value in getattr(r, attr).items():
                merged[key] = merged.get(key, 0) + value
        return merged

    return RunReport(
        config_label=label,
        duration=reports[0].duration,
        requests_issued=int(sum(r.requests_issued for r in reports)),
        requests_served=int(sum(r.requests_served for r in reports)),
        requests_failed=int(sum(r.requests_failed for r in reports)),
        updates_issued=int(sum(r.updates_issued for r in reports)),
        average_latency=mean("average_latency"),
        byte_hit_ratio=mean("byte_hit_ratio"),
        false_hit_ratio=mean("false_hit_ratio"),
        consistency_messages=mean("consistency_messages"),
        total_messages=mean("total_messages"),
        energy_total_uj=mean("energy_total_uj") * n,  # keep per-request math exact
        served_by_class=summed("served_by_class"),
        extra=summed("extra"),
    )
