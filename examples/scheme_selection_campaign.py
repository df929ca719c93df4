#!/usr/bin/env python
"""Scenario: choosing a deployment configuration with a campaign.

A team adopting PReCinCt for a logistics yard (forklifts + handhelds
sharing manifests) needs to pick a consistency scheme and cache budget.
This example runs the decision matrix as a *campaign*: every cell is
one job of a run-graph (simulated in parallel across CPU cores), the
journaled artifact tree under ``results/`` makes re-runs compute only
what's missing, and the final comparison table ranks the candidates.

Run:
    python examples/scheme_selection_campaign.py
    python examples/scheme_selection_campaign.py   # instant: resumes
"""

from dataclasses import replace

from repro import SimulationConfig
from repro.analysis.compare import compare_reports
from repro.experiments.orchestrator import RunGraph, run_graph

BASE = SimulationConfig(
    n_nodes=48,
    width=900.0,
    height=900.0,
    max_speed=4.0,             # yard vehicles
    n_regions=9,
    n_items=400,
    t_request=25.0,
    t_update=75.0,             # manifests change occasionally
    duration=500.0,
    warmup=100.0,
    seed=8,
)

CANDIDATES = [
    ("pwap-1pct", dict(consistency="push-adaptive-pull", cache_fraction=0.01)),
    ("pwap-4pct", dict(consistency="push-adaptive-pull", cache_fraction=0.04)),
    ("pull-4pct", dict(consistency="pull-every-time", cache_fraction=0.04)),
    ("plain-4pct", dict(consistency="plain-push", cache_fraction=0.04)),
    ("pwap-4pct+digest", dict(
        consistency="push-adaptive-pull", cache_fraction=0.04,
        enable_digest=True,
    )),
]


def main() -> None:
    graph = RunGraph()
    for label, overrides in CANDIDATES:
        graph.add(label, replace(BASE, **overrides))

    # processes=None = one worker per CPU core; finished cells found in
    # results/scheme-selection are digest-verified and reused.
    reports = run_graph(graph, processes=None, root="results/scheme-selection")

    labels = graph.job_ids
    print(compare_reports([reports[l] for l in labels], labels=labels, baseline=0))
    print(
        "\nHow to read it: Pull-Every-time buys FHR=0 with the highest"
        "\nlatency; Plain-Push floods the radio; Push-with-Adaptive-Pull"
        "\nplus digests is the balanced pick for this workload."
    )


if __name__ == "__main__":
    main()
