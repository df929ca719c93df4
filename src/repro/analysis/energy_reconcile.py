"""Reconcile simulated per-request energy against eqs. 11/12-13.

The paper's quantitative claim is closed-form: flooding costs eq. 11
per request, PReCinCt costs eqs. 12-13.  The simulator books the same
Feeney per-message costs (eqs. 3-10) message by message, so the two
must agree — within the slack the analysis itself leaves open (the
``I`` hop-count estimate, the ζ density cap, boundary effects) — when
the simulation is run under the analysis's own assumptions:

* **no caching** — every request escalates to the home region, the
  eq. 12-13 request path (``I`` hops in, one region flood, ``I`` hops
  back);
* **no consistency traffic** — eqs. 11-13 model request energy only.

:func:`reconcile_energy` runs a scenario under exactly those settings
with span-level energy attribution on, divides the attributed
request + response energy by the number of requests issued, and
compares against :meth:`TheoreticalModel.precinct_energy` with a
tolerance verdict.  ``repro energy`` is the CLI face.

The default tolerance is deliberately loose (|ratio − 1| ≤ 0.5): the
closed form is a mean-field estimate — it assumes uniform node
density, straight-line ``I``-hop routes, and exactly one region flood
per request — while the simulation has mobility, perimeter detours,
duplicate-suppressed floods, and failed requests.  The verdict guards
against order-of-magnitude drift (a broken energy model or a
double-charged path), not against the closed form's own approximation
error.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Dict

from repro.analysis.theoretical import TheoreticalModel
from repro.core.messages import CONTROL_BYTES

__all__ = ["EnergyReconciliation", "reconcile_energy"]


@dataclass
class EnergyReconciliation:
    """Simulated vs. analytical per-request energy, with a verdict."""

    scenario: str
    seed: int
    n_nodes: int
    n_regions: int
    requests_issued: int
    #: Attributed request + response energy per issued request (uJ).
    simulated_uj: float
    #: eq. 13 per-request prediction (uJ).
    precinct_uj: float
    #: eq. 11 per-request flooding prediction (uJ) — context: what the
    #: same workload would cost without region hashing.
    flooding_uj: float
    tolerance: float
    #: Attributed energy per span kind and per request phase (uJ) —
    #: the span-level view behind the headline number.
    by_span: Dict[str, float] = field(default_factory=dict)
    by_phase: Dict[str, float] = field(default_factory=dict)

    @property
    def ratio(self) -> float:
        """simulated / analytical (eq. 13); 1.0 = perfect agreement."""
        return self.simulated_uj / self.precinct_uj if self.precinct_uj else 0.0

    @property
    def passed(self) -> bool:
        return abs(self.ratio - 1.0) <= self.tolerance

    def to_dict(self) -> Dict[str, Any]:
        return {
            "scenario": self.scenario,
            "seed": self.seed,
            "n_nodes": self.n_nodes,
            "n_regions": self.n_regions,
            "requests_issued": self.requests_issued,
            "simulated_uj_per_request": self.simulated_uj,
            "precinct_uj_per_request": self.precinct_uj,
            "flooding_uj_per_request": self.flooding_uj,
            "ratio": self.ratio,
            "tolerance": self.tolerance,
            "verdict": "PASS" if self.passed else "FAIL",
            "by_span_uj": dict(self.by_span),
            "by_phase_uj": dict(self.by_phase),
        }

    def render(self) -> str:
        lines = [
            f"energy reconciliation: scenario {self.scenario!r} seed "
            f"{self.seed} ({self.n_nodes} nodes, {self.n_regions} regions, "
            f"{self.requests_issued} requests)",
            f"  simulated   {self.simulated_uj / 1000.0:10.2f} mJ/request "
            f"(attributed request + response energy)",
            f"  eq. 12-13   {self.precinct_uj / 1000.0:10.2f} mJ/request "
            f"(PReCinCt closed form)",
            f"  eq. 11      {self.flooding_uj / 1000.0:10.2f} mJ/request "
            f"(flooding closed form, context)",
            f"  ratio       {self.ratio:10.3f}  "
            f"(tolerance |ratio-1| <= {self.tolerance:g})",
        ]
        if self.by_span:
            lines.append("  per span kind:")
            for kind, uj in self.by_span.items():
                lines.append(f"    {kind:<20} {uj / 1000.0:12.2f} mJ")
        if self.by_phase:
            lines.append("  per request phase:")
            for phase, uj in self.by_phase.items():
                lines.append(f"    {phase:<20} {uj / 1000.0:12.2f} mJ")
        lines.append(
            f"  verdict     {'PASS' if self.passed else 'FAIL'}"
        )
        return "\n".join(lines)


def reconcile_energy(
    scenario: str = "baseline",
    seed: int = 42,
    tolerance: float = 0.5,
) -> EnergyReconciliation:
    """Run ``scenario`` under the analysis's assumptions and compare.

    The scenario config is re-run with caching and consistency traffic
    disabled (the eq. 12-13 setting) and span-level energy attribution
    enabled; the simulated per-request energy is the attributed
    ``request`` + ``response`` component energy divided by requests
    issued after warm-up.
    """
    from repro.core.network import PReCinCtNetwork
    from repro.faults.audit import SCENARIOS, canonical_scenario_name
    from repro.obs.observers import Observers

    if tolerance < 0:
        raise ValueError(f"tolerance must be non-negative, got {tolerance}")
    try:
        factory = SCENARIOS[scenario]
    except KeyError:
        raise ValueError(
            f"unknown scenario {scenario!r} "
            f"(expected one of {sorted(SCENARIOS)})"
        ) from None
    cfg = replace(
        factory(seed),
        enable_cache=False,
        consistency="none",
        t_update=None,
    )
    # Tracing rides along so the charges land on request phases too
    # (the per-phase joules the report carries next to the verdict).
    observers = Observers(energy_attribution=True, tracing=True)
    net = PReCinCtNetwork(cfg, observers=observers)
    net.run()

    attributor = observers.energy
    by_component = attributor.by_component_modeled()
    requests = net.metrics.requests_issued
    simulated_total = by_component.get("request", 0.0) + by_component.get(
        "response", 0.0
    )
    simulated = simulated_total / requests if requests else 0.0

    # Eq. 13 is parametric in message sizes; feed it the *realized*
    # ones: on-air sizes include the radio header, and the mean served
    # item size is popularity-weighted (Zipf), not the uniform mean.
    from repro.net.packet import HEADER_BYTES

    metrics = net.metrics
    if metrics.requests_served:
        mean_item = metrics.bytes_served / metrics.requests_served
    else:
        mean_item = (cfg.min_item_bytes + cfg.max_item_bytes) / 2.0
    model = TheoreticalModel(
        area_side=cfg.width,
        range_m=cfg.range_m,
        request_bytes=CONTROL_BYTES + HEADER_BYTES,
        response_bytes=CONTROL_BYTES + mean_item + HEADER_BYTES,
        params=net.network.energy.params,
    )
    return EnergyReconciliation(
        scenario=canonical_scenario_name(scenario),
        seed=seed,
        n_nodes=cfg.n_nodes,
        n_regions=cfg.n_regions,
        requests_issued=requests,
        simulated_uj=simulated,
        precinct_uj=model.precinct_energy(cfg.n_nodes, cfg.n_regions),
        flooding_uj=model.flooding_energy(cfg.n_nodes),
        tolerance=tolerance,
        by_span=attributor.by_span(),
        by_phase=attributor.by_phase(),
    )
