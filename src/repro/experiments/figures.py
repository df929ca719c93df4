"""Per-figure experiment drivers (paper §6).

Every figure's grid is defined once, as a :class:`RunGraph` builder
whose jobs are named ``<cell>_s<seed>``; ``run_fig*`` executes the
whole grid as one graph (``processes`` fans out over every job of it)
and averages each cell's seed replications.  The builders take scale
knobs (duration, seeds, sweep points) so the same code serves quick CI
benchmarks, the ``cache-study`` / ``consistency`` campaign presets and
full paper-scale regeneration.  Defaults reproduce the paper's
settings (§6.1): 80 nodes at 6 m/s for the cache-replacement
experiments, request/update Poisson with 30 s mean, 9 regions, and a
static 600 m plane for the theoretical validation.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.metrics import RunReport
from repro.analysis.theoretical import TheoreticalModel
from repro.config import SimulationConfig
from repro.core.messages import CONTROL_BYTES
from repro.experiments.orchestrator import JobSpec, RunGraph, run_graph
from repro.experiments.runner import average_reports

__all__ = [
    "CacheSweepPoint",
    "ConsistencySweepPoint",
    "EnergyPoint",
    "QUICK_SCALE",
    "fig4_fig5_graph",
    "fig6_fig7_fig8_graph",
    "run_fig4_fig5",
    "run_fig6_fig7_fig8",
    "run_fig9a",
    "run_fig9b",
    "run_flooding_energy",
    "run_precinct_energy",
    "format_cache_sweep",
    "format_consistency_sweep",
    "format_energy_points",
]

#: Run length of ``repro fig --quick`` for Figs. 4-8 and of the
#: ``cache-study`` / ``consistency`` campaign presets.
QUICK_SCALE = dict(duration=500.0, warmup=100.0)


def _run_cells(
    graph: RunGraph, processes: Optional[int]
) -> List[Tuple[JobSpec, RunReport]]:
    """Execute a whole grid as one graph and fold it per cell.

    Jobs are named ``<cell>_s<seed>``; the replications of a cell are
    averaged in graph (= seed) order.  Returns ``(the cell's first
    spec, averaged report)`` per cell, in graph order.
    """
    reports = run_graph(graph, processes=processes)
    cells: Dict[str, List[JobSpec]] = {}
    for spec in graph:
        cells.setdefault(spec.job_id.rpartition("_s")[0], []).append(spec)
    return [
        (specs[0], average_reports([reports[s.job_id] for s in specs], cell))
        for cell, specs in cells.items()
    ]


@dataclass(frozen=True)
class CacheSweepPoint:
    """One (policy, cache size) cell of Figs. 4-5."""

    policy: str
    cache_fraction: float
    latency: float
    byte_hit_ratio: float
    report: RunReport


@dataclass(frozen=True)
class ConsistencySweepPoint:
    """One (scheme, update ratio) cell of Figs. 6-8."""

    scheme: str
    update_ratio: float
    overhead_messages: float
    false_hit_ratio: float
    latency: float
    report: RunReport


@dataclass(frozen=True)
class EnergyPoint:
    """One x-position of Fig. 9 (both curves + theory).

    ``simulated_mj`` counts the energy categories the paper's analysis
    models (send + receive); ``simulated_total_mj`` additionally counts
    overheard-and-discarded point-to-point traffic, which eqs. 3-13
    ignore.  The theory-vs-simulation validation compares like with
    like, while the total is reported for completeness.
    """

    x: float  # node count (9a) or region count (9b)
    scheme: str  # "precinct" or "flooding"
    simulated_mj: float
    theoretical_mj: float
    simulated_total_mj: float = float("nan")


# ---------------------------------------------------------------------------
# Figs. 4-5: GD-LD vs GD-Size over cache size
# ---------------------------------------------------------------------------

def fig4_fig5_graph(
    cache_fractions: Sequence[float] = (0.005, 0.010, 0.015, 0.020, 0.025),
    policies: Sequence[str] = ("gd-size", "gd-ld"),
    n_nodes: int = 80,
    max_speed: float = 6.0,
    duration: float = 1500.0,
    warmup: float = 300.0,
    seeds: Sequence[int] = (1, 2, 3),
    n_items: int = 1000,
) -> RunGraph:
    """The Figs. 4-5 grid: policy × cache fraction × seed.

    Paper setup: 80 nodes at 6 m/s, cache capacity 0.5 %-2.5 % of the
    database size, read-only workload.
    """
    base = SimulationConfig(
        n_nodes=n_nodes,
        max_speed=max_speed,
        duration=duration,
        warmup=warmup,
        n_items=n_items,
        consistency="none",
    )
    graph = RunGraph()
    for policy, fraction, seed in itertools.product(
        policies, cache_fractions, seeds
    ):
        graph.add(
            f"{policy}_c{fraction:g}_s{seed}",
            replace(
                base,
                replacement_policy=policy,
                cache_fraction=fraction,
                seed=seed,
            ),
        )
    return graph


def run_fig4_fig5(
    processes: Optional[int] = 1, **grid
) -> List[CacheSweepPoint]:
    """Latency (Fig. 4) and byte hit ratio (Fig. 5) vs cache size, over
    the :func:`fig4_fig5_graph` grid (``grid`` are its arguments)."""
    return [
        CacheSweepPoint(
            policy=spec.config.replacement_policy,
            cache_fraction=spec.config.cache_fraction,
            latency=report.average_latency,
            byte_hit_ratio=report.byte_hit_ratio,
            report=report,
        )
        for spec, report in _run_cells(fig4_fig5_graph(**grid), processes)
    ]


def format_cache_sweep(points: List[CacheSweepPoint]) -> str:
    """Rows in the shape of Figs. 4-5: one line per (policy, size)."""
    lines = [
        f"{'policy':<10} {'cache%':>7} {'latency(s)':>11} {'byte-hit':>9}"
    ]
    for p in points:
        lines.append(
            f"{p.policy:<10} {100 * p.cache_fraction:>6.2f}% "
            f"{p.latency:>11.4f} {p.byte_hit_ratio:>9.4f}"
        )
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Figs. 6-8: consistency schemes over the update rate
# ---------------------------------------------------------------------------

def fig6_fig7_fig8_graph(
    update_ratios: Sequence[float] = (1.0, 2.0, 3.0, 4.0, 5.0),
    schemes: Sequence[str] = ("plain-push", "pull-every-time", "push-adaptive-pull"),
    n_nodes: int = 80,
    max_speed: float = 6.0,
    duration: float = 1500.0,
    warmup: float = 300.0,
    seeds: Sequence[int] = (1, 2, 3),
    n_items: int = 1000,
    t_request: float = 30.0,
) -> RunGraph:
    """The Figs. 6-8 grid: scheme × ``Tupdate / Trequest`` × seed.

    ``Trequest`` is fixed at 30 s; a ratio of 1 is the hottest update
    rate (paper §6.2.2).
    """
    base = SimulationConfig(
        n_nodes=n_nodes,
        max_speed=max_speed,
        duration=duration,
        warmup=warmup,
        n_items=n_items,
        t_request=t_request,
        cache_fraction=0.02,
    )
    graph = RunGraph()
    for scheme, ratio, seed in itertools.product(schemes, update_ratios, seeds):
        graph.add(
            f"{scheme}_r{ratio:g}_s{seed}",
            replace(
                base, consistency=scheme, t_update=t_request * ratio, seed=seed
            ),
        )
    return graph


def run_fig6_fig7_fig8(
    processes: Optional[int] = 1, **grid
) -> List[ConsistencySweepPoint]:
    """Control message overhead (Fig. 6), false hit ratio (Fig. 7) and
    latency (Fig. 8) vs ``Tupdate / Trequest``, over the
    :func:`fig6_fig7_fig8_graph` grid (``grid`` are its arguments)."""
    return [
        ConsistencySweepPoint(
            scheme=spec.config.consistency,
            update_ratio=spec.config.t_update / spec.config.t_request,
            overhead_messages=report.consistency_messages,
            false_hit_ratio=report.false_hit_ratio,
            latency=report.average_latency,
            report=report,
        )
        for spec, report in _run_cells(fig6_fig7_fig8_graph(**grid), processes)
    ]


def format_consistency_sweep(points: List[ConsistencySweepPoint]) -> str:
    lines = [
        f"{'scheme':<20} {'Tupd/Treq':>9} {'overhead':>10} {'FHR':>9} {'latency(s)':>11}"
    ]
    for p in points:
        lines.append(
            f"{p.scheme:<20} {p.update_ratio:>9.1f} {p.overhead_messages:>10.0f} "
            f"{p.false_hit_ratio:>9.6f} {p.latency:>11.4f}"
        )
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Fig. 9: theoretical validation on a static topology
# ---------------------------------------------------------------------------

def _theory(cfg: SimulationConfig) -> TheoreticalModel:
    mean_item = (cfg.min_item_bytes + cfg.max_item_bytes) / 2.0
    return TheoreticalModel(
        area_side=cfg.width,
        range_m=cfg.range_m,
        request_bytes=CONTROL_BYTES,
        response_bytes=CONTROL_BYTES + mean_item,
    )


def _with_energy_split(net, report: RunReport) -> RunReport:
    """Fold the run's energy ledger into ``report.extra``: the total,
    and the part the paper's closed-form analysis models (everything
    but the overheard-and-discarded category)."""
    by_cat = net.network.energy.total_by_category()
    extra = dict(report.extra)
    extra["energy.total_uj"] = sum(by_cat.values())
    extra["energy.modeled_uj"] = sum(
        v for k, v in by_cat.items() if k != "discard"
    )
    return replace(report, extra=extra)


def run_precinct_energy(cfg: SimulationConfig, artifact_dir: Path) -> RunReport:
    """Orchestrator entry: one PReCinCt run + its energy split."""
    from repro.core.network import PReCinCtNetwork

    net = PReCinCtNetwork(cfg)
    return _with_energy_split(net, net.run())


def run_flooding_energy(cfg: SimulationConfig, artifact_dir: Path) -> RunReport:
    """Orchestrator entry: one flooding-baseline run + its energy split."""
    from repro.baselines import FloodingConfig, FloodingRetrievalNetwork

    net = FloodingRetrievalNetwork(cfg, FloodingConfig())
    return _with_energy_split(net, net.run())


_ENERGY_ENTRY = {
    "precinct": "repro.experiments.figures:run_precinct_energy",
    "flooding": "repro.experiments.figures:run_flooding_energy",
}


def _energy_points(
    x_field: str,
    cells: Sequence[Tuple[str, int, int]],
    duration: float,
    warmup: float,
    seeds: Sequence[int],
    n_items: int,
    processes: Optional[int],
) -> List[EnergyPoint]:
    """Run ``(scheme, n_nodes, n_regions)`` cells × seeds in the §6.2.3
    setting (static 600 m x 600 m, no caching, no updates) and set each
    cell's simulated energy per served request beside the theory;
    ``x_field`` names the config field plotted on the x axis."""
    graph = RunGraph()
    for (scheme, n_nodes, n_regions), seed in itertools.product(cells, seeds):
        graph.add(
            f"{scheme}_n{n_nodes}_m{n_regions}_s{seed}",
            SimulationConfig(
                width=600.0,
                height=600.0,
                n_nodes=n_nodes,
                n_regions=n_regions,
                max_speed=None,
                enable_cache=False,
                consistency="none",
                duration=duration,
                warmup=warmup,
                n_items=n_items,
                seed=seed,
            ),
            entry=_ENERGY_ENTRY[scheme],
        )
    points: List[EnergyPoint] = []
    for spec, report in _run_cells(graph, processes):
        cfg = spec.config
        theory = _theory(cfg)
        flooding = spec.entry == _ENERGY_ENTRY["flooding"]
        # NaN energy per request when nothing was served.
        served = report.requests_served or float("nan")
        points.append(
            EnergyPoint(
                x=getattr(cfg, x_field),
                scheme="flooding" if flooding else "precinct",
                simulated_mj=report.extra["energy.modeled_uj"] / served / 1000.0,
                theoretical_mj=(
                    theory.flooding_energy_mj(cfg.n_nodes)
                    if flooding
                    else theory.precinct_energy_mj(cfg.n_nodes, cfg.n_regions)
                ),
                simulated_total_mj=(
                    report.extra["energy.total_uj"] / served / 1000.0
                ),
            )
        )
    return points


def run_fig9a(
    node_counts: Sequence[int] = (20, 40, 60, 80),
    n_regions: int = 9,
    duration: float = 1200.0,
    warmup: float = 200.0,
    seeds: Sequence[int] = (1, 2),
    n_items: int = 300,
    processes: Optional[int] = 1,
) -> List[EnergyPoint]:
    """Fig. 9(a): energy per request vs node count — flooding vs
    PReCinCt, simulation vs closed-form theory."""
    cells = [
        (scheme, n, n_regions)
        for n in node_counts
        for scheme in ("precinct", "flooding")
    ]
    return _energy_points(
        "n_nodes", cells, duration, warmup, seeds, n_items, processes
    )


def run_fig9b(
    region_counts: Sequence[int] = (4, 9, 16, 25),
    n_nodes: int = 20,
    duration: float = 1200.0,
    warmup: float = 200.0,
    seeds: Sequence[int] = (1, 2),
    n_items: int = 300,
    processes: Optional[int] = 1,
) -> List[EnergyPoint]:
    """Fig. 9(b): PReCinCt energy per request vs region count, 20 nodes."""
    cells = [("precinct", n_nodes, m) for m in region_counts]
    return _energy_points(
        "n_regions", cells, duration, warmup, seeds, n_items, processes
    )


def format_energy_points(points: List[EnergyPoint], x_name: str = "x") -> str:
    lines = [
        f"{'scheme':<10} {x_name:>8} {'sim(mJ)':>10} {'theory(mJ)':>11} "
        f"{'sim+overhear(mJ)':>17}"
    ]
    for p in points:
        lines.append(
            f"{p.scheme:<10} {p.x:>8.0f} {p.simulated_mj:>10.3f} "
            f"{p.theoretical_mj:>11.3f} {p.simulated_total_mj:>17.3f}"
        )
    return "\n".join(lines)
