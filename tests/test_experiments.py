"""Tests for the experiment drivers (repro.experiments)."""

import math
from dataclasses import replace

import pytest

from repro import PReCinCtNetwork
from repro.config import SimulationConfig
from repro.experiments import (
    run_fig4_fig5,
    run_fig6_fig7_fig8,
    run_fig9a,
    run_fig9b,
)
from repro.experiments.figures import (
    QUICK_SCALE,
    fig4_fig5_graph,
    fig6_fig7_fig8_graph,
    format_cache_sweep,
    format_consistency_sweep,
    format_energy_points,
)
from repro.experiments.orchestrator import build_preset
from repro.experiments.runner import average_reports
from repro.faults.audit import report_digest

QUICK = dict(duration=200.0, warmup=40.0, seeds=(1,), n_items=200)


class TestRunner:
    def test_average_reports_ratio_math(self):
        cfg = SimulationConfig(
            n_nodes=24, width=800, height=800, duration=120.0, warmup=20.0, n_items=100
        )
        r1 = PReCinCtNetwork(cfg).run()
        merged = average_reports([r1, r1], "m")
        assert merged.average_latency == pytest.approx(r1.average_latency)
        assert merged.energy_per_request_mj == pytest.approx(
            r1.energy_per_request_mj
        )
        # Counters — the per-category ``extra`` map included — are
        # summed key-wise, over the union of keys.
        assert r1.extra["sent.request"] > 0
        assert merged.extra == {k: 2 * v for k, v in r1.extra.items()}
        r2 = replace(r1, extra={"sent.request": 1.0, "only.here": 3.0})
        merged = average_reports([r1, r2], "m")
        assert merged.extra["sent.request"] == r1.extra["sent.request"] + 1.0
        assert merged.extra["only.here"] == 3.0
        assert merged.extra["sent.response"] == r1.extra["sent.response"]

    def test_average_reports_empty_rejected(self):
        with pytest.raises(ValueError):
            average_reports([], "x")


class TestFigureDrivers:
    def test_fig4_5_structure(self):
        pts = run_fig4_fig5(
            cache_fractions=(0.01, 0.02), policies=("gd-ld",), n_nodes=24, **QUICK
        )
        assert len(pts) == 2
        for p in pts:
            assert p.policy == "gd-ld"
            assert p.latency > 0
            assert 0 <= p.byte_hit_ratio <= 1
        out = format_cache_sweep(pts)
        assert "gd-ld" in out and "byte-hit" in out

    def test_fig6_7_8_structure(self):
        pts = run_fig6_fig7_fig8(
            update_ratios=(1.0,), schemes=("push-adaptive-pull",), n_nodes=24, **QUICK
        )
        assert len(pts) == 1
        p = pts[0]
        assert p.overhead_messages > 0
        assert p.latency > 0
        out = format_consistency_sweep(pts)
        assert "push-adaptive-pull" in out

    def test_fig9a_structure(self):
        pts = run_fig9a(node_counts=(20,), duration=150.0, warmup=30.0, seeds=(1,), n_items=80)
        schemes = {p.scheme for p in pts}
        assert schemes == {"precinct", "flooding"}
        for p in pts:
            assert p.simulated_mj > 0 or math.isnan(p.simulated_mj)
            assert p.theoretical_mj > 0
        out = format_energy_points(pts, "nodes")
        assert "flooding" in out

    def test_fig9b_structure(self):
        pts = run_fig9b(region_counts=(4, 9), duration=150.0, warmup=30.0, seeds=(1,), n_items=80)
        assert [p.x for p in pts] == [4, 9]
        # Theory says more regions -> less energy.
        assert pts[0].theoretical_mj >= pts[1].theoretical_mj


# ---------------------------------------------------------------------------
# Figure outputs are pinned: one graph per figure folds to exactly what
# the per-cell seed loops computed before the runners were merged.
# ---------------------------------------------------------------------------

#: ``report_digest`` of every averaged cell with ``extra`` cleared (the
#: values were recorded when ``average_reports`` still dropped ``extra``;
#: the fold of every other field is unchanged, ``extra`` is checked
#: against the per-seed sum in ``test_average_reports_ratio_math``).
PINNED_FIG4_5 = {
    ("gd-size", 0.05): "9ce622cffec51929609f7fe70f85409f0e24c85687290790250e12bad1de9bfa",
    ("gd-size", 0.1): "92864a24e47325a5f3a9de7a906771025446062179cf2738494aaf73b5a42eff",
    ("gd-ld", 0.05): "796a598cef0ec54099a4ac46a3a15dd6363293456f4d1dbb6b0db56ae39aed40",
    ("gd-ld", 0.1): "3ecd5e338f02657fefce03ab37f14548dd72420ef4ac4ea9c3b671bcce8b989b",
}
PINNED_FIG6_8 = {
    ("plain-push", 1.0): "622c5cef7bccc678f59eaec176da9c58a21e3b354bb408933c2c3aa2d87ab2d0",
    ("plain-push", 3.0): "25ccef52a06d8e4b45f00f6145d4887f5ab5726d559845d4564c29c616c54e32",
    ("pull-every-time", 1.0): "8a88dc369880a39a4d73572ab4e57832454d3bf29cc42e442cd671dfe04a86fc",
    ("pull-every-time", 3.0): "d44b10807ff8f274900245d2d6cc14c86b76193ca9b0a17a61cf298cf8f843a3",
    ("push-adaptive-pull", 1.0): "82832ab4b5bd066355f0f600a96f3c19dfc5222d51233044692db96da69f2edc",
    ("push-adaptive-pull", 3.0): "9d71d2655b565f28353da3e2319c09ed0ec27a2d93d0f9aca1225d151e55bf74",
}
#: (scheme, x, simulated_mj, theoretical_mj, simulated_total_mj)
PINNED_FIG9A = [
    ("precinct", 12, 34.59887266452046, 14.844534531896143, 51.30596358802003),
    ("flooding", 12, 37.33273765611411, 24.95981485721479, 53.525520721262374),
]
PINNED_FIG9B = [
    ("precinct", 4, 36.19081285072958, 15.97942342078503, 53.99760699854614),
    ("precinct", 9, 34.59887266452046, 14.844534531896143, 51.30596358802003),
]
TINY_ENERGY = dict(duration=90.0, warmup=15.0, seeds=(1, 2), n_items=60)


def _cell_digest(point) -> str:
    return report_digest(replace(point.report, extra={}))


def _energy_rows(points):
    return [
        (p.scheme, p.x, p.simulated_mj, p.theoretical_mj, p.simulated_total_mj)
        for p in points
    ]


@pytest.mark.parametrize("processes", [1, 2])
class TestFigureOutputsPinned:
    def test_fig4_5_cells(self, processes):
        points = run_fig4_fig5(
            cache_fractions=(0.05, 0.1), n_nodes=30, duration=300.0,
            warmup=50.0, seeds=(1, 2), n_items=60, processes=processes,
        )
        assert {
            (p.policy, p.cache_fraction): _cell_digest(p) for p in points
        } == PINNED_FIG4_5
        assert [(p.policy, p.cache_fraction) for p in points] == list(PINNED_FIG4_5)
        assert all(p.report.extra["sent.request"] > 0 for p in points)

    def test_fig6_7_8_cells(self, processes):
        points = run_fig6_fig7_fig8(
            update_ratios=(1.0, 3.0), n_nodes=20, duration=150.0,
            warmup=30.0, seeds=(1, 2), n_items=200, processes=processes,
        )
        assert {
            (p.scheme, p.update_ratio): _cell_digest(p) for p in points
        } == PINNED_FIG6_8
        assert [(p.scheme, p.update_ratio) for p in points] == list(PINNED_FIG6_8)

    def test_fig9_energy_points(self, processes):
        points = run_fig9a(node_counts=(12,), processes=processes, **TINY_ENERGY)
        assert _energy_rows(points) == PINNED_FIG9A
        points = run_fig9b(
            region_counts=(4, 9), n_nodes=12, processes=processes, **TINY_ENERGY
        )
        assert _energy_rows(points) == PINNED_FIG9B


@pytest.mark.parametrize(
    "preset, builder",
    [("cache-study", fig4_fig5_graph), ("consistency", fig6_fig7_fig8_graph)],
)
def test_presets_are_the_figure_grids_at_quick_scale(preset, builder):
    seeds = (3, 5)
    expected = builder(seeds=seeds, **QUICK_SCALE)
    assert build_preset(preset, seeds).to_dict() == expected.to_dict()
    assert len(expected) == len({spec.config for spec in expected})
    assert {spec.config.seed for spec in expected} == set(seeds)
    assert {spec.config.duration for spec in expected} == {500.0}
