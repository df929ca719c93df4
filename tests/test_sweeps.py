"""Parallel parameter sweeps: ``RunGraph.grid`` + ``run_graph``."""

from dataclasses import replace

import pytest

from repro import PReCinCtNetwork
from repro.config import SimulationConfig
from repro.experiments.orchestrator import RunGraph, run_graph
from repro.faults.audit import report_digest
from repro.faults.plan import FaultPlan


BASE = SimulationConfig(
    n_nodes=20,
    width=700.0,
    height=700.0,
    duration=100.0,
    warmup=20.0,
    n_items=80,
)


def digests(reports):
    return {job: report_digest(report) for job, report in reports.items()}


class TestSweepGrid:
    def test_cartesian_product(self):
        graph = RunGraph.grid(BASE, cache_fraction=[0.01, 0.02], seed=[1, 2, 3])
        assert len(graph) == 6
        assert {s.config.cache_fraction for s in graph} == {0.01, 0.02}
        assert {s.config.seed for s in graph} == {1, 2, 3}

    def test_no_axes_returns_base(self):
        assert [s.config for s in RunGraph.grid(BASE)] == [BASE]

    def test_invalid_field_rejected(self):
        with pytest.raises(TypeError):
            RunGraph.grid(BASE, not_a_field=[1])

    def test_validation_still_applies(self):
        with pytest.raises(ValueError):
            RunGraph.grid(BASE, cache_fraction=[2.0])


class TestRunSweep:
    def test_serial_execution(self):
        reports = run_graph(RunGraph.grid(BASE, seed=[1, 2]), processes=1)
        assert sorted(reports) == ["s1", "s2"]
        for report in reports.values():
            assert report.requests_served > 0

    def test_results_in_submission_order(self):
        """Reports are keyed by job, whatever order the pool finishes in:
        each one is exactly its own cell's run."""
        reports = run_graph(RunGraph.grid(BASE, seed=[5, 6, 7]), processes=2)
        assert list(sorted(reports)) == ["s5", "s6", "s7"]
        for seed in (5, 6, 7):
            alone = PReCinCtNetwork(replace(BASE, seed=seed)).run()
            assert report_digest(reports[f"s{seed}"]) == report_digest(alone)

    def test_parallel_matches_serial(self):
        graph = RunGraph.grid(BASE, seed=[1, 2])
        assert digests(run_graph(graph, processes=2)) == digests(
            run_graph(graph, processes=1)
        )


class TestFaultSweep:
    """A grid crossed with fault plans is a plain ``graph.add`` loop."""

    PLANS = [None, FaultPlan.parse(["drop:p=0.3,start=30"])]

    def graph(self, plans, seeds):
        graph = RunGraph()
        for i, plan in enumerate(plans):
            for seed in seeds:
                graph.add(
                    f"plan{i}_s{seed}",
                    replace(BASE, fault_plan=plan, seed=seed),
                )
        return graph

    def test_crosses_plans_with_grid(self):
        graph = self.graph(self.PLANS, seeds=(1, 2))
        assert [(s.config.fault_plan, s.config.seed) for s in graph] == [
            (None, 1), (None, 2), (self.PLANS[1], 1), (self.PLANS[1], 2),
        ]
        reports = run_graph(graph)
        assert sorted(reports) == graph.job_ids
        for report in reports.values():
            assert report.requests_issued > 0

    def test_faulted_cells_degrade_hit_delivery(self):
        reports = run_graph(self.graph(self.PLANS, seeds=(1,)))
        # A 30 % drop rate must lose at least some deliveries relative
        # to the control run of the same seed.
        assert (
            reports["plan1_s1"].requests_served
            <= reports["plan0_s1"].requests_served
        )

    def test_faulted_cells_pickle_into_process_pool(self):
        """A config carrying a (frozen) fault plan crosses the pool's
        process boundary and comes back equal to the in-process run."""
        graph = self.graph([self.PLANS[1]], seeds=(1, 2))
        pooled = run_graph(graph, processes=2)
        assert len(pooled) == 2
        assert digests(pooled) == digests(run_graph(graph, processes=1))
        for report in pooled.values():
            assert report.requests_issued > 0
