"""Crash containment for PoolRunner (hostile worker suite).

The pool must treat each worker failure class — an exception, a
SIGKILLed worker, a job overrunning the pool's timeout — as *that
job's* failure: the pool keeps serving every other job, and a later resume
pass retries exactly the failed ones.
"""

from dataclasses import replace

import pytest

from repro.config import SimulationConfig
from repro.experiments.orchestrator import (
    PoolRunner,
    RunGraph,
    execute_graph,
    replay_journal,
)

MINI = SimulationConfig(
    n_nodes=10, width=400.0, height=400.0, n_regions=4,
    duration=30.0, warmup=5.0, n_items=20, t_request=5.0,
    consistency="none",
)

ENTRIES = "tests.orchestrator_entries"

#: Failure class -> (entry point, expected status, flaky retry entry).
FAILURE_MODES = {
    "raise": (f"{ENTRIES}:raising_entry", "failed",
              f"{ENTRIES}:flaky_raising_entry"),
    "sigkill": (f"{ENTRIES}:sigkill_entry", "crashed",
                f"{ENTRIES}:flaky_sigkill_entry"),
    "timeout": (f"{ENTRIES}:sleeping_entry", "timeout",
                f"{ENTRIES}:flaky_sleeping_entry"),
}


def pool(processes=2, timeout=1.0):
    """A pool whose runner-wide timeout catches the hung entries."""
    return PoolRunner(processes, timeout)


def hostile_graph(entry):
    """Two healthy jobs sandwiching one hostile job."""
    graph = RunGraph()
    graph.add("ok-1", replace(MINI, seed=1), entry=f"{ENTRIES}:tiny_report")
    graph.add("bad", replace(MINI, seed=2), entry=entry)
    graph.add("ok-2", replace(MINI, seed=3), entry=f"{ENTRIES}:tiny_report")
    return graph


@pytest.mark.parametrize("mode", sorted(FAILURE_MODES))
def test_failure_contained_to_one_job(tmp_path, mode):
    entry, expected_status, _ = FAILURE_MODES[mode]
    summary = execute_graph(hostile_graph(entry), pool(), tmp_path)

    assert summary.statuses["bad"] == expected_status
    assert summary.statuses["ok-1"] == "done"
    assert summary.statuses["ok-2"] == "done"
    assert "bad" in summary.errors and not summary.ok


@pytest.mark.parametrize("mode", sorted(FAILURE_MODES))
def test_failed_job_retried_on_resume(tmp_path, mode):
    _, expected_status, flaky_entry = FAILURE_MODES[mode]
    graph = hostile_graph(flaky_entry)
    first = execute_graph(graph, pool(), tmp_path)
    assert first.statuses["bad"] == expected_status
    assert first.n_done == 2

    second = execute_graph(graph, pool(), tmp_path)
    assert second.ok
    assert second.statuses == {"ok-1": "reused", "bad": "done",
                               "ok-2": "reused"}
    state = replay_journal(tmp_path / "journal.jsonl")
    assert state.event_count("start", "bad") == 2
    assert state.event_count("start", "ok-1") == 1
    assert state.event_count("start", "ok-2") == 1


def test_all_three_failure_classes_in_one_pool(tmp_path):
    """One pass over every hostile class at once: each contained."""
    graph = RunGraph()
    graph.add("ok", replace(MINI, seed=1), entry=f"{ENTRIES}:tiny_report")
    graph.add("raises", replace(MINI, seed=2),
              entry=FAILURE_MODES["raise"][0])
    graph.add("dies", replace(MINI, seed=3),
              entry=FAILURE_MODES["sigkill"][0])
    graph.add("hangs", replace(MINI, seed=4),
              entry=FAILURE_MODES["timeout"][0])
    summary = execute_graph(graph, pool(processes=4), tmp_path)
    assert summary.statuses == {
        "ok": "done",
        "raises": "failed",
        "dies": "crashed",
        "hangs": "timeout",
    }


def test_pool_default_timeout_applies(tmp_path):
    graph = RunGraph()
    graph.add("hangs", replace(MINI, seed=1),
              entry=FAILURE_MODES["timeout"][0])
    summary = execute_graph(graph, pool(), tmp_path)
    assert summary.statuses == {"hangs": "timeout"}
    assert "timeout of 1" in summary.errors["hangs"]


def test_pool_runs_real_simulations(tmp_path):
    """End-to-end: actual PReCinCt cells through the pool runner."""
    graph = RunGraph.grid(MINI, seed=[1, 2])
    summary = execute_graph(graph, pool(timeout=None), tmp_path)
    assert summary.ok and summary.n_done == 2
    for report in summary.reports.values():
        assert report.requests_issued > 0


def test_pool_rejects_bad_parameters():
    with pytest.raises(ValueError):
        PoolRunner(processes=0)
    with pytest.raises(ValueError):
        PoolRunner(timeout=-1.0)
