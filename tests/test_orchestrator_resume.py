"""Crash-and-resume equivalence (satellite: property + kill tests).

The orchestrator's core guarantee: for any interrupt point and any
runner, ``resume(interrupt(campaign))`` is indistinguishable from a
campaign that was never interrupted — identical report digests,
identical report sets, and no job executed twice (provable from the
journal's per-job ``start`` counts).
"""

import os
import signal
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import SimulationConfig
from repro.faults.audit import report_digest

from repro.experiments.orchestrator import (
    InProcessRunner,
    RunGraph,
    definition_graph,
    execute_graph,
    load_definition,
    make_runner,
    replay_journal,
)

MINI = SimulationConfig(
    n_nodes=10, width=400.0, height=400.0, n_regions=4,
    duration=30.0, warmup=5.0, n_items=20, t_request=5.0,
    consistency="none",
)

TINY = "tests.orchestrator_entries:tiny_report"

N_JOBS = 4


def dyadic_graph():
    """The property test's 2 × 2 mini-scenario grid."""
    return RunGraph.grid(
        MINI, entry=TINY, replacement_policy=["gd-ld", "gd-size"],
        seed=[1, 2],
    )


def runner_of(kind):
    return make_runner(1 if kind == "inprocess" else 2)


@pytest.fixture(scope="module")
def fresh_baseline(tmp_path_factory):
    """Digests + reports of the never-interrupted campaign (runner-
    independent: jobs are deterministic functions of their specs)."""
    root = tmp_path_factory.mktemp("fresh")
    summary = execute_graph(dyadic_graph(), InProcessRunner(), root)
    assert summary.ok
    return summary


@settings(max_examples=10, deadline=None)
@given(
    interrupt_at=st.integers(min_value=0, max_value=N_JOBS),
    runner_kind=st.sampled_from(["inprocess", "pool"]),
)
def test_resume_equals_fresh(tmp_path_factory, fresh_baseline,
                             interrupt_at, runner_kind):
    root = tmp_path_factory.mktemp(f"int{interrupt_at}-{runner_kind}")
    graph = dyadic_graph()

    first = execute_graph(
        graph, runner_of(runner_kind), root, max_jobs=interrupt_at
    )
    assert first.interrupted == (interrupt_at < N_JOBS)
    assert first.n_done == interrupt_at

    resumed = execute_graph(graph, runner_of(runner_kind), root)
    assert resumed.ok
    # Identical digests and identical report set (NaN-safe: reports
    # are compared through their content digests, not float ==).
    assert resumed.report_digests == fresh_baseline.report_digests
    assert {
        job_id: report_digest(r) for job_id, r in resumed.reports.items()
    } == {
        job_id: report_digest(r)
        for job_id, r in fresh_baseline.reports.items()
    }
    # ...and no job executed twice, straight from the journal.
    state = replay_journal(root / "journal.jsonl")
    assert state.event_count("start") == N_JOBS
    for job_id in graph.job_ids:
        assert state.event_count("start", job_id) == 1


def test_double_interrupt_still_converges(tmp_path):
    """Interrupt twice at different points; the end state is the same."""
    graph = dyadic_graph()
    execute_graph(graph, InProcessRunner(), tmp_path, max_jobs=1)
    execute_graph(graph, InProcessRunner(), tmp_path, max_jobs=2)
    final = execute_graph(graph, InProcessRunner(), tmp_path)
    assert final.ok
    assert final.n_reused == 3 and final.n_done == 1
    state = replay_journal(tmp_path / "journal.jsonl")
    assert state.event_count("start") == N_JOBS


def test_sigkilled_campaign_resumes_bit_identical(tmp_path):
    """A real SIGKILL mid-campaign: resume must equal a straight run.

    Launches ``repro campaign run`` (mini preset, pool runner) as a
    subprocess, SIGKILLs it mid-flight, then resumes in-process and
    compares digests against an uninterrupted campaign of the same
    graph.  Jobs whose artifacts were committed before the kill must be
    reused, not re-executed.
    """
    killed_root = tmp_path / "killed"
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "campaign", "run",
         str(killed_root), "--seeds", "1", "--processes", "2"],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    # Let it get some (usually not all) jobs committed, then kill -9.
    deadline = time.monotonic() + 30.0
    journal = killed_root / "journal.jsonl"
    while time.monotonic() < deadline and proc.poll() is None:
        if journal.exists() and replay_journal(journal).event_count("start"):
            break
        time.sleep(0.02)
    time.sleep(0.3)
    if proc.poll() is None:
        proc.send_signal(signal.SIGKILL)
    proc.wait(timeout=30.0)
    assert journal.exists(), "campaign never started before the kill"

    committed_before_kill = [
        job_id
        for job_id, state in replay_journal(journal).job_state.items()
        if state == "done"
    ]

    definition = load_definition(killed_root)
    assert definition is not None
    graph = definition_graph(definition)
    resumed = execute_graph(graph, InProcessRunner(), killed_root)
    assert resumed.ok

    straight_root = tmp_path / "straight"
    straight = execute_graph(graph, InProcessRunner(), straight_root)
    assert straight.ok
    assert resumed.report_digests == straight.report_digests
    assert {
        job_id: report_digest(r) for job_id, r in resumed.reports.items()
    } == {
        job_id: report_digest(r) for job_id, r in straight.reports.items()
    }

    # Artifacts committed before the kill were verified and reused.
    state = replay_journal(journal)
    for job_id in committed_before_kill:
        assert state.event_count("start", job_id) == 1
        assert resumed.statuses[job_id] == "reused"


def test_resume_with_store_less_graph_changes(tmp_path):
    """Adding jobs to a graph resumes: old artifacts reused, new run."""
    small = RunGraph.grid(MINI, entry=TINY, seed=[1, 2])
    execute_graph(small, InProcessRunner(), tmp_path)

    grown = RunGraph.grid(MINI, entry=TINY, seed=[1, 2, 3])
    summary = execute_graph(grown, InProcessRunner(), tmp_path)
    assert summary.ok
    assert summary.statuses["s1"] == "reused"
    assert summary.statuses["s2"] == "reused"
    assert summary.statuses["s3"] == "done"
