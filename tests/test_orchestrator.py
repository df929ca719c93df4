"""Tests for the campaign orchestrator (repro.experiments.orchestrator).

Covers the serializable job specs, the run-graph, the journal, atomic
artifact commits + digest verification, in-process execution with
resume/reuse, the one-call ``run_graph`` helper, and the
``repro campaign`` CLI.
"""

from dataclasses import fields, replace

import json

import pytest

from repro.cli import main
from repro.config import SimulationConfig
from repro.experiments.orchestrator import (
    InProcessRunner,
    JobSpec,
    PoolRunner,
    RunGraph,
    commit_artifact,
    config_from_dict,
    config_to_dict,
    execute_graph,
    execute_job,
    job_dir,
    make_runner,
    replay_journal,
    run_graph,
    slugify,
    spec_digest,
    verify_artifact,
)
from repro.experiments.orchestrator.journal import Journal
from repro.faults.plan import FaultPlan

#: A real but seconds-long simulation (used where the report matters).
MINI = SimulationConfig(
    n_nodes=10,
    width=400.0,
    height=400.0,
    n_regions=4,
    duration=30.0,
    warmup=5.0,
    n_items=20,
    t_request=5.0,
    consistency="none",
)

#: A synthetic instant entry (used where only mechanics matter).
TINY = "tests.orchestrator_entries:tiny_report"


def tiny_graph(n=3):
    graph = RunGraph()
    for i in range(n):
        graph.add(f"job-{i}", replace(MINI, seed=i + 1), entry=TINY)
    return graph


class TestSpec:
    def test_config_round_trip(self):
        # One non-default field from every section of the config.
        cfg = replace(
            MINI,
            width=900.0, range_m=200.0, idle_power_mw=900.0,
            mobility_model="group", pause_time=2.0,
            churn_uptime=300.0, churn_downtime=30.0,
            min_item_bytes=512.0,
            t_update=40.0, popularity_shift_at=30.0,
            cache_fraction=0.02, gdld_wd=0.5, static_capacity_fraction=0.1,
            consistency="push-adaptive-pull", ttr_alpha=0.25,
            enable_replication=False,
            gpsr_beacon_interval=1.0, poll_timeout=2.0,
            enable_prefetch=True, prefetch_interval=15.0,
            enable_digest=True, digest_interval=10.0,
            enable_event_log=True,
            resilience=True, resilience_retries=2, request_deadline=None,
            fault_plan=FaultPlan.parse(["drop:p=0.1,start=5"]),
        )
        data = config_to_dict(cfg)
        assert set(data) == {f.name for f in fields(type(cfg))}
        again = config_from_dict(json.loads(json.dumps(data)))
        assert again == cfg

    def test_config_unknown_field_rejected(self):
        data = config_to_dict(MINI)
        data["warp_drive"] = True
        with pytest.raises(ValueError, match="warp_drive"):
            config_from_dict(data)

    def test_spec_round_trip(self):
        spec = JobSpec("a-1", MINI, entry=TINY)
        again = JobSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert again == spec
        assert spec_digest(again) == spec_digest(spec)

    def test_invalid_ids_and_entries(self):
        with pytest.raises(ValueError):
            JobSpec("has space", MINI)
        with pytest.raises(ValueError):
            JobSpec("-leading", MINI)
        with pytest.raises(ValueError):
            JobSpec("ok", MINI, entry="no.colon.here")

    def test_digest_covers_config_and_entry_only(self):
        spec = JobSpec("j", MINI)
        assert spec_digest(spec) == spec_digest(JobSpec("j", MINI))
        # Extra keys in a stored spec (older campaign directories carry
        # "after" and "timeout") don't enter the digest...
        assert spec_digest(spec) == spec_digest(JobSpec.from_dict(
            {**spec.to_dict(), "after": ["x"], "timeout": 9.0}
        ))
        # ...but the config and entry do.
        assert spec_digest(spec) != spec_digest(
            JobSpec("j", replace(MINI, seed=99))
        )
        assert spec_digest(spec) != spec_digest(JobSpec("j", MINI, entry=TINY))

    def test_slugify(self):
        assert slugify("gd-ld@0.005") == "gd-ld-0.005"
        assert slugify("  ") == "job"


class TestRunGraph:
    def test_grid_names_and_size(self):
        graph = RunGraph.grid(
            MINI, replacement_policy=["gd-ld", "gd-size"], seed=[1, 2]
        )
        assert len(graph) == 4
        assert "gd-ld_s1" in graph
        assert graph["gd-size_s2"].config.seed == 2
        assert graph["gd-size_s2"].config.replacement_policy == "gd-size"

    def test_duplicate_id_rejected(self):
        graph = tiny_graph(1)
        with pytest.raises(ValueError, match="duplicate"):
            graph.add("job-0", MINI)

    def test_round_trip(self):
        graph = tiny_graph(2)
        again = RunGraph.from_dict(json.loads(json.dumps(graph.to_dict())))
        assert again.job_ids == graph.job_ids
        assert [spec_digest(s) for s in again] == [
            spec_digest(s) for s in graph
        ]


class TestJournal:
    def test_replay_counts_and_state(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        with Journal(path) as journal:
            journal.begin("t", 2)
            journal.start("a")
            journal.done("a", "digest-a", 0.1)
            journal.start("b")
            journal.fail("b", "failed", "boom")
            journal.start("b")
            journal.done("b", "digest-b", 0.2)
            journal.end(done=2, failed=0, reused=0, interrupted=False)
        state = replay_journal(path)
        assert state.job_state == {"a": "done", "b": "done"}
        assert state.event_count("start") == 3
        assert state.event_count("start", "b") == 2
        assert state.report_digests == {"a": "digest-a", "b": "digest-b"}
        assert state.ended
        assert state.torn_lines == 0

    def test_torn_final_line_tolerated(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        with Journal(path) as journal:
            journal.start("a")
        with open(path, "a") as fh:
            fh.write('{"event": "done", "job": "a", "repo')  # mid-write kill
        state = replay_journal(path)
        assert state.torn_lines == 1
        assert state.job_state == {"a": "start"}
        assert not state.ended

    def test_missing_journal_is_fresh(self, tmp_path):
        state = replay_journal(tmp_path / "absent.jsonl")
        assert state.records == []
        assert not state.ended


class TestArtifacts:
    def run_one(self, tmp_path):
        spec = JobSpec("cell", replace(MINI, seed=3), entry=TINY)
        result = execute_job(spec, tmp_path)
        assert result.status == "done"
        return spec, result

    def test_commit_then_verify_ok(self, tmp_path):
        spec, result = self.run_one(tmp_path)
        check = verify_artifact(tmp_path, spec)
        assert check.ok
        assert check.report_digest == result.report_digest
        assert check.report.requests_issued == result.report.requests_issued

    def test_missing_artifact(self, tmp_path):
        check = verify_artifact(tmp_path, JobSpec("ghost", MINI))
        assert check.status == "missing"
        assert not check.completed

    def test_tampered_report_detected(self, tmp_path):
        spec, _ = self.run_one(tmp_path)
        report_path = job_dir(tmp_path, "cell") / "report.json"
        data = json.loads(report_path.read_text())
        data[0]["requests_served"] += 1
        report_path.write_text(json.dumps(data))
        check = verify_artifact(tmp_path, spec)
        assert check.status == "corrupt-report"
        assert check.completed and not check.ok

    def test_changed_spec_detected(self, tmp_path):
        self.run_one(tmp_path)
        changed = JobSpec("cell", replace(MINI, seed=999), entry=TINY)
        check = verify_artifact(tmp_path, changed)
        assert check.status == "stale-spec"

    def test_older_spec_json_keys_still_verify_and_reuse(self, tmp_path):
        """Campaign directories whose spec.json carries ``"after": []``
        and ``"timeout": null`` resume with the job reused."""
        spec, _ = self.run_one(tmp_path)
        spec_path = job_dir(tmp_path, "cell") / "spec.json"
        stored = {**json.loads(spec_path.read_text()),
                  "after": [], "timeout": None}
        spec_path.write_text(json.dumps(stored, indent=2, sort_keys=True))
        assert JobSpec.from_dict(stored) == spec
        assert verify_artifact(tmp_path, spec).ok
        summary = execute_graph(RunGraph([spec]), InProcessRunner(), tmp_path)
        assert summary.statuses == {"cell": "reused"}

    def test_incomplete_result_detected(self, tmp_path):
        spec, _ = self.run_one(tmp_path)
        result_path = job_dir(tmp_path, "cell") / "result.json"
        record = json.loads(result_path.read_text())
        record["status"] = "running"
        result_path.write_text(json.dumps(record))
        assert verify_artifact(tmp_path, spec).status == "incomplete"


class TestExecuteGraph:
    def test_full_run(self, tmp_path):
        graph = tiny_graph(3)
        summary = execute_graph(graph, InProcessRunner(), tmp_path)
        assert summary.ok
        assert summary.n_done == 3
        assert sorted(summary.reports) == ["job-0", "job-1", "job-2"]
        state = replay_journal(tmp_path / "journal.jsonl")
        assert state.event_count("start") == 3
        assert state.ended

    def test_resume_reuses_everything(self, tmp_path):
        graph = tiny_graph(3)
        first = execute_graph(graph, InProcessRunner(), tmp_path)
        second = execute_graph(graph, InProcessRunner(), tmp_path)
        assert second.n_reused == 3 and second.n_done == 0
        assert second.report_digests == first.report_digests
        # No job ever started twice across both passes.
        state = replay_journal(tmp_path / "journal.jsonl")
        assert state.event_count("start") == 3

    def test_max_jobs_interrupts(self, tmp_path):
        graph = tiny_graph(4)
        summary = execute_graph(
            graph, InProcessRunner(), tmp_path, max_jobs=2
        )
        assert summary.interrupted
        assert summary.n_done == 2 and summary.n_pending == 2
        state = replay_journal(tmp_path / "journal.jsonl")
        assert state.records[-1] == {
            **state.records[-1], "event": "end", "interrupted": True,
        }
        resumed = execute_graph(graph, InProcessRunner(), tmp_path)
        assert not resumed.interrupted and resumed.ok
        assert resumed.n_reused == 2 and resumed.n_done == 2

    def test_tamper_reruns_exactly_that_job(self, tmp_path):
        """Satellite 4: digest verification re-runs the tampered job."""
        graph = tiny_graph(3)
        first = execute_graph(graph, InProcessRunner(), tmp_path)
        report_path = job_dir(tmp_path, "job-1") / "report.json"
        data = json.loads(report_path.read_text())
        data[0]["requests_served"] += 7
        report_path.write_text(json.dumps(data))

        second = execute_graph(graph, InProcessRunner(), tmp_path)
        assert second.statuses == {
            "job-0": "reused", "job-1": "done", "job-2": "reused",
        }
        assert second.report_digests == first.report_digests
        state = replay_journal(tmp_path / "journal.jsonl")
        assert state.event_count("start", "job-1") == 2
        assert state.event_count("start", "job-0") == 1
        assert state.event_count("start", "job-2") == 1
        assert state.event_count("stale", "job-1") == 1


class TestCampaignPersistence:
    """``run_graph`` with a root: what finished stays finished."""

    def graph(self, seeds=(1, 2, 3)):
        graph = RunGraph()
        for seed in seeds:
            graph.add(f"seed-{seed}", replace(MINI, seed=seed))
        return graph

    def test_interrupted_run_keeps_completed_cells(self, tmp_path):
        graph = self.graph()
        cut = execute_graph(graph, InProcessRunner(), tmp_path, max_jobs=2)
        assert cut.interrupted
        # The artifact tree on disk already holds both completed cells
        # even though the campaign was cut short.
        assert sum(verify_artifact(tmp_path, spec).ok for spec in graph) == 2

        reports = run_graph(graph, root=tmp_path)
        assert sorted(reports) == ["seed-1", "seed-2", "seed-3"]
        state = replay_journal(tmp_path / "journal.jsonl")
        assert state.event_count("start") == 3  # only the missing cell ran

    def test_interrupt_then_resume_matches_straight_run(self, tmp_path):
        graph = self.graph()
        execute_graph(graph, InProcessRunner(), tmp_path / "a", max_jobs=1)
        resumed = run_graph(graph, root=tmp_path / "a")
        straight = run_graph(graph)  # throwaway root
        assert {
            job: (r.requests_issued, r.average_latency)
            for job, r in resumed.items()
        } == {
            job: (r.requests_issued, r.average_latency)
            for job, r in straight.items()
        }

    def test_campaign_artifacts_reused_on_resume(self, tmp_path):
        """A failing job raises by name; the survivors are committed
        under the root and a second call reuses them."""
        graph = self.graph(seeds=(1, 2))
        graph.add("bad", MINI, entry="tests.orchestrator_entries:raising_entry")
        for attempt in (1, 2):
            with pytest.raises(RuntimeError) as err:
                run_graph(graph, root=tmp_path)
            message = str(err.value)
            assert "1 job(s) failed" in message
            assert "bad: failed" in message
            assert "intentional job failure" in message
            assert "seed-1" not in message and "seed-2" not in message
            for job in ("seed-1", "seed-2"):
                assert verify_artifact(tmp_path, graph[job]).ok
        state = replay_journal(tmp_path / "journal.jsonl")
        assert state.event_count("start", "seed-1") == 1
        assert state.event_count("start", "seed-2") == 1
        assert state.event_count("reuse") == 2
        assert state.event_count("start", "bad") == 2  # retried, not trusted

    def test_empty_graph_runs_to_nothing(self):
        assert run_graph(RunGraph()) == {}


class TestCampaignCli:
    def run_cli(self, *argv):
        return main(list(argv))

    def test_run_status_resume_verify_cycle(self, tmp_path, capsys):
        root = str(tmp_path / "camp")
        code = self.run_cli(
            "campaign", "run", root, "--seeds", "1",
            "--processes", "1", "--max-jobs", "2",
        )
        assert code == 3  # interrupted: jobs remain

        assert self.run_cli("campaign", "status", root) == 0
        out = capsys.readouterr().out
        assert "2/4 job(s) verified complete" in out

        assert self.run_cli(
            "campaign", "resume", root, "--processes", "1"
        ) == 0
        assert self.run_cli("campaign", "verify", root, "--strict") == 0
        out = capsys.readouterr().out
        assert "4/4" in out

    def test_verify_flags_tampered_artifact(self, tmp_path, capsys):
        root = tmp_path / "camp"
        assert self.run_cli(
            "campaign", "run", str(root), "--seeds", "1",
            "--processes", "1",
        ) == 0
        [report_path] = list(root.glob("jobs/0.02_gd-ld_s1/report.json"))
        data = json.loads(report_path.read_text())
        data[0]["requests_served"] += 1
        report_path.write_text(json.dumps(data))

        assert self.run_cli("campaign", "verify", str(root)) == 1
        err = capsys.readouterr().err
        assert "corrupt-report" in err

        # Resume re-runs exactly the tampered job, then verify is clean.
        assert self.run_cli(
            "campaign", "resume", str(root), "--processes", "1"
        ) == 0
        assert self.run_cli("campaign", "verify", str(root), "--strict") == 0
        state = replay_journal(root / "journal.jsonl")
        assert state.event_count("start", "0.02_gd-ld_s1") == 2
        assert state.event_count("start") == 5

    def test_run_refuses_mismatched_definition(self, tmp_path, capsys):
        root = str(tmp_path / "camp")
        assert self.run_cli(
            "campaign", "run", root, "--seeds", "1", "--processes", "1",
        ) == 0
        assert self.run_cli(
            "campaign", "run", root, "--preset", "consistency",
            "--seeds", "1",
        ) == 2
        assert "already holds campaign" in capsys.readouterr().err

    def test_bad_run_input_exits_2_and_writes_nothing(self, tmp_path, capsys):
        root = tmp_path / "camp"
        for bad in (["--seeds", "1", "1"],
                    ["--seeds", "1", "--processes", "0"]):
            assert self.run_cli("campaign", "run", str(root), *bad) == 2
            assert "error:" in capsys.readouterr().err
            assert not root.exists()
        # The directory stays usable: a good run starts it afresh.
        assert self.run_cli(
            "campaign", "run", str(root), "--seeds", "1",
            "--processes", "1",
        ) == 0
        assert self.run_cli(
            "campaign", "resume", str(root), "--processes", "0",
        ) == 2
        assert "processes must be >= 1" in capsys.readouterr().err
        assert self.run_cli("campaign", "verify", str(root), "--strict") == 0

    def test_subcommands_need_a_campaign(self, tmp_path, capsys):
        for sub in ("status", "verify", "resume"):
            assert self.run_cli("campaign", sub, str(tmp_path)) == 2
        assert "no campaign.json" in capsys.readouterr().err

    def exit_code(self, *argv):
        """The exit status, whether ``main`` returns it or argparse
        raises it."""
        try:
            return self.run_cli(*argv)
        except SystemExit as exc:
            return exc.code

    def test_run_rejects_negative_max_jobs_before_writing(
        self, tmp_path, capsys
    ):
        root = tmp_path / "camp"
        assert self.exit_code(
            "campaign", "run", str(root), "--seeds", "1", "--processes", "1",
            "--max-jobs", "-1",
        ) == 2
        assert "error: --max-jobs must be >= 0" in capsys.readouterr().err
        assert not (root / "campaign.json").exists()

    def test_resume_rejects_negative_max_jobs(self, tmp_path, capsys):
        root = tmp_path / "camp"
        assert self.run_cli(
            "campaign", "run", str(root), "--seeds", "1", "--processes", "1",
            "--max-jobs", "0",
        ) == 3
        assert self.exit_code(
            "campaign", "resume", str(root), "--max-jobs", "-1",
        ) == 2
        assert "error: --max-jobs must be >= 0" in capsys.readouterr().err
        assert replay_journal(root / "journal.jsonl").event_count("start") == 0

    @pytest.mark.parametrize("runner_flags", [
        ["--processes", "1", "--timeout", "0"],
        ["--processes", "1", "--timeout", "-5"],
        # The spelling that once ran in-process, ignoring the timeout.
        ["--runner", "inprocess", "--timeout", "0"],
    ])
    def test_bad_timeout_rejected_before_anything_is_written(
        self, tmp_path, capsys, runner_flags
    ):
        root = tmp_path / "camp"
        assert self.exit_code(
            "campaign", "run", str(root), "--seeds", "1", *runner_flags,
        ) == 2
        assert "error" in capsys.readouterr().err
        assert not (root / "campaign.json").exists()

    @pytest.mark.parametrize("processes", ["0", "-3"])
    def test_fig_rejects_bad_processes_before_simulating(
        self, monkeypatch, capsys, processes
    ):
        def must_not_run(**kwargs):
            raise AssertionError("a simulation ran on bad input")

        monkeypatch.setattr("repro.cli.run_fig9b", must_not_run)
        assert self.run_cli("fig", "9b", "--quick", "--processes",
                            processes) == 2
        assert "error: processes must be >= 1" in capsys.readouterr().err


class TestCampaignsAreFlatLists:
    """Ratchet: no job dependencies, no per-job timeouts, one runner
    choice from ``--processes``."""

    def test_jobspec_pool_runner_and_cli_surface(self):
        from inspect import signature

        from repro.cli import build_parser

        assert [f.name for f in fields(JobSpec)] == ["job_id", "config",
                                                     "entry"]
        assert list(signature(PoolRunner.__init__).parameters) == [
            "self", "processes", "timeout",
        ]
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["campaign", "run", "x", "--runner", "pool"]
            )

    def test_make_runner_rule(self):
        assert isinstance(make_runner(1), InProcessRunner)
        assert isinstance(make_runner(1, 5.0), PoolRunner)
        assert make_runner(1, 5.0).timeout == 5.0
        assert make_runner(3).processes == 3
        assert isinstance(make_runner(None), PoolRunner)
        for bad in (0, -3):
            with pytest.raises(ValueError, match="processes must be >= 1"):
                make_runner(bad)
        for bad in (0.0, -5.0):
            with pytest.raises(ValueError, match="timeout must be positive"):
                make_runner(1, bad)

    def test_run_graph_rejects_bad_processes(self):
        with pytest.raises(ValueError, match="processes must be >= 1"):
            run_graph(tiny_graph(1), processes=0)


# ---------------------------------------------------------------------------
# One experiment runner: nothing may grow a second one back
# ---------------------------------------------------------------------------

def test_one_experiment_runner_in_source():
    import ast
    import re
    from pathlib import Path

    from repro.cli import build_parser

    repo = Path(__file__).resolve().parent.parent
    banned = re.compile(
        r"Campaign\(|run_sweep|fault_sweep|sweep_grid|run_seeds|"
        r"RemoteStubRunner|remote-stub|deferred"
    )
    hits = [
        f"{path.relative_to(repo)}:{lineno}: {line.strip()}"
        for root in ("src", "scripts", "examples", "benchmarks")
        for path in sorted((repo / root).rglob("*.py"))
        for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if banned.search(line)
    ]
    assert not hits, "a second experiment runner reappeared:\n" + "\n".join(hits)
    for gone in ("campaign.py", "sweeps.py"):
        assert not (repo / "src/repro/experiments" / gone).exists()
    with pytest.raises(SystemExit):
        build_parser().parse_args(
            ["campaign", "run", "x", "--runner", "remote-stub"]
        )

    # figures.py runs simulations through the graph: a network is
    # constructed only inside its orchestrator entry functions.
    figures = repo / "src/repro/experiments/figures.py"
    builders = {
        func.name
        for func in ast.walk(ast.parse(figures.read_text(encoding="utf-8")))
        if isinstance(func, ast.FunctionDef)
        for node in ast.walk(func)
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", "").endswith("Network")
    }
    assert builders == {"run_precinct_energy", "run_flooding_energy"}
