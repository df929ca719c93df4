"""Tests for the command-line interface (repro.cli)."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.command == "run"
        assert args.nodes == 80
        assert args.policy == "gd-ld"

    def test_run_options(self):
        args = build_parser().parse_args(
            ["run", "--nodes", "40", "--policy", "gd-size", "--speed", "0",
             "--consistency", "plain-push", "--t-update", "60"]
        )
        assert args.nodes == 40
        assert args.policy == "gd-size"
        assert args.speed == 0.0
        assert args.t_update == 60.0

    def test_fig_choices(self):
        args = build_parser().parse_args(["fig", "9a", "--quick"])
        assert args.figure == "9a"
        assert args.quick

    def test_invalid_figure_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig", "12"])

    def test_invalid_policy_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--policy", "arc"])

    def test_command_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_trace_options(self):
        args = build_parser().parse_args(
            ["run", "--slowest", "3", "--outcome", "failed",
             "--export-chrome", "t.json", "--fault", "drop:p=0.1",
             "--plan-file", "plan.json", "--check-invariants"]
        )
        assert args.command == "run"
        assert args.slowest == 3
        assert args.outcome == "failed"
        assert args.export_chrome == "t.json"
        assert args.fault == ["drop:p=0.1"]
        assert args.plan_file == "plan.json" and args.check_invariants

    def test_folded_subcommands_exit_2(self, capsys):
        # One subcommand runs one simulation: `faults` and the run form
        # of `trace` are gone, and `trace` keeps only `diff`.
        for argv in (["faults", "--fault", "drop:p=0.1"],
                     ["trace", "--slowest", "3"], ["trace"]):
            with pytest.raises(SystemExit) as exit_info:
                build_parser().parse_args(argv)
            assert exit_info.value.code == 2
        args = build_parser().parse_args(["trace", "diff", "a.jsonl", "b.jsonl"])
        assert (args.command, args.trace_cmd) == ("trace", "diff")

    def test_audit_bundle_dir(self):
        args = build_parser().parse_args(["audit", "--bundle-dir", "bundles"])
        assert args.bundle_dir == "bundles"

    def test_audit_trace_flags(self, capsys):
        args = build_parser().parse_args(
            ["audit", "--export-trace", "base.jsonl"]
        )
        assert args.export_trace == "base.jsonl"
        # One way to diff an audited run: `repro trace diff` over two
        # exports; the audit no longer diffs inline.
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(
                ["audit", "--baseline-trace", "old.jsonl"]
            )
        assert exit_info.value.code == 2

    def test_run_trace_sampling_flags(self):
        args = build_parser().parse_args(["run"])
        assert args.trace_sample_rate is None  # tracing stays off
        args = build_parser().parse_args(
            ["run", "--trace-sample-rate", "0.25",
             "--export-trace", "out.jsonl"]
        )
        assert args.trace_sample_rate == 0.25
        assert args.export_trace == "out.jsonl"

    def test_trace_sample_rate_on_trace_command(self):
        args = build_parser().parse_args(["run"])
        assert args.slowest is None and args.outcome is None
        assert args.export_chrome is None  # tracing stays off
        args = build_parser().parse_args(
            ["run", "--trace-sample-rate", "0.5", "--slowest", "2"]
        )
        assert args.trace_sample_rate == 0.5 and args.slowest == 2

    def test_trace_diff_subcommand(self):
        args = build_parser().parse_args(
            ["trace", "diff", "a.jsonl", "b.jsonl",
             "--json", "report.json", "--top", "3"]
        )
        assert args.trace_cmd == "diff"
        assert args.trace_a == "a.jsonl"
        assert args.trace_b == "b.jsonl"
        assert args.json == "report.json"
        assert args.top == 3

    def test_trace_diff_requires_both_paths(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["trace", "diff", "a.jsonl"])


class TestExecution:
    def test_theory_command(self, capsys):
        rc = main(["theory", "--nodes", "20", "40"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "flooding" in out and "precinct" in out
        assert out.count("\n") == 3  # header + two rows

    @pytest.mark.parametrize("argv, field", [
        (["--regions", "0"], "n_regions"),
        (["--area", "0"], "area_side"),
        (["--area", "-600"], "area_side"),
        (["--nodes", "0"], "n_nodes"),
        (["--nodes", "20", "-3"], "n_nodes"),
    ], ids=["regions-0", "area-0", "area-negative", "nodes-0",
            "nodes-negative"])
    def test_theory_bad_input_exits_2(self, capsys, argv, field):
        # Used to end in a traceback (regions/area 0) or print energies
        # for an impossible network.
        assert main(["theory", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {field} must be positive")
        assert captured.out == ""

    def test_energy_negative_tolerance_exits_2(self, capsys):
        # Used to run a reconciliation that could never pass.
        assert main(["energy", "--tolerance", "-1"]) == 2
        assert capsys.readouterr().err.startswith("error: tolerance")

    @pytest.mark.parametrize("argv, field", [
        (["--items", "0"], "n_items"),
        (["--warmup", "-5"], "warmup"),
    ], ids=["items-0", "warmup-negative"])
    def test_run_bad_sizes_exit_2(self, capsys, argv, field):
        # --items 0 failed inside PReCinCtNetwork with a traceback; a
        # negative warmup ran and divided by a window longer than the run.
        small = ["--nodes", "16", "--duration", "40", "--warmup", "5",
                 "--items", "50", "--speed", "0"]
        assert main(["run", *small, *argv]) == 2
        assert capsys.readouterr().err.startswith(f"error: {field}")

    @pytest.mark.parametrize("argv, message", [
        (["--speed", "-3"], "error: max_speed"),
        (["--speed", "nan"], "error: max_speed"),
        (["--deadline", "-2"], "error: --deadline must be >= 0"),
        (["--slowest", "-1"], "error: --slowest must be >= 0"),
    ], ids=["speed-negative", "speed-nan", "deadline-negative", "slowest-negative"])
    def test_run_bad_flags_exit_2_before_simulating(self, capsys, argv, message):
        # Each used to run: a negative or NaN speed as a static topology,
        # a negative deadline as "no deadline", a negative --slowest with
        # tracing armed and nothing printed.
        assert main(["run", "--nodes", "16", "--duration", "40", "--warmup", "5",
                     "--items", "50", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(message)
        assert "running:" not in captured.err and captured.out == ""

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_run_non_finite_t_update_exits_2(self, capsys, value):
        # Used to crash mid-run with "OverflowError: high - low range
        # exceeds valid bounds" (`args.t_update or None` keeps a NaN).
        assert main(["run", "--nodes", "16", "--duration", "40", "--warmup", "5",
                     "--items", "50", "--t-update", value]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: t_update")
        assert "running:" not in captured.err and captured.out == ""

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_run_non_finite_duration_exits_2(self, value):
        # Used to simulate forever: the stop time never arrived.  A
        # subprocess with a timeout keeps a regression from hanging.
        src = str(Path(__file__).resolve().parents[1] / "src")
        result = subprocess.run(
            [sys.executable, "-m", "repro", "run", "--nodes", "16",
             "--warmup", "5", "--items", "50", "--duration", value],
            capture_output=True, text=True, timeout=60,
            env={"PYTHONPATH": src, "PATH": "/usr/bin:/bin"},
        )
        assert result.returncode == 2
        assert result.stderr.startswith("error: duration")
        assert "running:" not in result.stderr and result.stdout == ""

    def test_run_command_small(self, capsys):
        rc = main(
            ["run", "--nodes", "20", "--duration", "120", "--warmup", "20",
             "--items", "80", "--speed", "0"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "lat=" in out
        assert "served[" in out
        assert "p50/p95/p99" in out

    def test_run_with_feature_flags(self, capsys):
        rc = main(
            ["run", "--nodes", "20", "--duration", "120", "--warmup", "20",
             "--items", "80", "--speed", "2", "--digest", "--prefetch",
             "--map", "--policy", "lfu"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "alive" in out  # the topology map status line

    def test_run_report_still_exports_trace(self, capsys, tmp_path):
        # Regression: --report returned before the export and wrote nothing.
        path = tmp_path / "t.jsonl"
        rc = main(
            ["run", "--nodes", "16", "--duration", "40", "--warmup", "5",
             "--items", "50", "--speed", "0", "--report",
             "--export-trace", str(path)]
        )
        assert rc == 0
        lines = path.read_text().splitlines()
        assert lines and all(json.loads(line) for line in lines)
        out = capsys.readouterr().out
        assert f"wrote {len(lines)} trace(s)" in out
        assert "=== " in out and "served[" not in out  # report, not the row

    def test_faults_command(self, capsys):
        rc = main(
            ["run", "--nodes", "20", "--duration", "120", "--warmup", "20",
             "--items", "80", "--speed", "0", "--t-update", "0",
             "--fault", "drop:p=0.2,start=30",
             "--fault", "crash:at=60,nodes=1",
             "--check-invariants"]
        )
        assert rc == 0
        captured = capsys.readouterr()
        assert "lat=" in captured.out
        assert "faults.crashes = 1" in captured.out
        assert "faults.injected_drop" in captured.out
        assert "crash      at=60.0" in captured.err  # the plan description

    def test_faults_plan_file(self, capsys, tmp_path):
        from repro.faults.plan import FaultPlan

        plan_file = tmp_path / "plan.json"
        plan_file.write_text(FaultPlan.parse(["delay:delay=0.05,p=0.5"]).to_json())
        rc = main(
            ["run", "--nodes", "20", "--duration", "120", "--warmup", "20",
             "--items", "80", "--speed", "0", "--t-update", "0",
             "--plan-file", str(plan_file)]
        )
        assert rc == 0
        assert "faults.delayed" in capsys.readouterr().out

    def test_run_bad_fault_plan_exits_2(self, capsys, tmp_path):
        assert main(["run", "--fault", "drop:p=2"]) == 2
        assert "error: invalid fault plan" in capsys.readouterr().err
        assert main(["run", "--plan-file", str(tmp_path / "none.json")]) == 2
        assert "error: invalid fault plan" in capsys.readouterr().err

    @pytest.mark.parametrize("uptime", ["0", "-5"])
    def test_run_non_positive_churn_uptime_exits_2(self, capsys, uptime):
        # Used to end in a numpy traceback ("scale < 0") mid-run.
        assert main(["run", "--churn-uptime", uptime]) == 2
        assert capsys.readouterr().err.startswith("error: churn_uptime")

    def test_run_rejects_the_removed_merge_separate_flag(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["run", "--dynamic-regions"])
        assert exit_info.value.code == 2
        assert "--dynamic-regions" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["--hot-key-policy", "shed"],
                                      ["--hot-key-threshold", "3"]])
    def test_serve_rejects_the_removed_hot_key_flags(self, capsys, argv):
        with pytest.raises(SystemExit) as exit_info:
            main(["serve", "--port", "0", "--duration", "0.1", *argv])
        assert exit_info.value.code == 2
        assert argv[0] in capsys.readouterr().err

    def test_run_t_update_zero_is_read_only(self, capsys):
        # --t-update 0 used to reach PoissonArrivals and die mid-run.
        rc = main(
            ["run", "--nodes", "16", "--duration", "40", "--warmup", "5",
             "--items", "50", "--speed", "0", "--t-update", "0", "--report"]
        )
        assert rc == 0
        assert "| updates 0" in capsys.readouterr().out
        assert main(["run", "--t-update", "-5"]) == 2
        assert "t_update must be positive" in capsys.readouterr().err

    def test_run_faults_with_slowest_and_chrome_export(self, capsys, tmp_path):
        chrome = tmp_path / "trace.json"
        rc = main(
            ["run", "--nodes", "20", "--duration", "120", "--warmup", "20",
             "--items", "80", "--consistency", "push-adaptive-pull",
             "--t-update", "60", "--fault", "drop:p=0.2,start=30",
             "--slowest", "2", "--export-chrome", str(chrome)]
        )
        assert rc == 0
        assert json.loads(chrome.read_text())["traceEvents"]
        out = capsys.readouterr().out
        assert f"trace event(s) to {chrome}" in out
        assert "faults.injected_drop" in out
        for section in ("outcomes:", "spans:", "attributed energy:",
                        "slowest 2 request(s):", "(phase sum)"):
            assert section in out

    def test_fig_command_dispatch(self, capsys, monkeypatch):
        """The fig subcommand routes to the right drivers (stubbed)."""
        import repro.cli as cli

        calls = []
        monkeypatch.setattr(
            cli, "run_fig4_fig5", lambda **kw: calls.append("45") or []
        )
        monkeypatch.setattr(
            cli, "run_fig6_fig7_fig8", lambda **kw: calls.append("678") or []
        )
        monkeypatch.setattr(
            cli, "run_fig9a", lambda **kw: calls.append("9a") or []
        )
        monkeypatch.setattr(
            cli, "run_fig9b", lambda **kw: calls.append("9b") or []
        )
        assert main(["fig", "all", "--quick"]) == 0
        assert calls == ["45", "678", "9a", "9b"]
        calls.clear()
        assert main(["fig", "6", "--quick"]) == 0
        assert calls == ["678"]


class TestAuditCommand:
    """The documented acceptance invocation and its failure modes.

    These monkeypatch the audit scenario table with a tiny fast config so
    the CLI paths run in seconds; the real scenarios are covered by
    tests/test_golden_digests.py.
    """

    @pytest.fixture(autouse=True)
    def fast_scenarios(self, monkeypatch):
        import repro.faults.audit as audit

        def tiny(seed):
            from repro.config import SimulationConfig

            return SimulationConfig(
                n_nodes=12, n_items=30, width=500.0, height=500.0,
                n_regions=4, max_speed=None, duration=40.0, warmup=5.0,
                t_request=10.0, seed=seed, enable_event_log=True,
            )

        monkeypatch.setitem(audit.SCENARIOS, "baseline", tiny)
        monkeypatch.setitem(audit.SCENARIOS, "default", tiny)

    def test_audit_ok_exits_zero(self, capsys):
        rc = main(["audit", "--seed", "42", "--scenario", "default"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "determinism: OK" in out

    def test_audit_golden_roundtrip(self, capsys, tmp_path):
        golden = tmp_path / "digests.json"
        rc = main(["audit", "--refresh-golden", "--golden", str(golden),
                   "--seed", "42"])
        assert rc == 0
        assert "wrote" in capsys.readouterr().out
        # A "default" audit verifies against the canonical "baseline" key.
        rc = main(["audit", "--seed", "42", "--scenario", "default",
                   "--golden", str(golden)])
        assert rc == 0
        assert "golden:      OK" in capsys.readouterr().out

    def test_audit_detects_golden_mismatch(self, capsys, tmp_path):
        import json

        from repro.faults.audit import audit_scenario

        result = audit_scenario("baseline", seed=42)
        entry = result.digests[0].to_dict()
        entry["eventlog"] = "0" * 64  # tamper
        golden = tmp_path / "digests.json"
        golden.write_text(json.dumps({"baseline": entry}))

        rc = main(["audit", "--seed", "42", "--scenario", "default",
                   "--golden", str(golden)])
        assert rc == 1
        assert "golden:      MISMATCH" in capsys.readouterr().out

    def test_refresh_golden_requires_path(self, capsys):
        assert main(["audit", "--refresh-golden"]) == 2


class TestEnergyAndAnomalyParser:
    def test_energy_defaults(self):
        args = build_parser().parse_args(["energy"])
        assert args.command == "energy"
        assert args.scenario == "baseline"
        assert args.seed == 42
        assert args.tolerance == 0.5
        assert args.json is None

    def test_energy_options(self):
        args = build_parser().parse_args(
            ["energy", "--scenario", "faulted", "--seed", "7",
             "--tolerance", "0.25", "--json", "out.json"]
        )
        assert args.scenario == "faulted"
        assert args.seed == 7
        assert args.tolerance == 0.25
        assert args.json == "out.json"

    def test_energy_rejects_unknown_scenario(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["energy", "--scenario", "nope"])

    def test_run_anomaly_flags_repeatable(self):
        args = build_parser().parse_args(
            ["run", "--anomaly", "mac.backlog_max_s>5",
             "--anomaly", "cache.hit_ratio<0.1",
             "--bundle-dir", "bundles"]
        )
        assert args.anomaly == ["mac.backlog_max_s>5", "cache.hit_ratio<0.1"]
        assert args.bundle_dir == "bundles"

    def test_run_anomaly_defaults_empty(self):
        args = build_parser().parse_args(["run"])
        assert args.anomaly == []
        assert args.bundle_dir is None

    def test_run_rejects_bad_anomaly_rule(self, capsys):
        # Validated by argparse type= — fails at parse time, before any
        # simulation state exists, with the grammar in the message.
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "--anomaly", "not a rule"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "not a rule" in err
        assert "<series><op><threshold>" in err


class TestWatchParser:
    def test_watch_flags_default_off(self):
        args = build_parser().parse_args(["run"])
        assert args.watch is False
        assert args.watch_interval is None
        assert args.live_export is None
        assert args.metrics_snapshot is None
        assert args.no_color is False

    def test_run_watch_flags(self):
        args = build_parser().parse_args(
            ["run", "--watch", "--no-color", "--watch-interval", "0.5",
             "--live-export", "live.jsonl",
             "--metrics-snapshot", "metrics.prom"]
        )
        assert args.watch and args.no_color
        assert args.watch_interval == 0.5
        assert args.live_export == "live.jsonl"
        assert args.metrics_snapshot == "metrics.prom"

    def test_watch_subcommand(self):
        args = build_parser().parse_args(
            ["watch", "live.jsonl", "--follow", "--interval", "2",
             "--timeout", "30", "--no-color"]
        )
        assert args.command == "watch"
        assert args.path == "live.jsonl"
        assert args.follow and args.no_color
        assert args.interval == 2.0 and args.timeout == 30.0

    def test_watch_requires_path(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["watch"])

    def test_run_rejects_bad_watch_interval(self, capsys):
        rc = main(["run", "--watch", "--watch-interval", "0"])
        assert rc == 2
        assert "watch_interval" in capsys.readouterr().err


class TestWatchExecution:
    def test_run_watch_then_replay(self, capsys, tmp_path):
        live = tmp_path / "live.jsonl"
        prom = tmp_path / "metrics.prom"
        rc = main(
            ["run", "--nodes", "16", "--duration", "40", "--warmup", "5",
             "--items", "50", "--seed", "3", "--watch", "--no-color",
             "--watch-interval", "0.001",
             "--live-export", str(live), "--metrics-snapshot", str(prom),
             "--anomaly", "energy.total_uj>1"]
        )
        assert rc == 0
        captured = capsys.readouterr()
        assert "live export:" in captured.out
        assert "metrics snapshot:" in captured.out
        assert "[t=" in captured.err  # plain dashboard lines on stderr
        assert "ANOMALY" in captured.err
        assert "repro_sim_time_seconds" in prom.read_text()

        rc = main(["watch", str(live), "--no-color", "--interval", "0.001"])
        assert rc == 0
        captured = capsys.readouterr()
        assert "run finished" in captured.err
        assert "ANOMALY" in captured.err

    def test_watch_missing_file_errors(self, capsys, tmp_path):
        rc = main(["watch", str(tmp_path / "absent.jsonl")])
        assert rc == 2
        assert "error:" in capsys.readouterr().err


class TestEnergyAndAnomalyExecution:
    def test_run_with_anomaly_prints_triggers(self, capsys, tmp_path):
        rc = main(
            ["run", "--nodes", "20", "--duration", "60", "--warmup", "10",
             "--items", "60", "--anomaly", "energy.total_uj>1",
             "--bundle-dir", str(tmp_path)]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "anomaly triggers:" in out
        assert "energy.total_uj>1" in out
        assert "flight recorder:" in out

    def test_trace_shows_joules(self, capsys):
        rc = main(
            ["run", "--nodes", "16", "--duration", "60", "--warmup", "10",
             "--items", "60", "--slowest", "2"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "attributed energy:" in out
        assert " mJ" in out
