"""Tests for cross-run trace diffing (repro.obs.tracediff).

Covers alignment, delta computation, report rendering, the exporter
edge cases the differ depends on (zero-span traces, empty exports,
path handling), the `repro trace diff` CLI, and the acceptance
criterion: diffing the bare vs. faulted golden scenarios names the
faulted phases with nonzero deltas.

The golden-fixture regression test lives here too; refresh the fixture
with::

    PYTHONPATH=src python - <<'EOF'
    import json
    from pathlib import Path
    from repro.api import Observers, run_scenario
    from repro.obs.tracediff import diff_traces
    net_a, _, _ = run_scenario(
        "baseline", seed=42,
        observers=Observers(tracing=True, energy_attribution=True))
    net_b, _, _ = run_scenario(
        "faulted", seed=42,
        observers=Observers(tracing=True, energy_attribution=True))
    diff = diff_traces([t.to_dict() for t in net_a.tracer],
                       [t.to_dict() for t in net_b.tracer],
                       label_a="baseline", label_b="faulted")
    path = Path("tests/golden/tracediff_baseline_vs_faulted.json")
    path.write_text(json.dumps(diff.to_json_dict(), indent=2,
                               sort_keys=True) + "\n")
    EOF
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.cli import build_parser, main
from repro.faults.audit import run_scenario
from repro.obs import Observers, Tracer
from repro.obs.tracediff import (
    align_traces,
    diff_files,
    diff_traces,
    load_traces,
)

GOLDEN_DIFF_PATH = (
    Path(__file__).parent / "golden" / "tracediff_baseline_vs_faulted.json"
)


def make_trace(trace_id, peer, key, start, phases, outcome="home",
               faults=(), phase_faults=None, extra_spans=()):
    """Build an exported-trace dict whose phase spans tile [start, end]."""
    spans = []
    t = start
    for name, dur in phases:
        span = {"name": f"phase.{name}", "start": t, "end": t + dur,
                "peer": peer}
        if phase_faults and name in phase_faults:
            span["faults"] = list(phase_faults[name])
        spans.append(span)
        t += dur
    for name in extra_spans:
        spans.append({"name": name, "start": start, "end": start,
                      "peer": peer})
    return {
        "trace_id": trace_id, "peer": peer, "key": key,
        "start": start, "end": t, "latency": t - start,
        "outcome": outcome, "faults": list(faults), "dropped_spans": 0,
        "spans": spans,
    }


class TestAlignment:
    def test_pairs_by_peer_key_and_issue_order(self):
        a = [
            make_trace(0, 1, 7, 0.0, [("local", 0.1)]),
            make_trace(1, 1, 7, 5.0, [("local", 0.2)]),
            make_trace(2, 2, 7, 1.0, [("home", 0.3)]),
        ]
        b = [
            # Same identities, listed out of order, shifted issue times.
            make_trace(9, 2, 7, 1.5, [("home", 0.5)]),
            make_trace(8, 1, 7, 5.5, [("local", 0.4)]),
            make_trace(7, 1, 7, 0.5, [("local", 0.3)]),
        ]
        pairs, only_a, only_b = align_traces(a, b)
        assert not only_a and not only_b
        matched = {(p.a["trace_id"], p.b["trace_id"]) for p in pairs}
        # n-th re-request meets n-th re-request, not the reversed order.
        assert matched == {(0, 7), (1, 8), (2, 9)}

    def test_surplus_lands_in_only_lists(self):
        a = [make_trace(0, 1, 7, 0.0, [("local", 0.1)]),
             make_trace(1, 1, 7, 2.0, [("local", 0.1)]),
             make_trace(2, 3, 9, 0.0, [("local", 0.1)])]
        b = [make_trace(0, 1, 7, 0.0, [("local", 0.1)]),
             make_trace(1, 4, 2, 0.0, [("local", 0.1)])]
        pairs, only_a, only_b = align_traces(a, b)
        assert len(pairs) == 1
        # only_a is ordered by issue time, not trace id.
        assert [t["trace_id"] for t in only_a] == [2, 1]
        assert [t["key"] for t in only_b] == [2]

    def test_empty_sides(self):
        pairs, only_a, only_b = align_traces([], [])
        assert pairs == [] and only_a == [] and only_b == []
        t = [make_trace(0, 1, 7, 0.0, [("local", 0.1)])]
        pairs, only_a, only_b = align_traces(t, [])
        assert not pairs and len(only_a) == 1 and not only_b


class TestDiff:
    def test_self_diff_is_identically_zero(self):
        traces = [
            make_trace(0, 1, 7, 0.0, [("local", 0.25), ("home", 1.5)]),
            make_trace(1, 2, 3, 1.0, [("local", 0.25)], outcome="regional",
                       extra_spans=("gpsr.hop", "region.flood")),
            make_trace(2, 2, 3, 4.0, [], outcome="local-cache"),
        ]
        diff = diff_traces(traces, traces)
        assert diff.is_zero
        assert diff.aligned == 3
        assert diff.latency_total == 0.0
        assert diff.regressions() == []
        assert "no phase regressions" in diff.render()

    def test_phase_deltas_and_ranking(self):
        a = [make_trace(0, 1, 7, 0.0, [("local", 0.25), ("home", 1.0)])]
        b = [make_trace(0, 1, 7, 0.0,
                        [("local", 0.25), ("home", 3.0), ("replica", 0.5)],
                        outcome="replica", faults=["drop"],
                        phase_faults={"home": ["drop", "drop"]})]
        diff = diff_traces(a, b, label_a="bare", label_b="faulted")
        assert diff.aligned == 1
        by_phase = {p.phase: p for p in diff.phases}
        assert by_phase["phase.home"].total_delta == pytest.approx(2.0)
        assert by_phase["phase.replica"].total_delta == pytest.approx(0.5)
        assert by_phase["phase.local"].total_delta == pytest.approx(0.0)
        # Ranked worst-first.
        assert diff.phases[0].phase == "phase.home"
        assert diff.phases[0].faults_b == {"drop": 2}
        assert diff.outcome_shifts == {"home -> replica": 1}
        assert diff.faults_b == {"drop": 1}
        # Phase deltas sum to the end-to-end latency delta.
        assert sum(p.total_delta for p in diff.phases) == pytest.approx(
            diff.latency_total
        )
        text = diff.render()
        assert "worst regression: phase.home" in text
        assert "dropx2" in text

    def test_zero_span_traces_do_not_crash(self):
        # A local-static serve exports no spans at all; diffing it
        # against an escalated version must attribute the full latency.
        a = [make_trace(0, 1, 7, 0.0, [], outcome="local-static")]
        b = [make_trace(0, 1, 7, 0.0, [("home", 2.0)], outcome="home")]
        diff = diff_traces(a, b)
        assert diff.phases[0].phase == "phase.home"
        assert diff.phases[0].total_delta == pytest.approx(2.0)
        assert diff.latency_total == pytest.approx(2.0)
        assert diff.render()

    def test_disjoint_runs_align_nothing(self):
        a = [make_trace(0, 1, 7, 0.0, [("local", 0.1)])]
        b = [make_trace(0, 2, 8, 0.0, [("local", 0.1)])]
        diff = diff_traces(a, b)
        assert diff.aligned == 0 and diff.only_a == 1 and diff.only_b == 1
        assert "nothing aligned" in diff.render()

    def test_json_report_shape(self, tmp_path):
        a = [make_trace(0, 1, 7, 0.0, [("local", 0.25)])]
        b = [make_trace(0, 1, 7, 0.0, [("local", 0.75)])]
        diff = diff_traces(a, b, label_a="A", label_b="B")
        out = tmp_path / "diff.json"
        diff.write_json(out)
        data = json.loads(out.read_text())
        assert data["traces"] == {
            "a": 1, "b": 1, "aligned": 1, "only_a": 0, "only_b": 0
        }
        assert data["latency"]["total_delta_s"] == pytest.approx(0.5)
        assert data["phases"][0]["phase"] == "phase.local"
        assert data["spans"]["phase.local"] == {"a": 1, "b": 1, "delta": 0}


class TestLoadTraces:
    def test_blank_lines_skipped_and_empty_file_ok(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text("")
        assert load_traces(path) == []
        path.write_text(
            json.dumps(make_trace(0, 1, 2, 0.0, [])) + "\n\n\n"
        )
        assert len(load_traces(path)) == 1

    def test_bad_json_is_a_clear_error(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text("{not json}\n")
        with pytest.raises(ValueError, match="not a JSON trace record"):
            load_traces(path)
        path.write_text("[1, 2]\n")
        with pytest.raises(ValueError, match="must be an object"):
            load_traces(path)
        path.write_text(json.dumps(make_trace(0, 1, 2, 0.0, [])) + "\n"
                        '{"foo": 1}\n')
        with pytest.raises(ValueError, match=r"t\.jsonl:2: not a JSON trace"):
            load_traces(path)

    def test_missing_file_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            load_traces(tmp_path / "nope.jsonl")


class TestExporterEdgeCases:
    """The satellite fix: to_jsonl path handling + zero-span exports."""

    def test_to_jsonl_creates_parent_dirs(self, tmp_path):
        tracer = Tracer(lambda: 0.0)
        tracer.finish(tracer.begin(0, 1), "home")
        nested = tmp_path / "deeply" / "nested" / "t.jsonl"
        assert tracer.to_jsonl(nested) == 1
        assert nested.exists()
        # Chrome export shares the path normalization.
        chrome = tmp_path / "also" / "new" / "t.json"
        tracer.to_chrome_trace(chrome)
        assert chrome.exists()

    def test_to_jsonl_rejects_directory_target(self, tmp_path):
        tracer = Tracer(lambda: 0.0)
        with pytest.raises(IsADirectoryError):
            tracer.to_jsonl(tmp_path)

    def test_empty_tracer_exports_valid_empty_file(self, tmp_path):
        tracer = Tracer(lambda: 0.0)
        path = tmp_path / "empty.jsonl"
        assert tracer.to_jsonl(path) == 0
        assert path.read_text() == ""
        assert load_traces(path) == []
        # Empty vs. empty diffs cleanly instead of crashing.
        diff = diff_files(path, path)
        assert diff.aligned == 0 and diff.is_zero

    def test_zero_span_trace_round_trips_through_diff(self, tmp_path):
        clock = {"now": 0.0}
        tracer = Tracer(lambda: clock["now"])
        tracer.finish(tracer.begin(3, 9), "local-static")
        path = tmp_path / "zero.jsonl"
        tracer.to_jsonl(path)
        [trace] = load_traces(path)
        assert trace["spans"] == []
        diff = diff_files(path, path)
        assert diff.aligned == 1 and diff.is_zero


class TestCli:
    def _write(self, tmp_path, name, traces):
        path = tmp_path / name
        path.write_text("".join(json.dumps(t) + "\n" for t in traces))
        return path

    def test_trace_diff_command(self, tmp_path, capsys):
        a = self._write(tmp_path, "a.jsonl", [
            make_trace(0, 1, 7, 0.0, [("local", 0.25), ("home", 1.0)]),
        ])
        b = self._write(tmp_path, "b.jsonl", [
            make_trace(0, 1, 7, 0.0, [("local", 0.25), ("home", 3.5)],
                       faults=["delay"]),
        ])
        out = tmp_path / "report.json"
        rc = main(["trace", "diff", str(a), str(b), "--json", str(out)])
        assert rc == 0
        text = capsys.readouterr().out
        assert "worst regression: phase.home" in text
        assert "aligned 1 request(s)" in text
        data = json.loads(out.read_text())
        assert data["phases"][0]["phase"] == "phase.home"

    def test_trace_diff_missing_file_exits_2(self, tmp_path, capsys):
        rc = main(["trace", "diff", str(tmp_path / "x.jsonl"),
                   str(tmp_path / "y.jsonl")])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_trace_command_still_runs_without_subcommand(self):
        # The traced run lives on `run`; `trace` is only `trace diff`.
        parser = build_parser()
        args = parser.parse_args(["run", "--slowest", "3"])
        assert args.command == "run" and args.slowest == 3
        args = parser.parse_args(["trace", "diff", "a.jsonl", "b.jsonl",
                                  "--top", "2"])
        assert args.trace_cmd == "diff"
        assert args.trace_a == "a.jsonl" and args.top == 2


class TestAuditTraceFlags:
    """`repro audit --export-trace`, diffed by `repro trace diff`
    (fast scenarios)."""

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

    def test_export_then_baseline_diff_is_zero(self, tmp_path, capsys):
        exports = [tmp_path / "baseline.jsonl", tmp_path / "again.jsonl"]
        for export in exports:
            rc = main(["audit", "--seed", "42", "--scenario", "default",
                       "--export-trace", str(export)])
            assert rc == 0
            assert export.exists() and load_traces(export)

        report = tmp_path / "diff.json"
        rc = main(["trace", "diff", *map(str, exports), "--json", str(report)])
        assert rc == 0
        # Identical scenario + seed: traced twice, zero regressions.
        assert "no phase regressions beyond noise" in capsys.readouterr().out
        data = json.loads(report.read_text())
        assert data["traces"]["aligned"] > 0
        assert data["traces"]["only_a"] == data["traces"]["only_b"] == 0
        assert data["latency"]["total_delta_s"] == 0.0


@pytest.fixture(scope="module")
def golden_scenario_traces():
    """Traced exports of the bare and faulted golden scenarios (seed 42)."""
    net_a, _, _ = run_scenario(
        "baseline", seed=42,
        observers=Observers(tracing=True, energy_attribution=True),
    )
    net_b, _, _ = run_scenario(
        "faulted", seed=42,
        observers=Observers(tracing=True, energy_attribution=True),
    )
    return (
        [t.to_dict() for t in net_a.tracer],
        [t.to_dict() for t in net_b.tracer],
    )


class TestGoldenScenarioDiff:
    def test_faulted_phases_have_nonzero_deltas(self, golden_scenario_traces):
        """Acceptance: the diff names the faulted phases, with faults."""
        bare, faulted = golden_scenario_traces
        diff = diff_traces(bare, faulted, label_a="baseline",
                           label_b="faulted")
        assert diff.aligned > 0
        regressions = diff.regressions()
        assert regressions, "faulted run shows no phase regression"
        assert any(p.total_delta != 0.0 for p in diff.phases)
        # The injected faults are attributed to phases of the faulted side.
        tagged = {kind for p in diff.phases for kind in p.faults_b}
        assert tagged & {"drop", "delay", "duplicate", "reorder"}
        text = diff.render()
        assert "worst regression: phase." in text

    def test_ranked_report_matches_golden_fixture(
        self, golden_scenario_traces
    ):
        """The full JSON report is pinned under tests/golden/ — any
        behaviour change lands here (refresh recipe in the module
        docstring)."""
        bare, faulted = golden_scenario_traces
        diff = diff_traces(bare, faulted, label_a="baseline",
                           label_b="faulted")
        expected = json.loads(GOLDEN_DIFF_PATH.read_text(encoding="utf-8"))
        assert diff.to_json_dict() == expected

    def test_cli_diff_on_golden_exports(self, golden_scenario_traces,
                                        tmp_path, capsys):
        bare, faulted = golden_scenario_traces
        a = tmp_path / "baseline.jsonl"
        b = tmp_path / "faulted.jsonl"
        a.write_text("".join(json.dumps(t) + "\n" for t in bare))
        b.write_text("".join(json.dumps(t) + "\n" for t in faulted))
        rc = main(["trace", "diff", str(a), str(b)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "ranked phases" in out
        assert "worst regression: phase." in out
