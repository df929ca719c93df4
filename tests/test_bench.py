"""Tests for the profile-odds perf gate and the committed BENCH record.

Covers ``scripts/perf_gate.py`` — in particular the *actionable
failure* contract: a missing baseline, a baseline without a gated
section, or a malformed record must produce a clear ``error:`` message
and exit code 2, never a traceback — and the historical
``benchmarks/perf/BENCH_0006.json`` record.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


def _load_perf_gate():
    spec = importlib.util.spec_from_file_location(
        "perf_gate", REPO / "scripts" / "perf_gate.py"
    )
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


perf_gate = _load_perf_gate()


class TestCommittedTrajectory:
    def test_bench_0006_meets_acceptance(self):
        """The historical PR 6 record (written by the since-removed
        ``repro bench``) holds that PR's acceptance claim: >= 3x
        events/sec vs the pre-PR kernel on the pinned 'kernel' scenario,
        with identical event counts under every kernel."""
        path = REPO / "benchmarks" / "perf" / "BENCH_0006.json"
        payload = json.loads(path.read_text(encoding="utf-8"))
        kern = payload["scenarios"]["kernel"]
        assert kern["fast"]["events"] == kern["reference"]["events"]
        pre = payload["pre_pr"]["scenarios"]["kernel"]
        assert pre["events"] == kern["fast"]["events"]
        assert kern["fast"]["events_per_s"] / pre["events_per_s"] >= 3.0
        assert payload["pre_pr"]["speedup_vs_pre_pr"]["kernel"] >= 3.0


# ---------------------------------------------------------------------------
# scripts/perf_gate.py: actionable failures
# ---------------------------------------------------------------------------

def _profile_payload(sections):
    return {
        "self_total_s": sum(s for s in sections.values()),
        "sections": {k: {"self_s": v} for k, v in sections.items()},
    }


class TestProfileGateErrors:
    def test_missing_baseline_is_actionable(self, tmp_path, capsys):
        prof = tmp_path / "p.json"
        prof.write_text(json.dumps(_profile_payload({"engine.dispatch": 1.0})))
        rc = perf_gate.main(
            [str(prof), "--baseline", str(tmp_path / "absent.json")]
        )
        err = capsys.readouterr().err
        assert rc == 2
        assert "missing or unreadable" in err
        assert "--update" in err  # tells the user how to bless one

    def test_baseline_missing_gated_section_is_actionable(
        self, tmp_path, capsys
    ):
        prof = tmp_path / "p.json"
        base = tmp_path / "b.json"
        prof.write_text(json.dumps(
            _profile_payload({"engine.dispatch": 1.0, "routing.gpsr": 0.5})))
        base.write_text(json.dumps(_profile_payload({"engine.dispatch": 1.0})))
        rc = perf_gate.main([str(prof), "--baseline", str(base)])
        err = capsys.readouterr().err
        assert rc == 2
        assert "no record of gated section(s) ['routing.gpsr']" in err
        assert "sections present" in err

    def test_malformed_record_is_value_error_not_keyerror(
        self, tmp_path, capsys
    ):
        prof = tmp_path / "p.json"
        prof.write_text(json.dumps(
            {"self_total_s": 1.0, "sections": {"engine.dispatch": {}}}))
        rc = perf_gate.main([str(prof)])
        err = capsys.readouterr().err
        assert rc == 2
        assert "has no 'self_s' field" in err

    def test_no_profile_and_no_bench_is_actionable(self, capsys):
        rc = perf_gate.main([])
        err = capsys.readouterr().err
        assert rc == 2
        assert "needs a fresh 'repro profile --json' file" in err

    def test_gate_passes_against_itself(self, tmp_path, capsys):
        prof = tmp_path / "p.json"
        base = tmp_path / "b.json"
        payload = _profile_payload(
            {"engine.dispatch": 1.0, "routing.gpsr": 0.5, "other": 2.0})
        prof.write_text(json.dumps(payload))
        base.write_text(json.dumps(payload))
        rc = perf_gate.main([str(prof), "--baseline", str(base)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "perf gate OK" in out
