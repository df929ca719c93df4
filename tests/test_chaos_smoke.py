"""The chaos gate (``scripts/chaos_smoke.py``): its verdicts and exit codes.

The ``sim`` scenario runs here end to end (≈3 s).  The ``service``
scenario runs wall-clock load for ≈18 s, so only its verdict is tested
here; CI runs it whole.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "chaos_smoke.py"


@pytest.fixture(scope="module")
def gate():
    spec = importlib.util.spec_from_file_location("chaos_smoke", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_sim_scenario_reproduces_the_pinned_verdict(gate, tmp_path, capsys):
    rc = gate.main(["--scenario", "sim", "--seed", "42",
                    "--out-dir", str(tmp_path)])
    assert rc == 0
    report = json.loads((tmp_path / "chaos-report.json").read_text())
    assert set(report) == {"scenario", "seed", "plan", "off", "on",
                           "checks", "passed"}
    assert (report["scenario"], report["seed"]) == ("sim", 42)
    off, on = report["off"], report["on"]
    assert (off["requests_failed"], off["requests_issued"]) == (355, 868)
    assert (on["requests_failed"], on["requests_issued"]) == (322, 868)
    assert off["p95_failure_detection_latency_s"] == 6.25
    assert on["p95_failure_detection_latency_s"] == 6.0
    assert report["passed"] and all(report["checks"].values())
    for name in ("off-trace.jsonl", "on-trace.jsonl", "trace-diff.json"):
        assert (tmp_path / name).stat().st_size > 0
    assert "chaos smoke: OK" in capsys.readouterr().out


def _sim_mode(rate, p95):
    return {"failure_rate": rate, "p95_failure_detection_latency_s": p95}


@pytest.mark.parametrize("off, on, passed", [
    (_sim_mode(0.4, 6.25), _sim_mode(0.3, 6.0), True),
    (_sim_mode(0.4, 6.25), _sim_mode(0.4, 6.0), False),
    (_sim_mode(0.4, 6.25), _sim_mode(0.3, 6.25), False),
    (_sim_mode(0.4, 6.25), _sim_mode(0.5, 7.0), False),
])
def test_sim_verdict_needs_both_metrics_strictly_lower(gate, off, on, passed):
    assert all(gate.sim_verdict(off, on).values()) is passed


SLOS = ("availability", "p99_bounded", "shed_under_overload",
        "killed_shards_serving", "no_stuck_requests", "clean_drain")


def _service_mode(survival, *broken):
    return {"survival": survival,
            "slos": {name: name not in broken for name in SLOS}}


def test_service_verdict_passes_the_parent_outcome(gate):
    off = _service_mode(False, "availability", "killed_shards_serving",
                        "p99_bounded", "shed_under_overload")
    assert gate.violations(off) == [
        "availability", "killed_shards_serving", "p99_bounded"]
    assert all(gate.service_verdict(off, _service_mode(True)).values())


@pytest.mark.parametrize("slo", SLOS)
def test_service_verdict_fails_when_survival_misses_an_slo(gate, slo):
    off = _service_mode(False, "availability")
    checks = gate.service_verdict(off, _service_mode(True, slo))
    assert [name for name, ok in checks.items() if not ok] == [
        f"survival_{slo}"]


def test_service_verdict_fails_when_control_only_skips_shedding(gate):
    off = _service_mode(False, "shed_under_overload")
    checks = gate.service_verdict(off, _service_mode(True))
    assert not checks["control_breaks_an_slo"]
    assert not all(checks.values())


@pytest.mark.parametrize("winner, rc", [(True, 0), (False, 1)])
def test_gate_exit_code_follows_the_verdict(gate, monkeypatch, tmp_path,
                                            capsys, winner, rc):
    runs = []

    def run(layer_on, seed, out_dir):
        runs.append(layer_on)
        return {"score": int(layer_on == winner)}

    stub = gate.Scenario(("noop:at=0",), run,
                         lambda off, on: {"on_wins": on["score"] > off["score"]})
    monkeypatch.setitem(gate.SCENARIOS, "stub", stub)
    assert gate.main(["--scenario", "stub", "--seed", "3",
                      "--out-dir", str(tmp_path)]) == rc
    assert runs == [False, True]
    report = json.loads((tmp_path / "chaos-report.json").read_text())
    assert report["passed"] is winner
    assert report["checks"] == {"on_wins": winner}
    assert (report["scenario"], report["plan"]) == ("stub", ["noop:at=0"])
