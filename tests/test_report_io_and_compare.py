"""Tests for report persistence and comparison rendering."""

import math

import pytest

from repro.analysis.compare import compare_reports
from repro.analysis.metrics import RequestMetrics, RunReport
from repro.experiments.report_io import reports_from_json, reports_to_json
from repro.sim import StatRegistry


def make_report(label="r", latency=0.3, served=10):
    m = RequestMetrics()
    for _ in range(served):
        m.on_request_issued()
        m.on_served("home", latency, 1000, stale=False, validated=False)
    stats = StatRegistry()
    stats.count("net.broadcast_sent", 42)
    stats.count("net.sent.consistency", 7)
    stats.count("net.sent.request", 99)
    return RunReport.from_run(label, 100.0, m, stats, energy_total_uj=5000.0)


class TestJsonRoundTrip:
    def test_round_trip_preserves_everything(self, tmp_path):
        original = [make_report("a", 0.2), make_report("b", 0.4)]
        path = tmp_path / "reports.json"
        reports_to_json(original, path)
        loaded = reports_from_json(path)
        assert len(loaded) == 2
        for orig, back in zip(original, loaded):
            assert back.config_label == orig.config_label
            assert back.average_latency == pytest.approx(orig.average_latency)
            assert back.served_by_class == orig.served_by_class
            assert back.extra == orig.extra
            assert back.latency_p95 == pytest.approx(orig.latency_p95)

    def test_malformed_payload_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"not": "a list"}')
        with pytest.raises(ValueError):
            reports_from_json(path)


class TestCompare:
    def test_table_structure(self):
        table = compare_reports([make_report("fast", 0.2), make_report("slow", 0.4)])
        assert "latency (s)" in table
        assert "fast" in table and "slow" in table
        assert "deltas vs 'fast'" in table

    def test_deltas_marked(self):
        table = compare_reports(
            [make_report("base", 0.2), make_report("worse", 0.4)]
        )
        # 100 % higher latency, lower-is-better -> marked worse.
        assert "+100%↓" in table

    def test_baseline_selection(self):
        table = compare_reports(
            [make_report("a", 0.2), make_report("b", 0.4)], baseline=1
        )
        assert "deltas vs 'b'" in table

    def test_validation(self):
        with pytest.raises(ValueError):
            compare_reports([])
        with pytest.raises(ValueError):
            compare_reports([make_report()], labels=["x", "y"])
        with pytest.raises(ValueError):
            compare_reports([make_report()], baseline=5)
