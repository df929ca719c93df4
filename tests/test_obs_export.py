"""Shared exporter surface (repro.obs.export) and the four JSONL
round-trips: Tracer, TelemetryTable, EnergyLedger, FlightRecorder."""

import numpy as np
import pytest

from repro.energy import EnergyLedger, EnergyParams
from repro.obs.export import export_path, read_jsonl, write_jsonl
from repro.obs.recorder import FlightRecorder
from repro.obs.telemetry import TelemetryTable
from repro.obs.tracediff import load_traces
from repro.obs.tracer import Tracer


class TestExportHelpers:
    def test_write_read_roundtrip(self, tmp_path):
        path = tmp_path / "records.jsonl"
        records = [{"a": 1}, {"b": [1, 2, 3], "c": "x"}]
        assert write_jsonl(path, records) == 2
        assert read_jsonl(path) == records

    def test_parent_directories_created(self, tmp_path):
        path = tmp_path / "deep" / "nested" / "out.jsonl"
        write_jsonl(path, [{"a": 1}])
        assert path.exists()

    def test_directory_target_rejected(self, tmp_path):
        with pytest.raises(IsADirectoryError):
            export_path(tmp_path)

    def test_user_expansion(self):
        assert "~" not in str(export_path("~/somewhere/out.jsonl"))

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "padded.jsonl"
        path.write_text('{"a": 1}\n\n  \n{"b": 2}\n', encoding="utf-8")
        assert read_jsonl(path) == [{"a": 1}, {"b": 2}]

    def test_non_object_record_rejected_with_location(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"a": 1}\n[1, 2]\n', encoding="utf-8")
        with pytest.raises(ValueError, match=r"bad\.jsonl:2"):
            read_jsonl(path)

    def test_malformed_json_raises(self, tmp_path):
        path = tmp_path / "broken.jsonl"
        path.write_text('{"a": 1}\nnot json\n', encoding="utf-8")
        with pytest.raises(ValueError):
            read_jsonl(path)


class TestTracerRoundtrip:
    def test_to_from_jsonl(self, tmp_path):
        clock = [0.0]
        tracer = Tracer(lambda: clock[0])
        trace = tracer.begin(peer=3, key=9)
        tracer.phase(trace, "local")
        clock[0] = 1.5
        tracer.finish(trace, "local-cache")
        path = tmp_path / "traces.jsonl"
        assert tracer.to_jsonl(path) == 1
        loaded = load_traces(path)
        assert len(loaded) == 1
        assert loaded[0]["peer"] == 3
        assert loaded[0]["outcome"] == "local-cache"
        assert loaded[0]["spans"][0]["name"] == "phase.local"

    def test_non_trace_record_rejected(self, tmp_path):
        path = tmp_path / "not_traces.jsonl"
        write_jsonl(path, [{"foo": 1}])
        with pytest.raises(ValueError, match="not a JSON trace record"):
            load_traces(path)


class TestTelemetryRoundtrip:
    def test_to_from_jsonl(self, tmp_path):
        table = TelemetryTable()
        table.append(0.0, {"a": 1.0, "b": 10.0})
        table.append(5.0, {"a": 2.0, "b": 10.0, "late": 7.0})
        path = tmp_path / "telemetry.jsonl"
        assert table.to_jsonl(path) > 0
        loaded = TelemetryTable.from_jsonl(path)
        assert loaded.rows() == table.rows()
        assert list(loaded.column("late")) == list(table.column("late"))


class TestEnergyLedgerRoundtrip:
    def test_to_from_jsonl(self, tmp_path):
        ledger = EnergyLedger(3, EnergyParams(m_p2p_send=2.5))
        ledger.charge_p2p_send(0, 100.0)
        ledger.charge_bcast_recv(np.array([1, 2]), 50.0)
        ledger.charge_discard(np.array([2]), 50.0)
        path = tmp_path / "energy.jsonl"
        assert ledger.to_jsonl(path) == 4  # header + 3 nodes
        loaded = EnergyLedger.from_jsonl(path)
        assert loaded.n_nodes == 3
        assert loaded.params.m_p2p_send == 2.5
        assert loaded.total() == pytest.approx(ledger.total())
        for node in range(3):
            assert loaded.node_total(node) == pytest.approx(
                ledger.node_total(node)
            )
        assert loaded.total_by_category() == pytest.approx(
            ledger.total_by_category()
        )

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "headerless.jsonl"
        write_jsonl(path, [{"record": "node", "node": 0}])
        with pytest.raises(ValueError, match="header"):
            EnergyLedger.from_jsonl(path)


class TestRecorderManifestRoundtrip:
    def test_to_from_jsonl(self, tmp_path):
        recorder = FlightRecorder(tmp_path / "bundles")
        recorder.dump("test-reason", {"why": "because"}, sim_time=2.0)
        recorder.dump("other-reason", {}, sim_time=3.0)
        path = tmp_path / "manifests.jsonl"
        assert recorder.to_jsonl(path) == 2
        loaded = FlightRecorder.from_jsonl(path)
        assert [m["reason"] for m in loaded] == ["test-reason", "other-reason"]
        assert loaded[0]["context"] == {"why": "because"}

    def test_non_manifest_record_rejected(self, tmp_path):
        path = tmp_path / "junk.jsonl"
        write_jsonl(path, [{"reason": "x"}])  # no "contents"
        with pytest.raises(ValueError, match="manifest"):
            FlightRecorder.from_jsonl(path)
