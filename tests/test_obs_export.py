"""Shared exporter surface (repro.obs.export) and the trace JSONL
round trip (``Tracer.to_jsonl`` -> ``load_traces``)."""

import json

import pytest

from repro.obs.export import export_path, write_jsonl
from repro.obs.tracediff import load_traces
from repro.obs.tracer import Tracer


class TestExportHelpers:
    def test_write_read_roundtrip(self, tmp_path):
        path = tmp_path / "records.jsonl"
        records = [{"a": 1}, {"c": "x", "b": [1, 2, 3]}]
        assert write_jsonl(path, records) == 2
        lines = path.read_text(encoding="utf-8").splitlines()
        assert [json.loads(line) for line in lines] == records
        assert lines[1] == '{"b": [1, 2, 3], "c": "x"}'

    def test_parent_directories_created(self, tmp_path):
        path = tmp_path / "deep" / "nested" / "out.jsonl"
        write_jsonl(path, [{"a": 1}])
        assert path.exists()

    def test_directory_target_rejected(self, tmp_path):
        with pytest.raises(IsADirectoryError):
            export_path(tmp_path)

    def test_user_expansion(self):
        assert "~" not in str(export_path("~/somewhere/out.jsonl"))


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
