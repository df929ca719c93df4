"""Tests for the flight recorder (repro.obs.recorder) and its triggers."""

import json

import pytest

from repro.core.network import PReCinCtNetwork
from repro.faults.plan import FaultPlan, FaultSpec
from repro.obs import FlightRecorder, Observers, Tracer
from repro.sim.eventlog import EventLog
from tests.conftest import tiny_config


def _read_manifest(bundle):
    return json.loads((bundle / "manifest.json").read_text(encoding="utf-8"))


class TestFlightRecorderUnit:
    def test_bundle_contents(self, tmp_path):
        log = EventLog()
        for i in range(10):
            log.record(float(i), "k", i=i)
        tracer = Tracer(lambda: 9.0)
        trace = tracer.begin(1, 2)
        tracer.finish(trace, "failed")
        rows = [(1.0, {"x": 1.0})]

        recorder = FlightRecorder(
            tmp_path / "bundles", eventlog=log, tracer=tracer,
            telemetry=rows, last_events=4,
        )
        bundle = recorder.dump(
            "request-failed", context={"peer": 1}, trace=trace, sim_time=9.0
        )
        assert bundle is not None and bundle.is_dir()
        assert bundle.name == "000-request-failed"

        manifest = _read_manifest(bundle)
        assert manifest["reason"] == "request-failed"
        assert manifest["sim_time"] == 9.0
        assert manifest["context"] == {"peer": 1}
        assert set(manifest["contents"]) == {
            "events.jsonl", "trace.json", "telemetry_tail.json"
        }

        events = [
            json.loads(line)
            for line in (bundle / "events.jsonl").read_text().splitlines()
        ]
        assert len(events) == 4  # last_events tail only
        assert [e["fields"]["i"] for e in events] == [6, 7, 8, 9]

        dumped = json.loads((bundle / "trace.json").read_text())
        assert dumped["outcome"] == "failed"

    def test_optional_sources_omitted(self, tmp_path):
        recorder = FlightRecorder(tmp_path)
        bundle = recorder.dump("bare")
        manifest = _read_manifest(bundle)
        assert manifest["contents"] == []

    def test_max_dumps_cap(self, tmp_path):
        recorder = FlightRecorder(tmp_path, max_dumps=2)
        assert recorder.dump("one") is not None
        assert recorder.dump("two") is not None
        assert recorder.dump("three") is None
        assert recorder.triggers == 3
        assert len(recorder.dumps_written) == 2

    @pytest.mark.parametrize("bad", [{"last_events": 0}, {"max_dumps": 0}],
                             ids=["last_events", "max_dumps"])
    def test_nonpositive_bounds_rejected(self, tmp_path, bad):
        # last_events=0 used to put the whole log in every bundle
        # (list(log)[-0:]); max_dumps=0 armed a recorder that never wrote.
        with pytest.raises(ValueError, match=next(iter(bad))):
            FlightRecorder(tmp_path, **bad)

    def test_reason_slugified(self, tmp_path):
        recorder = FlightRecorder(tmp_path)
        bundle = recorder.dump("weird reason: %$!")
        assert bundle.name == "000-weird-reason"


class TestRecorderWiring:
    def test_failed_requests_dump_bundles(self, tmp_path):
        """Heavy message loss under faults → unserved requests → bundles."""
        plan = FaultPlan((
            FaultSpec("drop", start=0.0, end=150.0, probability=0.9),
        ))
        net = PReCinCtNetwork(
            tiny_config(fault_plan=plan, seed=41),
            observers=Observers(
                tracing=True,
                recorder_dir=str(tmp_path),
                recorder_max_dumps=3,
            ),
        )
        report = net.run()
        assert report.requests_failed > 0
        assert net.recorder.triggers >= report.requests_failed
        bundles = net.recorder.dumps_written
        assert 0 < len(bundles) <= 3
        manifest = _read_manifest(bundles[0])
        assert manifest["reason"] == "request-failed"
        assert "request_id" in manifest["context"]
        # Tracing was on, so the offending request's trace is included.
        assert "trace.json" in manifest["contents"]

    def test_telemetry_tail_is_the_last_published_rows(self, tmp_path):
        """Each bundle's tail is the last <=50 rows the bus published
        before the dump, exactly as they were published."""
        plan = FaultPlan((
            FaultSpec("drop", start=100.0, end=150.0, probability=0.9),
        ))
        net = PReCinCtNetwork(
            tiny_config(fault_plan=plan, seed=41),
            observers=Observers(
                telemetry=True,
                telemetry_interval=1.0,
                recorder_dir=str(tmp_path),
                recorder_max_dumps=3,
            ),
        )
        published = []
        net.observers.bus.add_listener(
            lambda t, values: published.append({"t": t, **values})
        )
        seen_at_dump = []
        dump = net.recorder.dump

        def counting_dump(*args, **kwargs):
            seen_at_dump.append(len(published))
            return dump(*args, **kwargs)

        net.recorder.dump = counting_dump
        net.run()
        bundles = net.recorder.dumps_written
        assert len(bundles) == 3
        for bundle, n in zip(bundles, seen_at_dump):
            tail = json.loads((bundle / "telemetry_tail.json").read_text())
            assert n > 50 and tail == published[:n][-50:]

    def test_recorder_is_digest_neutral(self, tmp_path):
        from repro.faults.audit import run_scenario

        _, _, plain = run_scenario("faulted", seed=42)
        net, _, armed = run_scenario(
            "faulted", seed=42,
            observers=Observers(recorder_dir=tmp_path / "bundles"),
        )
        assert armed.eventlog == plain.eventlog
        assert armed.report == plain.report
        assert net.recorder is not None

    def test_audit_divergence_bundle(self, tmp_path):
        """A golden mismatch leaves a forensic bundle in bundle_dir."""
        from repro.faults.audit import audit_scenario

        bogus_golden = {
            "baseline": {"seed": 42, "eventlog": "bogus", "report": "bogus"}
        }
        result = audit_scenario(
            "baseline", seed=42, runs=2, golden=bogus_golden,
            bundle_dir=tmp_path,
        )
        assert result.golden_match is False
        mismatch_bundles = list(tmp_path.glob("*golden-mismatch*"))
        assert len(mismatch_bundles) == 1
        manifest = _read_manifest(mismatch_bundles[0])
        assert manifest["context"]["scenario"] == "baseline"
        assert any("flight-recorder bundle" in m for m in result.messages)
