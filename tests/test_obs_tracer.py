"""Tests for request tracing (repro.obs.tracer) and its wiring.

The two acceptance properties of the observability layer live here:

* **digest neutrality** — the faulted golden scenario run with full
  observability (tracing + telemetry) produces byte-
  identical event-log and report digests to the same run without;
* **phase-sum identity** — each completed request's phase spans
  partition its latency exactly.
"""

import json

import pytest

from repro.core.network import PReCinCtNetwork
from repro.faults.audit import run_scenario
from repro.obs import Observers, Tracer
from tests.conftest import tiny_config


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class TestTracerUnit:
    def test_begin_bind_lookup_finish(self):
        clock = FakeClock()
        tracer = Tracer(clock)
        trace = tracer.begin(peer=3, key=7)
        tracer.bind(trace, 101)
        assert tracer.lookup(101) is trace
        assert tracer.open_traces == 1
        clock.now = 2.5
        tracer.finish(trace, "home", request_id=101)
        assert tracer.lookup(101) is None
        assert tracer.open_traces == 0
        assert trace.outcome == "home"
        assert trace.latency == pytest.approx(2.5)
        assert tracer.completed() == [trace]

    def test_phase_spans_partition_latency(self):
        clock = FakeClock()
        tracer = Tracer(clock)
        trace = tracer.begin(0, 1)
        tracer.phase(trace, "local")
        clock.now = 0.25
        tracer.phase(trace, "home")
        clock.now = 3.25
        tracer.phase(trace, "replica")
        clock.now = 4.0
        tracer.finish(trace, "replica")
        phases = trace.phase_breakdown()
        assert [s.name for s in phases] == [
            "phase.local", "phase.home", "phase.replica"
        ]
        assert [s.duration for s in phases] == pytest.approx([0.25, 3.0, 0.75])
        assert sum(s.duration for s in phases) == pytest.approx(trace.latency)

    def test_points_and_fault_tags(self):
        clock = FakeClock()
        tracer = Tracer(clock)
        trace = tracer.begin(0, 1)
        tracer.bind(trace, 5)
        tracer.phase(trace, "home")
        tracer.point_by_request(5, "gpsr.hop", peer=2, to=3)
        tracer.tag_fault(5, "drop")
        assert trace.fault_tags == ["drop"]
        assert trace.open_phase.fault_tags == ["drop"]
        hop = [s for s in trace.spans if s.name == "gpsr.hop"]
        assert len(hop) == 1 and hop[0].attrs["to"] == 3
        # Unknown request ids are silently ignored (prefetches, finished).
        tracer.point_by_request(999, "gpsr.hop")
        tracer.tag_fault(999, "drop")
        tracer.point_by_request(None, "gpsr.hop")

    def test_span_cap_drops_and_counts(self):
        from repro.obs.tracer import SPANS_PER_TRACE_CAP

        tracer = Tracer(FakeClock())
        trace = tracer.begin(0, 1)
        for i in range(SPANS_PER_TRACE_CAP + 10):
            tracer.point(trace, "gpsr.hop", peer=0, i=i)
        assert len(trace.spans) == SPANS_PER_TRACE_CAP
        assert trace.dropped_spans == 10

    def test_completed_capacity_bound(self):
        tracer = Tracer(FakeClock(), capacity=3)
        for i in range(5):
            tracer.finish(tracer.begin(0, i), "home")
        assert len(tracer) == 3
        assert tracer.dropped_traces == 2

    def test_queries(self):
        clock = FakeClock()
        tracer = Tracer(clock)
        for i, outcome in enumerate(["home", "home", "failed"]):
            trace = tracer.begin(0, i)
            clock.now = float(i)
            tracer.finish(trace, outcome)
            clock.now = 0.0
        assert tracer.outcome_counts() == {"home": 2, "failed": 1}
        slowest = tracer.slowest(2)
        assert [t.key for t in slowest] == [2, 1]
        assert len(tracer.completed("home")) == 2

    def test_exports(self, tmp_path):
        clock = FakeClock()
        tracer = Tracer(clock)
        trace = tracer.begin(4, 9)
        tracer.phase(trace, "local")
        tracer.point(trace, "cache.lookup", peer=4, result="miss")
        clock.now = 1.0
        tracer.finish(trace, "regional")

        jsonl = tmp_path / "traces.jsonl"
        assert tracer.to_jsonl(jsonl) == 1
        rec = json.loads(jsonl.read_text().splitlines()[0])
        assert rec["outcome"] == "regional"
        assert {s["name"] for s in rec["spans"]} == {
            "phase.local", "cache.lookup"
        }

        chrome = tmp_path / "trace.json"
        n = tracer.to_chrome_trace(chrome)
        events = json.loads(chrome.read_text())["traceEvents"]
        assert n == len(events) == 2
        phases = [e for e in events if e["ph"] == "X"]
        instants = [e for e in events if e["ph"] == "i"]
        assert len(phases) == 1 and phases[0]["dur"] == pytest.approx(1e6)
        assert len(instants) == 1
        assert instants[0]["args"]["result"] == "miss"


class TestTracedRuns:
    def test_traced_run_records_requests(self):
        net = PReCinCtNetwork(
            tiny_config(seed=31), observers=Observers(tracing=True)
        )
        report = net.run()
        tracer = net.tracer
        assert tracer is not None
        outcomes = tracer.outcome_counts()
        served = {
            "local-static", "local-cache", "regional", "home",
            "replica", "intercept",
        }
        assert sum(outcomes.get(cls, 0) for cls in served) > 0
        names = tracer.span_counts()
        assert names.get("cache.lookup", 0) > 0
        assert names.get("phase.local", 0) > 0
        # Log totals exceed the post-warmup metrics window.
        assert len(tracer) >= report.requests_served

    def test_phase_sum_equals_latency_on_every_trace(self):
        """Acceptance: per-span breakdowns sum to the request latency."""
        net = PReCinCtNetwork(
            tiny_config(seed=33, max_speed=8.0),
            observers=Observers(tracing=True),
        )
        net.run()
        request_outcomes = {
            "local-static", "local-cache", "regional", "home",
            "replica", "intercept", "failed",
        }
        checked = 0
        for trace in net.tracer.completed():
            if trace.outcome not in request_outcomes:
                continue
            phases = trace.phase_breakdown()
            if trace.latency == 0.0:
                assert not phases  # zero-hop local serves have no phases
                continue
            assert phases, f"nonzero-latency trace without phases: {trace!r}"
            total = sum(span.duration for span in phases)
            assert total == pytest.approx(trace.latency, abs=1e-9)
            checked += 1
        assert checked > 0

    def test_observability_is_digest_neutral_on_faulted_scenario(self):
        """Acceptance: tracing+telemetry never change digests."""
        _, _, plain = run_scenario("faulted", seed=42)
        net, _, observed = run_scenario(
            "faulted", seed=42,
            observers=Observers(tracing=True, telemetry=True),
        )
        assert observed.eventlog == plain.eventlog
        assert observed.report == plain.report
        # ... and the observers actually observed something.
        assert len(net.tracer) > 0
        assert len(net.telemetry.rows) > 0


class TestTraceCli:
    def test_trace_command_slowest_breakdown(self, capsys):
        from repro.cli import main

        rc = main(
            ["run", "--nodes", "20", "--items", "80", "--duration", "120",
             "--warmup", "20", "--slowest", "5"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "traces:" in out
        assert "outcomes:" in out
        assert "phase." in out
        assert "(phase sum)" in out

    def test_trace_command_exports(self, tmp_path, capsys):
        from repro.cli import main

        jsonl = tmp_path / "t.jsonl"
        chrome = tmp_path / "t.json"
        rc = main(
            ["run", "--nodes", "16", "--items", "60", "--duration", "80",
             "--warmup", "10", "--slowest", "0",
             "--export-trace", str(jsonl), "--export-chrome", str(chrome)]
        )
        assert rc == 0
        assert jsonl.exists() and chrome.exists()
        # Any tracing flag arms energy attribution too.
        assert "energy_uj" in jsonl.read_text()
        assert json.loads(chrome.read_text())["traceEvents"]
