"""Tests for structured event logging (repro.sim.eventlog + peer traces)."""

import pytest

from repro.core.network import PReCinCtNetwork
from repro.sim.eventlog import Event, EventLog
from tests.conftest import tiny_config


class TestEventLog:
    def test_record_and_query(self):
        log = EventLog()
        log.record(1.0, "a", x=1)
        log.record(2.0, "b")
        log.record(3.0, "a", x=2)
        assert len(log) == 3
        assert [e.fields["x"] for e in log.of_kind("a")] == [1, 2]
        assert log.counts() == {"a": 2, "b": 1}

    def test_between_window(self):
        log = EventLog()
        for t in (0.5, 1.5, 2.5):
            log.record(t, "k")
        assert len(log.between(1.0, 2.5)) == 1

    def test_capacity_bound_drops_oldest(self):
        log = EventLog(capacity=3)
        for i in range(5):
            log.record(float(i), "k", i=i)
        assert len(log) == 3
        assert log.dropped == 2
        assert [e.fields["i"] for e in log] == [2, 3, 4]

    def test_unbounded(self):
        log = EventLog(capacity=None)
        for i in range(1000):
            log.record(float(i), "k")
        assert len(log) == 1000
        assert log.dropped == 0

    def test_clear(self):
        log = EventLog()
        log.record(1.0, "k")
        log.clear()
        assert len(log) == 0


class TestProtocolTracing:
    def test_disabled_by_default(self):
        net = PReCinCtNetwork(tiny_config())
        assert net.log is None
        net.run()  # trace() calls are no-ops

    def test_request_lifecycle_logged(self):
        net = PReCinCtNetwork(tiny_config(enable_event_log=True, seed=19))
        report = net.run()
        assert net.log is not None
        counts = net.log.counts()
        assert counts.get("request.issued", 0) > 0
        assert counts.get("request.served", 0) > 0
        # Log totals track the metrics (log is bounded: allow drops).
        if net.log.dropped == 0:
            issued = counts["request.issued"]
            # Warm-up resets metrics but not the log, so the log sees
            # at least as many issues as the metrics window.
            assert issued >= report.requests_issued

    def test_serve_events_carry_latency_and_class(self):
        net = PReCinCtNetwork(tiny_config(enable_event_log=True, seed=19))
        net.run()
        served = net.log.of_kind("request.served")
        assert served
        for e in served[:50]:
            assert "serve_class" in e.fields
            assert e.fields["latency"] >= 0.0

    def test_mobility_events_logged(self):
        net = PReCinCtNetwork(
            tiny_config(enable_event_log=True, max_speed=12.0, seed=21)
        )
        net.run()
        counts = net.log.counts()
        assert counts.get("peer.region_change", 0) > 0

    def test_dropped_count_surfaced_in_report(self):
        net = PReCinCtNetwork(tiny_config(enable_event_log=True, seed=19))
        report = net.run()
        assert report.eventlog_dropped == net.log.dropped
        # Shrink the ring mid-flight: the report reflects the truncation.
        net.log._events = type(net.log._events)(net.log._events, 10)
        net.log._capacity = 10
        net.log.record(9999.0, "overflow")
        assert net.log.dropped > 0
        assert net.report().eventlog_dropped == net.log.dropped

    def test_update_events_logged(self):
        net = PReCinCtNetwork(
            tiny_config(
                enable_event_log=True,
                consistency="push-adaptive-pull",
                t_update=40.0,
                seed=23,
            )
        )
        net.run()
        assert net.log.counts().get("update.committed", 0) > 0
