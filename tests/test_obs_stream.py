"""Tests for the streaming telemetry bus (repro.obs.stream)."""

import io
import json

import pytest

from repro.core.network import PReCinCtNetwork
from repro.obs.stream import (
    JsonlLiveSink,
    MetricsSnapshotWriter,
    RingSubscriber,
    TelemetryBus,
    prometheus_name,
)
from repro.obs.watch import watch_file
from tests.conftest import tiny_config


class TestRingSubscriber:
    def test_bounded_history(self):
        sub = RingSubscriber(history=3)
        for i in range(5):
            sub.on_row(float(i), {"x": float(i)})
        assert len(sub) == 3
        assert [t for t, _ in sub.rows] == [2.0, 3.0, 4.0]
        assert sub.last == {"x": 4.0}

    def test_series_fills_absent_with_zero(self):
        sub = RingSubscriber()
        sub.on_row(1.0, {"a": 5.0})
        sub.on_row(2.0, {"a": 6.0, "b": 1.0})
        assert sub.series("b") == [0.0, 1.0]
        assert sub.last == {"a": 6.0, "b": 1.0}

    def test_empty(self):
        sub = RingSubscriber()
        assert sub.last is None
        assert sub.series("anything") == []

    def test_invalid_history_rejected(self):
        with pytest.raises(ValueError):
            RingSubscriber(history=0)


class TestTelemetryBus:
    def test_fan_out_rows_and_events(self):
        bus = TelemetryBus()
        sub_a = bus.subscribe(history=8)
        sub_b = bus.subscribe(history=8)
        seen = []
        bus.add_listener(lambda t, v: seen.append((t, v)))
        bus.publish(1.0, {"x": 1.0})
        bus.publish_event(1.0, "anomaly", {"rule": "x>0"})
        bus.publish(2.0, {"x": 2.0})
        assert len(sub_a) == 2 and len(sub_b) == 2
        assert seen == [(1.0, {"x": 1.0}), (2.0, {"x": 2.0})]
        assert list(sub_a.events) == [(1.0, "anomaly", {"rule": "x>0"})]
        assert bus.rows_published == 2
        assert bus.events_published == 1

    def test_sinks_see_rows_before_listeners(self):
        # The dashboard (a listener) reads its RingSubscriber (a sink)
        # during render, so sinks must be fed first.
        bus = TelemetryBus()
        sub = bus.subscribe()
        observed = []
        bus.add_listener(lambda t, v: observed.append(sub.last))
        bus.publish(1.0, {"x": 7.0})
        assert observed == [{"x": 7.0}]

    def test_close_is_idempotent(self, tmp_path):
        bus = TelemetryBus()
        sink = JsonlLiveSink(tmp_path / "live.jsonl")
        bus.attach_sink(sink)
        bus.publish(1.0, {"x": 1.0})
        bus.close()
        bus.close()
        lines = (tmp_path / "live.jsonl").read_text().splitlines()
        assert json.loads(lines[-1]) == {"record": "end", "rows": 1}


class TestJsonlLiveSink:
    def test_tailable_mid_run(self, tmp_path):
        # Every record is flushed, so the file is complete JSONL even
        # before close() — the property 'tail -f' and --follow rely on.
        path = tmp_path / "live.jsonl"
        sink = JsonlLiveSink(path)
        sink.on_row(5.0, {"a": 1.0})
        sink.on_event(5.0, "anomaly", {"rule": "a>0", "value": 1.0})
        lines = [json.loads(l) for l in path.read_text().splitlines()]
        assert lines[0]["record"] == "header" and lines[0]["live"] is True
        assert lines[1] == {"record": "row", "t": 5.0, "a": 1.0}
        assert lines[2]["record"] == "anomaly" and lines[2]["rule"] == "a>0"
        sink.close()
        sink.close()  # idempotent: exactly one end marker
        lines = [json.loads(l) for l in path.read_text().splitlines()]
        assert [l["record"] for l in lines] == [
            "header", "row", "anomaly", "end",
        ]
        assert lines[-1]["rows"] == 1

    def test_finished_export_loads_as_table(self, tmp_path):
        path = tmp_path / "live.jsonl"
        sink = JsonlLiveSink(path)
        sink.on_row(1.0, {"a": 1.0})
        sink.on_event(1.0, "anomaly", {"rule": "a>0"})
        sink.on_row(2.0, {"a": 2.0})
        sink.close()
        result = watch_file(path, mode="plain", out=io.StringIO())
        assert (result.rows, result.events, result.ended) == (2, 1, True)


class TestMetricsSnapshotWriter:
    def test_prometheus_name_sanitized(self):
        assert prometheus_name("stat.net.unicast_sent") == (
            "repro_stat_net_unicast_sent"
        )
        assert prometheus_name("cache.region3.bytes") == (
            "repro_cache_region3_bytes"
        )

    def test_snapshot_rewritten_per_row(self, tmp_path):
        path = tmp_path / "metrics.prom"
        writer = MetricsSnapshotWriter(path)
        writer.on_row(5.0, {"stat.net.delivered": 10.0})
        text = path.read_text()
        assert "repro_sim_time_seconds 5" in text
        assert "# TYPE repro_stat_net_delivered gauge" in text
        assert "repro_stat_net_delivered 10" in text
        writer.on_row(10.0, {"stat.net.delivered": 25.0})
        text = path.read_text()
        assert "repro_sim_time_seconds 10" in text
        assert "repro_stat_net_delivered 25" in text
        assert "repro_stat_net_delivered 10" not in text
        assert writer.snapshots_written == 2
        assert not path.with_name(path.name + ".tmp").exists()


class TestRunIntegration:
    def test_run_streams_rows_and_anomaly_events(self, tmp_path):
        from repro.obs.observers import Observers

        live = tmp_path / "live.jsonl"
        prom = tmp_path / "metrics.prom"
        net = PReCinCtNetwork(
            tiny_config(seed=37),
            observers=Observers(
                live_export=live,
                metrics_snapshot=prom,
                telemetry_interval=10.0,
                anomaly_rules=("energy.total_uj>1",),
            ),
        )
        net.run()
        records = [json.loads(l) for l in live.read_text().splitlines()]
        kinds = [r["record"] for r in records]
        assert kinds[0] == "header" and kinds[-1] == "end"
        rows = [r for r in records if r["record"] == "row"]
        assert len(rows) == 15  # 150 s / 10 s
        assert records[-1]["rows"] == 15
        # Each anomaly record directly follows the row that fired it.
        anomalies = [i for i, kind in enumerate(kinds) if kind == "anomaly"]
        assert anomalies
        for i in anomalies:
            row, event = records[i - 1], records[i]
            assert row["record"] == "row" and row["t"] == event["t"]
            assert event["rule"] == "energy.total_uj>1"
            assert row[event["series"]] == event["value"]
        assert net.observers.bus.rows_published == 15
        # The snapshot file holds the final row's gauges.
        assert "repro_sim_time_seconds 150" in prom.read_text()

    def test_stream_implies_telemetry(self):
        from repro.obs.observers import Observers

        # Telemetry is the stream: the sampler's rows are the bus's rows.
        net = PReCinCtNetwork(
            tiny_config(seed=37), observers=Observers(telemetry=True)
        )
        assert net.observers.bus is net.telemetry.bus
        net.run()
        assert net.observers.bus.rows_published == len(net.telemetry.rows)
