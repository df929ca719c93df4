"""Tests for telemetry time-series (repro.obs.telemetry)."""

import math

import pytest

from repro.core.network import PReCinCtNetwork
from repro.obs import Observers, TelemetrySampler, TelemetryTable
from repro.sim import Simulator
from tests.conftest import tiny_config


class TestTelemetryTable:
    def test_round_trip_decoding(self):
        table = TelemetryTable()
        table.append(5.0, {"a": 1.0, "b": 10.0})
        table.append(10.0, {"a": 3.0, "b": 10.0})
        table.append(15.0, {"a": 3.0, "b": 7.5})
        assert len(table) == 3
        assert table.times() == pytest.approx([5.0, 10.0, 15.0])
        assert table.column("a") == pytest.approx([1.0, 3.0, 3.0])
        assert table.column("b") == pytest.approx([10.0, 10.0, 7.5])

    def test_delta_encoding_is_compact_for_monotone_counters(self):
        table = TelemetryTable()
        for i in range(1, 6):
            table.append(float(i), {"count": float(100 + i)})
        # First value, then +1 deltas.
        assert table._deltas["count"] == pytest.approx(
            [101.0, 1.0, 1.0, 1.0, 1.0]
        )

    def test_late_column_zero_backfilled(self):
        table = TelemetryTable()
        table.append(1.0, {"a": 5.0})
        table.append(2.0, {"a": 6.0, "late": 2.0})
        assert table.column("late") == pytest.approx([0.0, 2.0])
        rows = table.rows()
        assert rows[0]["late"] == 0.0 and rows[1]["late"] == 2.0

    def test_missing_column_carries_forward(self):
        table = TelemetryTable()
        table.append(1.0, {"a": 5.0, "b": 2.0})
        table.append(2.0, {"a": 6.0})  # b absent this sample
        assert table.column("b") == pytest.approx([2.0, 2.0])

    def test_tail(self):
        table = TelemetryTable()
        for i in range(5):
            table.append(float(i), {"x": float(i)})
        tail = table.tail(2)
        assert [row["x"] for row in tail] == [3.0, 4.0]
        assert table.tail(0) == []

    def test_tail_longer_than_table(self):
        table = TelemetryTable()
        table.append(1.0, {"x": 1.0})
        table.append(2.0, {"x": 2.0})
        tail = table.tail(10)
        assert [row["x"] for row in tail] == [1.0, 2.0]
        assert TelemetryTable().tail(5) == []

    def test_nan_does_not_poison_delta_chain(self):
        table = TelemetryTable()
        table.append(1.0, {"g": 5.0})
        table.append(2.0, {"g": float("nan")})
        table.append(3.0, {"g": 7.0})
        decoded = table.column("g")
        assert decoded[0] == 5.0
        assert math.isnan(decoded[1])
        # The chain resumes from the pre-NaN value, not from NaN.
        assert decoded[2] == 7.0
        table.append(4.0, {"g": 8.0})
        assert table.column("g")[3] == 8.0

    def test_nan_dict_round_trip(self):
        table = TelemetryTable()
        table.append(1.0, {"g": 1.0, "h": 2.0})
        table.append(2.0, {"g": float("nan")})
        table.append(3.0, {"g": 3.0, "h": 4.0})
        restored = TelemetryTable.from_dict(table.to_dict())
        decoded = restored.column("g")
        assert decoded[0] == 1.0 and math.isnan(decoded[1])
        assert decoded[2] == 3.0
        # _last recovered from finite deltas only: appends stay correct.
        restored.append(4.0, {"g": 5.0})
        assert restored.column("g")[3] == 5.0

    def test_empty_table_round_trips(self, tmp_path):
        table = TelemetryTable()
        assert table.rows() == []
        restored = TelemetryTable.from_dict(table.to_dict())
        assert len(restored) == 0 and restored.rows() == []
        path = tmp_path / "empty.jsonl"
        table.to_jsonl(path)
        loaded = TelemetryTable.from_jsonl(path)
        assert len(loaded) == 0 and loaded.rows() == []

    def test_jsonl_round_trip_with_nan(self, tmp_path):
        table = TelemetryTable()
        table.append(1.0, {"g": 1.0})
        table.append(2.0, {"g": float("nan"), "late": 3.0})
        path = tmp_path / "t.jsonl"
        table.to_jsonl(path)
        loaded = TelemetryTable.from_jsonl(path)
        decoded = loaded.column("g")
        assert decoded[0] == 1.0 and math.isnan(decoded[1])
        assert loaded.column("late") == pytest.approx([0.0, 3.0])

    def test_non_monotonic_column_sets_stable(self):
        # Columns that come and go (late mint, then absent, then back)
        # must decode identically after a dict round trip.
        table = TelemetryTable()
        table.append(1.0, {"a": 1.0})
        table.append(2.0, {"a": 2.0, "b": 10.0})
        table.append(3.0, {"b": 20.0})
        table.append(4.0, {"a": 4.0})
        restored = TelemetryTable.from_dict(table.to_dict())
        assert restored.rows() == table.rows()
        assert restored.column("a") == pytest.approx([1.0, 2.0, 2.0, 4.0])
        assert restored.column("b") == pytest.approx([0.0, 10.0, 20.0, 20.0])

    def test_json_round_trip(self, tmp_path):
        table = TelemetryTable()
        table.append(1.0, {"a": 5.0})
        table.append(3.0, {"a": 7.0, "b": 1.0})
        path = tmp_path / "telemetry.json"
        table.to_json(path)
        restored = TelemetryTable.from_json(path)
        assert restored.rows() == table.rows()
        # Restored tables keep accepting samples with correct deltas.
        restored.append(4.0, {"a": 8.0})
        assert restored.column("a") == pytest.approx([5.0, 7.0, 8.0])


class TestTelemetrySampler:
    def test_samples_at_interval_until_bound(self):
        sim = Simulator()
        sampler = TelemetrySampler(
            sim, lambda: {"v": sim.now * 2.0}, interval=2.0, until=10.0
        )
        sampler.start()
        sim.run(until=20.0)
        assert sampler.samples_taken == 5  # t = 2, 4, 6, 8, 10
        assert sampler.table.times() == pytest.approx([2.0, 4.0, 6.0, 8.0, 10.0])
        assert sampler.table.column("v") == pytest.approx(
            [4.0, 8.0, 12.0, 16.0, 20.0]
        )

    def test_invalid_interval_rejected(self):
        with pytest.raises(ValueError):
            TelemetrySampler(Simulator(), dict, interval=0.0)

    def test_finalize_samples_short_run(self):
        # Duration shorter than the interval: the first tick never
        # fires, so without finalize the table would be empty.
        sim = Simulator()
        sim.schedule(3.0, lambda: None)  # the run's only event
        sampler = TelemetrySampler(
            sim, lambda: {"v": sim.now}, interval=10.0, until=3.0
        )
        sampler.start()
        sim.run(until=3.0)
        assert sampler.samples_taken == 0
        assert sampler.finalize() is True
        assert sampler.table.times() == pytest.approx([3.0])
        assert sampler.table.column("v") == pytest.approx([3.0])
        # Idempotent: the clock did not move, no second row.
        assert sampler.finalize() is False
        assert len(sampler.table) == 1

    def test_finalize_noop_when_tick_landed_at_stop(self):
        sim = Simulator()
        sampler = TelemetrySampler(
            sim, lambda: {"v": sim.now}, interval=2.0, until=10.0
        )
        sampler.start()
        sim.run(until=10.0)
        assert sampler.samples_taken == 5
        assert sampler.finalize() is False
        assert len(sampler.table) == 5

    def test_short_run_produces_nonempty_table(self):
        # Regression: duration < sample interval used to finish with
        # zero telemetry rows; the engine now finalizes at stop time.
        net = PReCinCtNetwork(
            tiny_config(seed=37),
            observers=Observers(telemetry=True, telemetry_interval=500.0),
        )
        net.run()
        table = net.telemetry.table
        assert len(table) == 1
        assert table.times() == pytest.approx([150.0])  # cfg.duration

    def test_run_level_sampling(self):
        net = PReCinCtNetwork(
            tiny_config(seed=37),
            observers=Observers(telemetry=True, telemetry_interval=10.0),
        )
        net.run()
        table = net.telemetry.table
        assert len(table) == 15  # 150 s duration / 10 s interval
        columns = table.columns
        assert any(c.startswith("stat.") for c in columns)
        assert any(c.startswith("cache.region") for c in columns)
        assert "mac.backlog_total_s" in columns
        # Counters are monotone after the warmup reset (t = 30 s).
        sent = [
            row["stat.net.unicast_sent"]
            for row in table.rows() if row["t"] > 30.0
        ]
        assert sent == sorted(sent)
        assert sent[-1] > 0
