"""Tests for telemetry time-series (repro.obs.telemetry)."""

import pytest

from repro.core.network import PReCinCtNetwork
from repro.obs import Observers, TelemetrySampler
from repro.sim import Simulator
from tests.conftest import tiny_config


class TestTelemetrySampler:
    def test_samples_at_interval_until_bound(self):
        sim = Simulator()
        sampler = TelemetrySampler(
            sim, lambda: {"v": sim.now * 2.0}, interval=2.0, until=10.0
        )
        sampler.start()
        sim.run(until=20.0)
        times = (2.0, 4.0, 6.0, 8.0, 10.0)
        assert sampler.rows == [(t, {"v": t * 2.0}) for t in times]
        assert sampler.bus.rows_published == 5

    def test_invalid_interval_rejected(self):
        with pytest.raises(ValueError):
            TelemetrySampler(Simulator(), dict, interval=0.0)

    def test_finalize_samples_short_run(self):
        # Duration shorter than the interval: the first tick never
        # fires, so without finalize there would be no row.
        sim = Simulator()
        sim.schedule(3.0, lambda: None)  # the run's only event
        sampler = TelemetrySampler(
            sim, lambda: {"v": sim.now}, interval=10.0, until=3.0
        )
        sampler.start()
        sim.run(until=3.0)
        assert sampler.rows == []
        assert sampler.finalize() is True
        assert sampler.rows == [(3.0, {"v": 3.0})]
        # Idempotent: the clock did not move, no second row.
        assert sampler.finalize() is False
        assert len(sampler.rows) == 1 and sampler.bus.rows_published == 1

    def test_finalize_noop_when_tick_landed_at_stop(self):
        sim = Simulator()
        sampler = TelemetrySampler(
            sim, lambda: {"v": sim.now}, interval=2.0, until=10.0
        )
        sampler.start()
        sim.run(until=10.0)
        assert len(sampler.rows) == 5
        assert sampler.finalize() is False
        assert len(sampler.rows) == 5

    def test_short_run_produces_nonempty_table(self):
        # Regression: duration < sample interval used to finish with
        # zero telemetry rows; the engine now finalizes at stop time.
        net = PReCinCtNetwork(
            tiny_config(seed=37),
            observers=Observers(telemetry=True, telemetry_interval=500.0),
        )
        net.run()
        rows = net.telemetry.rows
        assert [t for t, _ in rows] == pytest.approx([150.0])  # cfg.duration

    def test_run_level_sampling(self):
        net = PReCinCtNetwork(
            tiny_config(seed=37),
            observers=Observers(telemetry=True, telemetry_interval=10.0),
        )
        net.run()
        rows = net.telemetry.rows
        assert len(rows) == 15  # 150 s duration / 10 s interval
        columns = set().union(*(values for _, values in rows))
        assert any(c.startswith("stat.") for c in columns)
        assert any(c.startswith("cache.region") for c in columns)
        assert "mac.backlog_total_s" in columns
        # Counters are monotone after the warmup reset (t = 30 s).
        sent = [
            values["stat.net.unicast_sent"]
            for t, values in rows if t > 30.0
        ]
        assert sent == sorted(sent)
        assert sent[-1] > 0
