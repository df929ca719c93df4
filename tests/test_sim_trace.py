"""Unit tests for statistics collection (repro.sim.trace)."""

import math

import numpy as np
import pytest

from repro.sim import Counter, StatRegistry, WelfordAccumulator


class TestCounter:
    def test_starts_at_zero_and_accumulates(self):
        c = Counter("x")
        assert c.value == 0
        c.add()
        c.add(2.5)
        assert c.value == 3.5

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            Counter("x").add(-1)


class TestWelford:
    def test_mean_matches_numpy(self):
        rng = np.random.default_rng(0)
        xs = rng.normal(5.0, 2.0, 1000)
        acc = WelfordAccumulator()
        for x in xs:
            acc.add(float(x))
        assert acc.count == 1000
        assert acc.mean == pytest.approx(float(xs.mean()), rel=1e-12)

    def test_empty_statistics_are_nan(self):
        acc = WelfordAccumulator()
        assert acc.count == 0
        assert math.isnan(acc.mean)

    def test_single_sample_mean_is_the_sample(self):
        acc = WelfordAccumulator()
        acc.add(3.0)
        assert acc.count == 1
        assert acc.mean == 3.0


class TestStatRegistry:
    def test_counter_and_accumulator_lookup(self):
        reg = StatRegistry()
        reg.count("a", 2)
        reg.count("a")
        reg.observe("lat", 1.0)
        reg.observe("lat", 3.0)
        assert reg.value("a") == 3
        assert reg.mean("lat") == 2.0

    def test_missing_counter_is_zero(self):
        assert StatRegistry().value("nope") == 0.0

    def test_missing_accumulator_is_nan(self):
        assert math.isnan(StatRegistry().mean("nope"))

    def test_snapshot_contains_everything(self):
        reg = StatRegistry()
        reg.count("msgs", 7)
        reg.observe("lat", 0.5)
        snap = reg.snapshot()
        assert snap["count.msgs"] == 7
        assert snap["mean.lat"] == 0.5
        assert snap["n.lat"] == 1

    def test_reset_zeroes_counters_and_accumulators(self):
        reg = StatRegistry()
        reg.count("msgs", 7)
        reg.observe("lat", 0.5)
        reg.reset()
        assert reg.value("msgs") == 0
        assert math.isnan(reg.mean("lat"))
