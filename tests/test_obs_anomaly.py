"""Telemetry-driven anomaly triggers (repro.obs.anomaly)."""

import pytest

from repro.obs.anomaly import AnomalyRule, AnomalyWatcher


class TestAnomalyRuleParse:
    def test_greater_than(self):
        rule = AnomalyRule.parse("mac.backlog_max_s>5")
        assert rule.series == "mac.backlog_max_s"
        assert rule.op == ">"
        assert rule.threshold == 5.0
        assert rule.spec == "mac.backlog_max_s>5"

    def test_less_than_and_whitespace(self):
        rule = AnomalyRule.parse("  stat.requests.served < 1 ")
        assert rule.series == "stat.requests.served"
        assert rule.op == "<"
        assert rule.threshold == 1.0

    def test_scientific_threshold(self):
        rule = AnomalyRule.parse("energy.uj_per_request>2e6")
        assert rule.threshold == 2e6

    @pytest.mark.parametrize("spec", [
        "no-operator-here",
        ">5",                  # no series
        "series>",             # no threshold
        "series>not_a_number",
        "",
    ])
    def test_bad_specs_raise(self, spec):
        with pytest.raises(ValueError):
            AnomalyRule.parse(spec)

    def test_breached(self):
        above = AnomalyRule.parse("x>2")
        assert above.breached(3.0) and not above.breached(2.0)
        below = AnomalyRule.parse("x<2")
        assert below.breached(1.0) and not below.breached(2.0)


class TestAnomalyWatcher:
    def test_fires_once_per_excursion_hysteresis(self):
        watcher = AnomalyWatcher(["x>5"])
        assert watcher.check(0.0, {"x": 1.0}) == 0
        assert watcher.check(1.0, {"x": 6.0}) == 1
        # Still breached: re-fire suppressed until the series recovers.
        assert watcher.check(2.0, {"x": 7.0}) == 0
        assert watcher.check(3.0, {"x": 4.0}) == 0  # re-arms
        assert watcher.check(4.0, {"x": 9.0}) == 1
        assert watcher.triggers == 2
        assert [f[0] for f in watcher.fired] == [1.0, 4.0]
        assert all(spec == "x>5" for _, spec, _ in watcher.fired)

    def test_absent_series_never_fires(self):
        watcher = AnomalyWatcher(["missing.series>0"])
        assert watcher.check(0.0, {"other": 100.0}) == 0
        assert watcher.triggers == 0

    def test_multiple_rules_independent(self):
        watcher = AnomalyWatcher(["a>1", "b<1"])
        assert watcher.check(0.0, {"a": 2.0, "b": 0.5}) == 2
        assert watcher.check(1.0, {"a": 2.0, "b": 2.0}) == 0
        assert watcher.check(2.0, {"a": 0.0, "b": 0.0}) == 1  # b re-fired

    def test_accepts_preparsed_rules(self):
        watcher = AnomalyWatcher([AnomalyRule("x", ">", 1.0), "y<0"])
        assert [r.spec for r in watcher.rules] == ["x>1", "y<0"]

    def test_recorder_receives_bundle(self, tmp_path):
        from repro.obs.recorder import FlightRecorder

        recorder = FlightRecorder(tmp_path)
        watcher = AnomalyWatcher(["x>5"], recorder=recorder)
        watcher.check(3.5, {"x": 8.25})
        assert len(recorder.manifests) == 1
        manifest = recorder.manifests[0]
        assert manifest["reason"] == "anomaly-x"
        assert manifest["context"]["rule"] == "x>5"
        assert manifest["context"]["value"] == 8.25
        assert manifest["sim_time"] == 3.5


class TestEndToEnd:
    def test_anomaly_fires_during_run_and_dumps_bundle(self, tmp_path):
        """A threshold any run crosses (total energy > tiny) fires on
        the first telemetry sample and leaves an anomaly bundle."""
        from repro.core.network import PReCinCtNetwork
        from repro.obs.observers import Observers
        from tests.conftest import tiny_config

        cfg = tiny_config(duration=60.0, warmup=10.0)
        observers = Observers(
            telemetry=True, telemetry_interval=5.0,
            recorder_dir=tmp_path,
            anomaly_rules=("energy.total_uj>1.0", "stat.never.seen>1e12"),
        )
        net = PReCinCtNetwork(cfg, observers=observers)
        net.run()
        assert net.anomaly is observers.anomaly
        assert observers.anomaly.triggers >= 1
        fired_specs = {spec for _, spec, _ in observers.anomaly.fired}
        assert "energy.total_uj>1" in fired_specs
        assert not any("never.seen" in s for s in fired_specs)
        anomaly_bundles = [
            m for m in observers.recorder.manifests
            if m["reason"].startswith("anomaly-energy.total_uj")
        ]
        assert anomaly_bundles
        assert (tmp_path / anomaly_bundles[0]["bundle"].split("/")[-1]).exists()
