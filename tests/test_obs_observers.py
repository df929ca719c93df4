"""The Observers composition object (repro.obs.observers).

The legacy ``observability=`` / ``bundle_dir=`` / ``trace_sample_rate=``
run_scenario keywords completed their one-release deprecation cycle and
are gone; ``TestRunScenarioObserversOnly`` pins both their removal and
that the ``observers=`` replacement covers everything they did.
"""

import inspect
import warnings

import pytest

from repro.core.network import PReCinCtNetwork
from repro.obs.observers import Observers
from tests.conftest import tiny_config


def _quick_cfg(**overrides):
    return tiny_config(duration=40.0, warmup=10.0, **overrides)


class TestObserversAttach:
    def test_engine_properties_mirror_observers(self):
        observers = Observers(tracing=True, telemetry=True,
                              energy_attribution=True)
        net = PReCinCtNetwork(_quick_cfg(), observers=observers)
        assert net.tracer is observers.tracer
        assert net.telemetry is observers.telemetry
        assert net.energy_attribution is observers.energy

    def test_anomaly_rules_wire_telemetry_to_recorder(self, tmp_path):
        observers = Observers(telemetry=True, recorder_dir=tmp_path,
                              anomaly_rules=("mac.backlog_max_s>1e12",))
        net = PReCinCtNetwork(_quick_cfg(), observers=observers)
        assert observers.anomaly is not None
        assert observers.anomaly.recorder is observers.recorder
        assert observers.bus is observers.telemetry.bus
        assert observers.bus._listeners == [observers.anomaly.check]
        net.run()
        assert observers.anomaly.triggers == 0  # absurd threshold

    def test_reattach_raises(self):
        observers = Observers()
        PReCinCtNetwork(_quick_cfg(), observers=observers)
        with pytest.raises(RuntimeError, match="already attached"):
            PReCinCtNetwork(_quick_cfg(), observers=observers)

    def test_attached_property(self):
        observers = Observers()
        assert not observers.attached
        PReCinCtNetwork(_quick_cfg(), observers=observers)
        assert observers.attached


class TestOptionValidation:
    """Every rule raises at ``Observers(...)``, before any engine exists."""

    def test_defaults_off(self):
        defaults = {
            name: p.default
            for name, p in inspect.signature(Observers).parameters.items()
        }
        assert defaults == dict(
            tracing=False, trace_sample_rate=1.0, telemetry=False,
            telemetry_interval=5.0, recorder_dir=None, recorder_max_dumps=5,
            energy_attribution=False, anomaly_rules=(),
            live_export=None, metrics_snapshot=None, dashboard=False,
            dashboard_mode="auto", watch_interval=1.0, dashboard_out=None,
        )
        observers = PReCinCtNetwork(_quick_cfg()).observers
        assert repr(observers) == "Observers(none active)"
        assert observers.live_sink is observers.metrics_sink is None

    @pytest.mark.parametrize(
        "bad, match",
        [
            ({"tracing": True, "trace_sample_rate": 2.0}, "trace_sample_rate"),
            ({"telemetry_interval": 0.0}, "telemetry_interval"),
            ({"recorder_dir": "b", "recorder_max_dumps": 0},
             "recorder_max_dumps"),
            ({"dashboard_mode": "fancy"}, "dashboard_mode"),
            ({"watch_interval": 0.0}, "watch_interval"),
            ({"watch_interval": -1.0}, "watch_interval"),
            ({"telemetry": True, "anomaly_rules": ("not a rule",)},
             "anomaly rule"),
            ({"telemetry_interval": float("nan")}, "^telemetry_interval"),
            ({"watch_interval": float("inf")}, "^watch_interval"),
            ({"recorder_max_dumps": 2.5}, "^recorder_max_dumps"),
        ],
        ids=["rate-above-1", "telemetry-interval-zero", "max-dumps-zero",
             "dashboard-mode", "watch-interval-zero",
             "watch-interval-negative", "bad-rule-spec",
             "telemetry-interval-nan", "watch-interval-inf",
             "max-dumps-fraction"],
    )
    def test_bad_values_rejected(self, bad, match):
        with pytest.raises(ValueError, match=match):
            Observers(**bad)

    def test_anomaly_rules_satisfied_by_any_live_consumer(self):
        # Every bus consumer implies telemetry, rules included, so rules
        # are valid alone or with any other consumer.
        rules = ("mac.backlog_max_s>5",)
        for extra in ({}, {"telemetry": True}, {"dashboard": True},
                      {"live_export": "x.jsonl"},
                      {"metrics_snapshot": "m.prom"}):
            assert Observers(anomaly_rules=rules, **extra)._opts["telemetry"]

    def test_anomaly_rules_alone_arm_the_sampler_and_fire(self):
        observers = Observers(anomaly_rules=("energy.total_uj>1",))
        net = PReCinCtNetwork(_quick_cfg(), observers=observers)
        assert net.telemetry is not None
        net.run()
        # Fires early, re-arms when the warmup reset zeroes the ledger,
        # and fires again.
        assert observers.anomaly.triggers == 2
        rows = dict(net.telemetry.rows)
        for t, spec, value in observers.anomaly.fired:
            assert spec == "energy.total_uj>1" and value > 1
            assert rows[t]["energy.total_uj"] == value

    def test_valid_rules_accepted(self):
        from repro.obs.anomaly import AnomalyRule

        rule = AnomalyRule.parse("energy.total_uj<1")
        observers = Observers(
            telemetry=True, anomaly_rules=("mac.backlog_max_s>5", rule)
        )
        PReCinCtNetwork(_quick_cfg(), observers=observers)
        assert [r.spec for r in observers.anomaly.rules] == [
            "mac.backlog_max_s>5", "energy.total_uj<1",
        ]


class TestKeywordRatchet:
    """Like ``SimulationConfig``'s field count: the surface only shrinks."""

    def test_observers_keyword_count(self):
        assert len(inspect.signature(Observers).parameters) <= 14

    def test_stream_keyword_is_gone(self):
        # Telemetry *is* the bus now; ``telemetry=True`` arms it.
        with pytest.raises(TypeError):
            Observers(stream=True)


class TestObserverPathNeutrality:
    """Digests cannot see a path switch — ``events_executed`` is topped
    up for batched deliveries — so count the flood calls themselves."""

    @pytest.mark.parametrize("faults", [(), ("drop:p=0.1",)],
                             ids=["batched", "per-receiver"])
    def test_observed_run_takes_the_bare_runs_flood_path(self, faults):
        from repro.faults.plan import FaultPlan
        from repro.routing.flooding import Flooder

        cfg = _quick_cfg(fault_plan=FaultPlan.parse(faults) or None)

        def flood_calls(observers):
            calls = {"handle": 0, "handle_batch": 0}
            with pytest.MonkeyPatch.context() as patch:
                for name in calls:
                    def counted(self, *args, _name=name,
                                _original=getattr(Flooder, name)):
                        calls[_name] += 1
                        return _original(self, *args)

                    patch.setattr(Flooder, name, counted)
                PReCinCtNetwork(cfg, observers=observers).run()
            return calls

        bare = flood_calls(None)
        assert bare["handle" if faults else "handle_batch"] > 0
        assert flood_calls(Observers(
            tracing=True, telemetry=True, energy_attribution=True,
        )) == bare


class TestRunScenarioObserversOnly:
    """The deprecated keywords are gone; Observers covers their ground."""

    @pytest.mark.parametrize(
        "legacy_kwargs",
        [
            {"observability": True},
            {"trace_sample_rate": 0.5},
            {"bundle_dir": "bundles"},
        ],
        ids=["observability", "trace_sample_rate", "bundle_dir"],
    )
    def test_legacy_keywords_removed(self, legacy_kwargs):
        from repro.faults.audit import run_scenario

        with pytest.raises(TypeError):
            run_scenario("baseline", seed=42, **legacy_kwargs)

    def test_observers_cover_the_legacy_surface(self, tmp_path):
        from repro.faults.audit import run_scenario

        net, report, digest = run_scenario(
            "baseline", seed=42,
            observers=Observers(
                tracing=True, telemetry=True,
                trace_sample_rate=0.5, recorder_dir=tmp_path / "bundles",
            ),
        )
        assert net.tracer is not None
        assert net.telemetry is not None
        assert net.recorder is not None
        assert net.tracer.sampled_out > 0

    def test_observers_path_does_not_warn(self):
        from repro.faults.audit import run_scenario

        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            run_scenario("baseline", seed=42, observers=Observers())
