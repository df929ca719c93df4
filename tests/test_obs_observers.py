"""The Observers composition object (repro.obs.observers).

The legacy ``observability=`` / ``bundle_dir=`` / ``trace_sample_rate=``
run_scenario keywords completed their one-release deprecation cycle and
are gone; ``TestRunScenarioObserversOnly`` pins both their removal and
that the ``observers=`` replacement covers everything they did.
"""

import warnings

import pytest

from repro.core.network import PReCinCtNetwork
from repro.obs.observers import Observers
from tests.conftest import tiny_config


def _quick_cfg(**overrides):
    return tiny_config(duration=40.0, warmup=10.0, **overrides)


class TestObserversAttach:
    def test_default_observers_inherit_config_flags(self):
        cfg = _quick_cfg(enable_tracing=True, enable_telemetry=True)
        net = PReCinCtNetwork(cfg)
        assert net.tracer is not None
        assert net.telemetry is not None
        assert net.energy_attribution is None
        assert net.anomaly is None

    def test_explicit_options_override_config(self):
        cfg = _quick_cfg(enable_tracing=True)
        observers = Observers(tracing=False, energy_attribution=True)
        net = PReCinCtNetwork(cfg, observers=observers)
        assert net.tracer is None
        assert net.energy_attribution is observers.energy
        assert net.network.energy.observer is observers.energy

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
        assert observers.telemetry.on_sample == observers.anomaly.check
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
