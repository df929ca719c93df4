"""Unit tests for SimulationConfig validation (repro.config)."""

import inspect
from dataclasses import fields, replace

import pytest

from repro.config import SimulationConfig
from repro.obs import Observers


class TestValidation:
    def test_defaults_valid(self):
        cfg = SimulationConfig()
        assert cfg.n_nodes == 80
        assert cfg.n_regions == 9
        assert cfg.width == cfg.height == 1200.0

    def test_rejects_bad_nodes(self):
        with pytest.raises(ValueError):
            SimulationConfig(n_nodes=0)

    def test_rejects_bad_regions(self):
        with pytest.raises(ValueError):
            SimulationConfig(n_regions=-1)

    def test_rejects_cache_fraction_out_of_range(self):
        with pytest.raises(ValueError):
            SimulationConfig(cache_fraction=1.5)
        with pytest.raises(ValueError):
            SimulationConfig(cache_fraction=-0.1)

    def test_rejects_warmup_past_duration(self):
        with pytest.raises(ValueError):
            SimulationConfig(duration=100.0, warmup=100.0)

    @pytest.mark.parametrize("field", ["t_request", "t_update"])
    @pytest.mark.parametrize("value", [0.0, -1.0])
    def test_rejects_non_positive_arrival_interval(self, field, value):
        # Caught at construction, not mid-run inside PoissonArrivals.
        with pytest.raises(ValueError, match=field):
            SimulationConfig(**{field: value})

    @pytest.mark.parametrize("field", [
        "gpsr_beacon_interval", "churn_uptime", "digest_interval",
        "prefetch_interval", "churn_downtime",
    ])
    @pytest.mark.parametrize("value", [0.0, -1.0, float("nan")])
    def test_rejects_non_positive_timer_period(self, field, value):
        # A zero period rescheduled its timer at the same instant forever;
        # a negative one died mid-run in the RNG or the digest view.
        with pytest.raises(ValueError, match=field):
            SimulationConfig(**{field: value})

    def test_rejects_unknown_policy(self):
        with pytest.raises(ValueError):
            SimulationConfig(replacement_policy="arc")

    def test_rejects_unknown_consistency(self):
        with pytest.raises(ValueError):
            SimulationConfig(consistency="lease")

    def test_replace_revalidates(self):
        cfg = SimulationConfig()
        with pytest.raises(ValueError):
            replace(cfg, n_nodes=-5)

    def test_frozen(self):
        cfg = SimulationConfig()
        with pytest.raises(Exception):
            cfg.n_nodes = 5  # type: ignore[misc]

    def test_capacity_hint(self):
        cfg = SimulationConfig(
            cache_fraction=0.01, n_items=100, min_item_bytes=1000, max_item_bytes=1000
        )
        assert cfg.cache_capacity_bytes_hint == pytest.approx(1000.0)

    def test_all_policies_and_schemes_accepted(self):
        for policy in ("gd-ld", "gd-size", "lru"):
            SimulationConfig(replacement_policy=policy)
        for scheme in ("none", "plain-push", "pull-every-time", "push-adaptive-pull"):
            SimulationConfig(consistency=scheme)


class TestConfigIsTheRunIdentity:
    """A field belongs in the config iff it can change a run's digests."""

    def test_no_field_is_an_observer_option(self):
        names = {f.name for f in fields(SimulationConfig)}
        assert names & set(inspect.signature(Observers).parameters) == set()

    def test_never_set_knobs_are_constants(self):
        names = {f.name for f in fields(SimulationConfig)}
        for gone in ("gpsr_beacon_bytes", "prefetch_batch", "digest_bits",
                     "region_check_interval", "update_zipf_theta",
                     "resilience_backoff_base", "resilience_alpha"):
            assert gone not in names
        # The resilience three are class constants: readable, not settable.
        assert SimulationConfig().resilience_backoff_factor == 2.0
        with pytest.raises(TypeError):
            SimulationConfig(resilience_backoff_factor=3.0)

    def test_field_count_ratchet(self):
        # Only ever lower this bound (ROADMAP item 10).
        assert len(fields(SimulationConfig)) <= 55
