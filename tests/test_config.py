"""Unit tests for SimulationConfig validation (repro.config)."""

import inspect
from dataclasses import fields, replace

import numpy as np
import pytest

from repro.config import SimulationConfig
from repro.core import network as network_module
from repro.obs import Observers
from repro.resilience.manager import (
    BACKOFF_BASE,
    BACKOFF_FACTOR,
    BACKOFF_JITTER,
    BREAKER_COOLDOWN,
    SUSPECT_AFTER,
    SUSPICION_ALPHA,
    ResilienceManager,
)


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

    @pytest.mark.parametrize("name", ["n_nodes", "n_regions"])
    @pytest.mark.parametrize("value", [2.5, 4.0, True, "9"])
    def test_rejects_non_integer_counts(self, name, value):
        # 2.5 regions died in the grid tiling with ZeroDivisionError,
        # 4.0 with TypeError and 20.0 nodes inside numpy.
        with pytest.raises(ValueError, match=name):
            SimulationConfig(**{name: value})

    def test_accepts_numpy_integer_counts(self):
        cfg = SimulationConfig(n_nodes=np.int64(20), n_regions=np.int32(4))
        assert (cfg.n_nodes, cfg.n_regions) == (20, 4)

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

    @pytest.mark.parametrize("field", ["t_request", "t_update"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_rejects_non_finite_arrival_interval(self, field, value):
        # Both passed "<= 0" and crashed the run inside the workload's
        # first uniform draw.
        with pytest.raises(ValueError, match=field):
            SimulationConfig(**{field: value})

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_rejects_non_finite_duration(self, value):
        # The workload's stop time never arrived: the run never ended.
        with pytest.raises(ValueError, match="duration"):
            SimulationConfig(duration=value)

    @pytest.mark.parametrize("value", [float("nan"), -1.0])
    def test_rejects_bad_popularity_shift_at(self, value):
        # Raised "cannot schedule into the past" when the run started.
        with pytest.raises(ValueError, match="popularity_shift_at"):
            SimulationConfig(popularity_shift_at=value)

    @pytest.mark.parametrize("value", [0.0, 100.0, 500.0, float("inf")])
    def test_shift_at_or_past_duration_is_legal(self, value):
        cfg = SimulationConfig(duration=100.0, warmup=10.0, popularity_shift_at=value)
        assert cfg.popularity_shift_at == value

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

    @pytest.mark.parametrize("field, value", [
        ("warmup", -5.0),
        ("bandwidth_bps", 0.0),
        ("bandwidth_bps", -1.0),
        ("idle_power_mw", -5.0),
        ("static_capacity_fraction", -1.0),
        ("static_capacity_fraction", 0.0),
        ("static_capacity_fraction", 1.5),
        ("local_timeout", -1.0),
        ("home_timeout", -1.0),
        ("replica_timeout", -1.0),
        ("poll_timeout", -1.0),
        ("home_timeout", float("nan")),
    ])
    def test_rejects_values_that_crash_or_skew_a_run(self, field, value):
        # Each used to die mid-run (bandwidth 0, a negative timeout), or
        # run and skew the report (a negative warmup widened the window,
        # a negative static capacity served nothing, a negative idle
        # power read as zero).
        with pytest.raises(ValueError, match=field):
            SimulationConfig(**{field: value})

    @pytest.mark.parametrize("value", [-3.0, float("nan"), float("inf")])
    def test_rejects_bad_max_speed(self, value):
        # Negative and NaN speeds used to fail every "> 0" test and
        # silently run the static topology of max_speed=0.
        with pytest.raises(ValueError, match="max_speed"):
            SimulationConfig(max_speed=value)

    @pytest.mark.parametrize("field", [
        "zipf_theta", "gdld_wr", "gdld_wd", "gdld_ws", "default_ttr",
        "pause_time", "request_deadline",
    ])
    def test_rejects_nan(self, field):
        # Each passed a "<= 0" or "< 0" test and ran silently skewed:
        # ZipfSampler(10, nan) drew key 8 every time.
        with pytest.raises(ValueError, match=field):
            SimulationConfig(**{field: float("nan")})

    @pytest.mark.parametrize("field", [
        "width", "height", "range_m", "min_item_bytes", "max_item_bytes",
        "zipf_theta", "gdld_wr", "gdld_wd", "gdld_ws",
    ])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_rejects_non_finite_size_or_weight(self, field, value):
        # The sizes crashed construction inside numpy ("cannot convert
        # float NaN to integer", "high - low range exceeds valid
        # bounds") without naming the field; an infinite range_m ran as
        # one grid cell holding every node.
        with pytest.raises(ValueError, match=field):
            SimulationConfig(**{field: value})

    @pytest.mark.parametrize("field, value", [
        ("width", 0.0), ("height", -1.0), ("range_m", 0.0),
        ("min_item_bytes", 0.0), ("max_item_bytes", 512.0),
        ("zipf_theta", -0.5), ("gdld_wd", -1.0), ("default_ttr", -1.0),
        ("pause_time", -1.0), ("request_deadline", 0.0),
    ])
    def test_rejects_out_of_range(self, field, value):
        with pytest.raises(ValueError, match=field):
            SimulationConfig(**{field: value})

    def test_accepts_zero_skew_weights_and_pause(self):
        SimulationConfig(zipf_theta=0.0, gdld_wr=0.0, gdld_wd=0.0, gdld_ws=0.0,
                         pause_time=0.0, default_ttr=0.0,
                         min_item_bytes=100.0, max_item_bytes=100.0)

    def test_zero_or_no_max_speed_is_static(self):
        assert SimulationConfig(max_speed=0.0).max_speed == 0.0
        assert SimulationConfig(max_speed=None).max_speed is None

    def test_accepts_boundary_values(self):
        SimulationConfig(warmup=0.0, static_capacity_fraction=1.0,
                         local_timeout=0.0, idle_power_mw=0.0)

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
        # The resilience three are constants beside the one reader,
        # ResilienceManager.from_config: not settable from the config.
        assert (BACKOFF_BASE, BACKOFF_FACTOR, SUSPICION_ALPHA) == (0.5, 2.0, 0.5)
        assert not hasattr(SimulationConfig, "resilience_backoff_factor")
        with pytest.raises(TypeError):
            SimulationConfig(resilience_backoff_factor=3.0)
        manager = ResilienceManager.from_config(
            SimulationConfig(resilience_retries=2), rng=np.random.default_rng(0)
        )
        assert manager.backoff.base == BACKOFF_BASE
        assert manager.backoff.factor == BACKOFF_FACTOR
        assert manager.detector.alpha == SUSPICION_ALPHA
        # Seven extension knobs no run varied are constants at their one
        # reader, each equal to the field's old default.
        for gone in ("group_count", "group_radius", "n_streets",
                     "churn_crash_fraction", "resilience_backoff_jitter",
                     "resilience_suspect_after", "resilience_breaker_cooldown"):
            assert gone not in names
        with pytest.raises(TypeError):
            SimulationConfig(resilience_suspect_after=5.0)
        assert (network_module.GROUP_COUNT, network_module.GROUP_RADIUS,
                network_module.N_STREETS,
                network_module.CHURN_CRASH_FRACTION) == (6, 120.0, 7, 0.1)
        assert (BACKOFF_JITTER, SUSPECT_AFTER, BREAKER_COOLDOWN) == (0.1, 3.0, 10.0)
        assert manager.backoff.jitter == BACKOFF_JITTER
        assert manager.detector.threshold == SUSPECT_AFTER
        assert manager.cooldown == BREAKER_COOLDOWN

    def test_field_count_ratchet(self):
        # Only ever lower this bound (ROADMAP item 10).
        assert len(fields(SimulationConfig)) <= 48
