"""Tests for head-based trace sampling (repro.obs.sampling).

Unit tests for :class:`TraceSampler`, plus the determinism guarantees
the module advertises: same seed + rate always admits the same trace
set, admitted sets are nested across rates, and trace ids are stable
across rates (ids are consumed for rejected traces too).

The digest-neutrality acceptance — sampled runs reproduce the golden
scenario digests byte-for-byte — lives in ``test_golden_digests.py``
next to the other golden checks.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.network import PReCinCtNetwork
from repro.obs import Observers
from repro.obs.sampling import TraceSampler, make_sampler
from tests.conftest import tiny_config


class TestTraceSampler:
    def test_rate_validation(self):
        with pytest.raises(ValueError, match=r"must be in \[0, 1\]"):
            TraceSampler(-0.1)
        with pytest.raises(ValueError, match=r"must be in \[0, 1\]"):
            TraceSampler(1.5)

    def test_fractional_rate_requires_rng(self):
        with pytest.raises(ValueError, match="needs an rng"):
            TraceSampler(0.5)
        # Edge rates never draw, so no rng is fine.
        assert TraceSampler(0.0).sample() is False
        assert TraceSampler(1.0).sample() is True

    def test_counters(self):
        rng = np.random.default_rng(7)
        sampler = TraceSampler(0.5, rng=rng)
        kept = sum(sampler.sample() for _ in range(200))
        assert sampler.admitted == kept
        assert sampler.rejected == 200 - kept
        assert sampler.decisions == 200
        # A fair rate keeps roughly half (loose, deterministic seed).
        assert 60 <= kept <= 140

    def test_same_rng_stream_reproduces_decisions(self):
        first = TraceSampler(0.3, rng=np.random.default_rng(42))
        second = TraceSampler(0.3, rng=np.random.default_rng(42))
        decisions = [first.sample() for _ in range(100)]
        assert decisions == [second.sample() for _ in range(100)]

    def test_make_sampler_is_none_at_full_rate(self):
        assert make_sampler(1.0) is None
        assert make_sampler(1.0, rng=np.random.default_rng(1)) is None
        sampler = make_sampler(0.25, rng=np.random.default_rng(1))
        assert isinstance(sampler, TraceSampler)
        assert make_sampler(0.0).rate == 0.0


def _traced_run(rate: float, seed: int = 29):
    net = PReCinCtNetwork(
        tiny_config(seed=seed, duration=80.0, warmup=10.0),
        observers=Observers(tracing=True, trace_sample_rate=rate),
    )
    net.run()
    return net


def _trace_ids(net) -> set:
    return {t.trace_id for t in net.tracer}


class TestSamplingDeterminism:
    def test_same_seed_and_rate_admit_identical_sets(self):
        a = _traced_run(0.5)
        b = _traced_run(0.5)
        assert _trace_ids(a) == _trace_ids(b)
        assert a.tracer.sampled_out == b.tracer.sampled_out
        # Partial rate really did reject something in this workload.
        assert a.tracer.sampled_out > 0
        assert len(a.tracer) > 0

    def test_admitted_sets_nest_across_rates(self):
        full = _traced_run(1.0)
        most = _traced_run(0.75)
        few = _traced_run(0.25)
        ids_full, ids_most, ids_few = map(
            _trace_ids, (full, most, few)
        )
        assert ids_few <= ids_most <= ids_full
        assert len(ids_few) < len(ids_most) < len(ids_full)

    def test_trace_ids_stable_across_rates(self):
        # Ids are consumed for rejected traces, so the sampled run's
        # ids are a subset of the full run's ids *with the same values*:
        # trace #17 at rate 0.25 is the same request as #17 at rate 1.
        full = _traced_run(1.0)
        sampled = _traced_run(0.25)
        by_id_full = {t.trace_id: t for t in full.tracer}
        for trace in sampled.tracer:
            twin = by_id_full[trace.trace_id]
            assert (trace.peer, trace.key) == (twin.peer, twin.key)
            assert trace.start == twin.start
            assert trace.outcome == twin.outcome
            assert trace.latency == twin.latency

    def test_rate_zero_traces_nothing_but_run_completes(self):
        net = _traced_run(0.0)
        assert len(net.tracer) == 0
        assert net.tracer.open_traces == 0
        assert net.tracer.sampled_out > 0
        # The run itself is unaffected: requests were still served.
        assert net.report().requests_served > 0

    def test_config_rejects_out_of_range_rate(self):
        with pytest.raises(ValueError, match="trace_sample_rate"):
            Observers(trace_sample_rate=1.5)
        with pytest.raises(ValueError, match="trace_sample_rate"):
            Observers(trace_sample_rate=-0.25)
