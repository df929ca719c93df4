"""Second round of hypothesis property tests: Bloom filters, streaming
quantiles, the Manhattan model, and protocol-level conservation laws."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.digest import BloomFilter
from repro.mobility import ManhattanModel
from repro.sim import RngRegistry
from repro.sim.quantiles import P2Quantile


# ---------------------------------------------------------------------------
# Bloom filter: no false negatives, ever
# ---------------------------------------------------------------------------

@given(
    st.sets(st.integers(min_value=0, max_value=10**12), max_size=200),
    st.sampled_from([256, 1024, 4096]),
    st.integers(min_value=1, max_value=8),
)
@settings(max_examples=60)
def test_bloom_no_false_negatives(keys, n_bits, n_hashes):
    bloom = BloomFilter(n_bits, n_hashes)
    bloom.add_many(keys)
    for key in keys:
        assert key in bloom


# ---------------------------------------------------------------------------
# P2 quantile: estimate always within the sample range
# ---------------------------------------------------------------------------

@given(
    st.lists(
        st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
        min_size=1,
        max_size=300,
    ),
    st.sampled_from([0.1, 0.5, 0.9, 0.99]),
)
@settings(max_examples=60)
def test_p2_estimate_within_range(xs, q):
    est = P2Quantile(q)
    for x in xs:
        est.add(x)
    assert min(xs) - 1e-9 <= est.value <= max(xs) + 1e-9


@given(st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=20)
def test_p2_median_of_large_uniform(seed):
    rng = np.random.default_rng(seed)
    est = P2Quantile(0.5)
    xs = rng.random(3000)
    for x in xs:
        est.add(float(x))
    assert abs(est.value - float(np.median(xs))) < 0.06


# ---------------------------------------------------------------------------
# Manhattan mobility: street invariant for arbitrary seeds/params
# ---------------------------------------------------------------------------

@given(
    st.integers(min_value=0, max_value=2**31 - 1),
    st.integers(min_value=2, max_value=10),
    st.floats(min_value=1.0, max_value=25.0),
)
@settings(max_examples=25, deadline=None)
def test_manhattan_nodes_always_on_streets(seed, n_streets, vmax):
    rng = RngRegistry(seed).get("m")
    model = ManhattanModel(
        10, 1000.0, 1000.0, rng=rng, n_streets=n_streets, max_speed=vmax
    )
    block = 1000.0 / (n_streets - 1)
    for t in (0.0, 13.7, 99.1, 400.0):
        pos = model.positions_at(t)
        assert (pos >= -1e-6).all() and (pos <= 1000.0 + 1e-6).all()
        on_v = np.abs(pos[:, 0] / block - np.rint(pos[:, 0] / block)) < 1e-6
        on_h = np.abs(pos[:, 1] / block - np.rint(pos[:, 1] / block)) < 1e-6
        assert (on_v | on_h).all()


# ---------------------------------------------------------------------------
# Protocol conservation: custody copies never multiply
# ---------------------------------------------------------------------------

@given(st.integers(min_value=0, max_value=10**6))
@settings(max_examples=8, deadline=None)
def test_custody_bounded_under_mobility(seed):
    """Per-key custody never exceeds the replication degree.

    Handoffs move copies and custody repair *restores* missing copies
    (up to home + replica), but no mechanism may mint extras beyond
    that (plus one in-flight transient).
    """
    from repro.config import SimulationConfig
    from repro.core.invariants import check_custody
    from repro.core.network import PReCinCtNetwork

    cfg = SimulationConfig(
        n_nodes=20,
        width=700.0,
        height=700.0,
        max_speed=10.0,
        duration=120.0,
        warmup=20.0,
        n_items=60,
        seed=seed,
    )
    net = PReCinCtNetwork(cfg)
    net.run()
    check_custody(net)  # raises on any key custodied > 2 + transient
    total = sum(len(p.static_keys) for p in net.peers)
    assert total <= 2 * len(net.db)
