"""Unit tests for workload generation (repro.workload)."""

import numpy as np
import pytest

from repro.sim import RngRegistry, Simulator
from repro.workload import Database, PoissonArrivals, WorkloadGenerator, ZipfSampler


def make_sampler(n=100, theta=0.8, seed=0, permute=True):
    return ZipfSampler(n, theta, RngRegistry(seed).get("zipf"), permute=permute)


class TestZipf:
    def test_probabilities_sum_to_one(self):
        s = make_sampler()
        assert s.probabilities.sum() == pytest.approx(1.0)

    def test_rank_probabilities_decreasing(self):
        s = make_sampler(theta=0.8)
        assert (np.diff(s.probabilities) <= 0).all()

    def test_theta_zero_is_uniform(self):
        s = make_sampler(theta=0.0)
        assert np.allclose(s.probabilities, 1.0 / s.n_items)

    def test_samples_in_range(self):
        s = make_sampler(n=50)
        keys = s.sample_many(1000)
        assert keys.min() >= 0 and keys.max() < 50

    def test_empirical_matches_theoretical(self):
        s = make_sampler(n=20, theta=1.0, permute=False)
        keys = s.sample_many(200_000)
        counts = np.bincount(keys, minlength=20) / 200_000
        assert np.allclose(counts, s.probabilities, atol=0.01)

    def test_permutation_scatters_popularity(self):
        s = make_sampler(n=100, theta=1.2, permute=True)
        keys = s.sample_many(10_000)
        top_key = np.bincount(keys, minlength=100).argmax()
        # The most popular key corresponds to rank 0 through the permutation.
        assert top_key == s._rank_to_key[0]
        assert s.probability_of_key(int(top_key)) == pytest.approx(
            float(s.probabilities[0])
        )

    def test_single_sample_matches_many(self):
        s1 = make_sampler(seed=5)
        singles = [s1.sample() for _ in range(100)]
        assert all(0 <= k < 100 for k in singles)

    def test_validation(self):
        rng = RngRegistry(0).get("z")
        with pytest.raises(ValueError):
            ZipfSampler(0, 0.8, rng)
        with pytest.raises(ValueError):
            ZipfSampler(10, -0.5, rng)


class TestDatabase:
    def test_sizes_in_range(self):
        db = Database(200, RngRegistry(1).get("db"), 1000, 10000)
        for item in db.items:
            assert 1000 <= item.size_bytes <= 10000

    def test_total_bytes(self):
        db = Database(10, RngRegistry(1).get("db"), 100, 100)
        assert db.total_bytes == pytest.approx(1000.0)

    def test_version_bumping_tracks_interval(self):
        db = Database(5, RngRegistry(1).get("db"))
        item = db[2]
        assert item.version == 0
        item.bump_version(10.0)
        assert item.version == 1
        assert item.last_update_time == 10.0
        item.bump_version(25.0)
        assert item.version == 2
        assert item.last_update_interval == pytest.approx(15.0)
        assert db.version_of(2) == 2

    def test_lookup_helpers(self):
        db = Database(5, RngRegistry(1).get("db"))
        assert db.size_of(3) == db[3].size_bytes
        assert len(db) == 5

    def test_validation(self):
        rng = RngRegistry(0).get("db")
        with pytest.raises(ValueError):
            Database(0, rng)
        with pytest.raises(ValueError):
            Database(5, rng, min_size_bytes=10, max_size_bytes=5)


class TestPoissonArrivals:
    def test_mean_interval_approximated(self):
        sim = Simulator()
        rng = RngRegistry(7).get("w")
        sampler = make_sampler()
        arrivals = []
        PoissonArrivals(
            sim, 0, mean_interval=10.0, sampler=sampler,
            callback=lambda p, k: arrivals.append(sim.now), rng=rng,
        )
        sim.run(until=20_000.0)
        rate = len(arrivals) / 20_000.0
        assert rate == pytest.approx(1.0 / 10.0, rel=0.1)

    def test_stop_at_stops_arrivals(self):
        sim = Simulator()
        rng = RngRegistry(7).get("w")
        count = []
        PoissonArrivals(
            sim, 0, 1.0, make_sampler(), lambda p, k: count.append(sim.now),
            rng, stop_at=50.0,
        )
        sim.run(until=500.0)
        assert all(t <= 51.0 for t in count)

    def test_invalid_interval(self):
        sim = Simulator()
        rng = RngRegistry(7).get("w")
        with pytest.raises(ValueError):
            PoissonArrivals(sim, 0, 0.0, make_sampler(), lambda p, k: None, rng)


class TestWorkloadGenerator:
    def test_per_peer_streams(self):
        sim = Simulator()
        rng = RngRegistry(9).get("w")
        by_peer = {}
        WorkloadGenerator(
            sim, 5, make_sampler(), rng, t_request=5.0,
            on_request=lambda p, k: by_peer.setdefault(p, []).append(k),
        )
        sim.run(until=200.0)
        assert set(by_peer) == {0, 1, 2, 3, 4}
        assert all(len(keys) > 10 for keys in by_peer.values())

    def test_updates_disabled_when_none(self):
        sim = Simulator()
        rng = RngRegistry(9).get("w")
        requests, updates = [], []
        WorkloadGenerator(
            sim, 3, make_sampler(), rng, t_request=5.0, t_update=None,
            on_request=lambda p, k: requests.append(k),
            on_update=lambda p, k: updates.append(k),
        )
        sim.run(until=100.0)
        assert requests
        assert updates == []

    def test_update_stream_rate(self):
        sim = Simulator()
        rng = RngRegistry(9).get("w")
        updates = []
        WorkloadGenerator(
            sim, 4, make_sampler(), rng, t_request=1000.0, t_update=10.0,
            on_update=lambda p, k: updates.append(k),
        )
        sim.run(until=5000.0)
        rate = len(updates) / 5000.0
        assert rate == pytest.approx(4 / 10.0, rel=0.15)

    def test_stop_all(self):
        """``stop_at`` ends every request and update stream, and each
        stream's timer stops rescheduling itself."""
        sim = Simulator()
        rng = RngRegistry(9).get("w")
        arrivals = []
        WorkloadGenerator(
            sim, 3, make_sampler(), rng, t_request=1.0, t_update=2.0,
            on_request=lambda p, k: arrivals.append(sim.now),
            on_update=lambda p, k: arrivals.append(sim.now),
            stop_at=5.0,
        )
        sim.run(until=50.0)
        assert arrivals and max(arrivals) < 5.0
        assert sim.pending_events == 0
