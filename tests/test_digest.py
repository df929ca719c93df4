"""Tests for regional cache digests (repro.core.digest)."""

import numpy as np
import pytest

from repro.core.digest import BloomFilter, DigestAnnounce, RegionDigestView
from repro.core.network import PReCinCtNetwork
from tests.conftest import tiny_config


class TestBloomFilter:
    def test_no_false_negatives(self):
        bloom = BloomFilter(2048, 4)
        keys = list(range(0, 500, 7))
        bloom.add_many(keys)
        for key in keys:
            assert key in bloom

    def test_false_positive_rate_reasonable(self):
        bloom = BloomFilter(2048, 4)
        bloom.add_many(range(100))
        rng = np.random.default_rng(0)
        probes = rng.integers(10_000, 10**9, 5000)
        fp = sum(1 for p in probes if int(p) in bloom) / len(probes)
        # m/n ~ 20 bits/key, k=4 -> theoretical fp ~ 0.5 %.
        assert fp < 0.05
        assert bloom.false_positive_rate() < 0.05

    def test_empty_contains_nothing(self):
        bloom = BloomFilter(256, 3)
        assert all(k not in bloom for k in range(100))
        assert bloom.fill_ratio == 0.0

    def test_size_bytes(self):
        assert BloomFilter(2048, 4).size_bytes == 256.0

    def test_validation(self):
        with pytest.raises(ValueError):
            BloomFilter(100, 4)  # not a multiple of 64
        with pytest.raises(ValueError):
            BloomFilter(256, 0)


class TestRegionDigestView:
    def test_fail_open_without_digests(self):
        view = RegionDigestView(ttl=30.0)
        assert view.possibly_in_region(5, now=0.0)

    def test_rules_out_absent_key(self):
        view = RegionDigestView(ttl=30.0)
        bloom = BloomFilter(2048, 4)
        bloom.add(1)
        view.update(peer=7, bloom=bloom, now=0.0)
        assert view.possibly_in_region(1, now=10.0)
        assert not view.possibly_in_region(999_999, now=10.0)

    def test_stale_digests_ignored(self):
        view = RegionDigestView(ttl=30.0)
        bloom = BloomFilter(2048, 4)
        view.update(peer=7, bloom=bloom, now=0.0)
        # At t=100 the only digest is stale: fail open again.
        assert view.possibly_in_region(42, now=100.0)
        assert view.fresh_count(100.0) == 0

    def test_any_positive_digest_wins(self):
        view = RegionDigestView(ttl=30.0)
        empty = BloomFilter(2048, 4)
        full = BloomFilter(2048, 4)
        full.add(5)
        view.update(1, empty, now=0.0)
        view.update(2, full, now=0.0)
        assert view.possibly_in_region(5, now=1.0)

    def test_ttl_validation(self):
        with pytest.raises(ValueError):
            RegionDigestView(ttl=0.0)


class TestDigestIntegration:
    def test_announcements_flow(self):
        net = PReCinCtNetwork(
            tiny_config(enable_digest=True, digest_interval=15.0, seed=17)
        )
        report = net.run()
        assert net.stats.value("net.sent.digest") > 0
        # Someone's view holds fresh digests.
        populated = [
            p for p in net.peers if p.digests is not None and p.digests._digests
        ]
        assert populated

    def test_digest_skips_futile_local_floods(self):
        net = PReCinCtNetwork(
            tiny_config(enable_digest=True, digest_interval=10.0, seed=17)
        )
        net.run()
        assert net.stats.value("digest.local_skipped") > 0

    def test_delivery_preserved_with_digests(self):
        base = tiny_config(seed=19)
        from dataclasses import replace

        plain = PReCinCtNetwork(base).run()
        digest = PReCinCtNetwork(
            replace(base, enable_digest=True, digest_interval=15.0)
        ).run()
        # Bloom filters have no false negatives: nothing breaks.
        assert digest.delivery_ratio >= plain.delivery_ratio - 0.05

    def test_digest_reduces_request_broadcasts(self):
        """Skipped local floods -> fewer request-category broadcasts."""
        from dataclasses import replace

        base = tiny_config(seed=21, duration=250.0, warmup=50.0)
        plain = PReCinCtNetwork(base)
        plain_report = plain.run()
        dig = PReCinCtNetwork(replace(base, enable_digest=True, digest_interval=15.0))
        dig_report = dig.run()
        assert (
            dig.stats.value("net.sent.request")
            <= plain.stats.value("net.sent.request")
        )
