"""The asyncio edge-cache service (repro.service).

Covers the PR-9 acceptance surface: shard routing determinism, GD-LD
admission at the shards, TTR validation against the origin, update
dissemination (eq. 2 folded once, at the home shard), concurrent
get/put interleaving with dog-pile coalescing, deadline fail-fast,
breaker steer -> degraded serve class, graceful drain, and the
telemetry bridge (live export + metrics snapshot).

Async tests drive their own event loop via ``asyncio.run`` (no
pytest-asyncio dependency); deterministic timing uses ManualClock.
"""

import asyncio
import dataclasses
import inspect
import json
import math
import os
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from repro import config as config_module
from repro.config import SimulationConfig
from repro.core.consistency import PushAdaptivePull
from repro.core.invariants import check_cache
from repro.obs import Observers
from repro.obs import observers as observers_module
from repro.ports import CounterStatSink
from repro.resilience.manager import ResilienceManager
from repro.service import (
    CacheService,
    EdgeCacheServer,
    InMemoryOrigin,
    LoadGenConfig,
    ManualClock,
    ServiceConfig,
    ShardDirectory,
    run_loadgen,
)
from repro.service import loadgen as loadgen_module
from repro.service import server as server_module
from repro.workload.database import Database
from tests.conftest import wait_until


def make_origin(n_items=64, latency=0.0, seed=7):
    db = Database(n_items, np.random.default_rng(seed))
    origin = InMemoryOrigin(db, latency=latency)
    scheme = PushAdaptivePull()
    for item in db.items:
        item.ttr = scheme.initial_ttr(item)
    return origin, scheme


def make_shard(shard_id=0, *, n_shards=2, capacity=1e9, clock=None,
               origin=None, scheme=None, resilience=None, stats=None):
    clock = clock if clock is not None else ManualClock()
    if origin is None:
        origin, built = make_origin()
        scheme = scheme if scheme is not None else built
    return CacheService(
        shard_id, capacity,
        clock=clock,
        directory=ShardDirectory(n_shards, len(origin.db)),
        origin=origin,
        scheme=scheme,
        resilience=resilience,
        stats=stats if stats is not None else CounterStatSink(),
    )


class TestShardRouting:
    def test_home_and_replica_are_deterministic_and_distinct(self):
        a, b = ShardDirectory(4, 200, salt=3), ShardDirectory(4, 200, salt=3)
        for key in range(200):
            assert a.home_region(key) == b.home_region(key)
            assert a.replica_region(key) == b.replica_region(key)
            assert a.home_region(key) != a.replica_region(key)

    def test_placement_is_the_simulators_home_and_replica_rule(self):
        from tests.reference_kernel import per_point_home_and_replica

        d = ShardDirectory(9, 300, salt=3)
        homes, replicas = per_point_home_and_replica(
            d.table, d.geohash.locations(300)
        )
        for key in range(300):
            placement = (d.home_region(key), d.replica_region(key))
            assert placement == (homes[key], replicas[key])
            assert all(type(region) is int for region in placement)

    @pytest.mark.parametrize("n_shards", [2.5, 2.0, True])
    def test_config_rejects_non_integer_shard_counts(self, n_shards):
        # 2.5 shards ran 2 and reported "shards": 2.5 in its stats.
        with pytest.raises(ValueError, match="n_shards"):
            ServiceConfig(n_shards=n_shards)

    def test_salt_rebalances(self):
        a, b = ShardDirectory(4, 200, salt=0), ShardDirectory(4, 200, salt=99)
        assert any(
            a.home_region(k) != b.home_region(k) for k in range(200)
        )

    def test_keys_spread_over_all_shards(self):
        d = ShardDirectory(4, 400)
        homes = {d.home_region(k) for k in range(400)}
        assert homes == set(d.region_ids())

    def test_key_distance_feeds_gdld(self):
        from tests.reference_kernel import location_of

        d = ShardDirectory(4, 50)
        # Every key is placed at construction; its distance to a shard
        # has the bits of the scalar hash's location (GD-LD priorities
        # must not move).
        for key in range(50):
            x, y = location_of(d.geohash, key)
            for region in d.region_ids():
                cx, cy = d.table.get(region).center
                distance = d.key_distance(key, region)
                assert type(distance) is float
                assert distance == math.hypot(x - cx, y - cy)


#: Every config whose numbers go through ``repro.checks.check_numbers``,
#: with its table of numeric fields.
CHECKED_CONFIGS = {
    "SimulationConfig": (SimulationConfig, config_module._NUMERIC_FIELDS),
    "ServiceConfig": (ServiceConfig, server_module._NUMERIC_FIELDS),
    "LoadGenConfig": (LoadGenConfig, loadgen_module._NUMERIC_FIELDS),
    "Observers": (Observers, observers_module._NUMERIC_OPTIONS),
}
BAD_NUMBERS = [math.nan, math.inf, -math.inf, -1, -1.5, True, "3", None]
#: The probes a config accepts, each with its reason: None where its
#: table row says what None means, and one legal infinity.
ACCEPTED = {
    **{(config, name, None): none_means
       for config, (_, table) in CHECKED_CONFIGS.items()
       for name, _, _, none_means in table if none_means},
    ("SimulationConfig", "popularity_shift_at", math.inf):
        "a shift at or past duration never fires",
}


def annotated_numbers(cls):
    """Each numeric field (or keyword) of ``cls`` -> its annotation."""
    if dataclasses.is_dataclass(cls):
        pairs = [(f.name, f.type) for f in dataclasses.fields(cls)]
    else:
        pairs = [(p.name, p.annotation)
                 for p in inspect.signature(cls).parameters.values()]
    return {name: kind for name, kind in pairs
            if kind in ("int", "float", "Optional[int]", "Optional[float]")}


def probe(config, name, bad):
    """``bad`` is accepted with a reason, or refused by ``name``."""
    cls, _ = CHECKED_CONFIGS[config]
    if (config, name, bad) in ACCEPTED:
        cls(**{name: bad})
        return
    with pytest.raises(ValueError, match=rf"^{name} must be"):
        cls(**{name: bad})


#: Every numeric ``ServiceConfig`` field, read off its annotation.
NUMERIC_FIELDS = [
    f.name for f in dataclasses.fields(ServiceConfig)
    if f.type in ("int", "float", "Optional[int]", "Optional[float]")
]
#: Those where None is a setting (no deadline, no hedging, no admission
#: bound, no auto-shutdown), each with its meaning in the server module.
NONE_IS_A_SETTING = sorted(
    name for name, _, _, none_means in server_module._NUMERIC_FIELDS
    if none_means
)
INTEGRAL_FIELDS = [name for name, integral, _, _
                   in server_module._NUMERIC_FIELDS if integral]


class TestConfigNumbers:
    @pytest.mark.parametrize("config", sorted(CHECKED_CONFIGS))
    def test_every_numeric_field_is_in_its_table(self, config):
        cls, table = CHECKED_CONFIGS[config]
        numbers = annotated_numbers(cls)
        assert sorted(numbers) == sorted(name for name, _, _, _ in table)
        for name, integral, _, none_means in table:
            assert integral == ("int" in numbers[name]), name
            assert bool(none_means) == numbers[name].startswith("Optional"), name

    @pytest.mark.parametrize("config, name, bad", [
        pytest.param(config, name, bad, id=f"{config}-{name}-{bad!r}")
        for config, (_, table) in CHECKED_CONFIGS.items()
        for name, _, _, _ in table
        for bad in BAD_NUMBERS
    ])
    def test_every_config_refuses_a_bad_number_by_name(self, config, name, bad):
        probe(config, name, bad)

    def test_every_numeric_field_is_checked(self):
        assert len(dataclasses.fields(ServiceConfig)) == 23
        assert sorted(NUMERIC_FIELDS) == sorted(
            name for name, _, _, _ in server_module._NUMERIC_FIELDS
        )
        assert NONE_IS_A_SETTING == sorted(
            f.name for f in dataclasses.fields(ServiceConfig)
            if f.type in ("Optional[int]", "Optional[float]")
        )

    @pytest.mark.parametrize("name", NUMERIC_FIELDS)
    @pytest.mark.parametrize(
        "bad", [math.nan, math.inf, -math.inf, -1, -1.5, True, "3", None],
        ids=repr,
    )
    def test_a_bad_number_is_refused_by_name(self, name, bad):
        probe("ServiceConfig", name, bad)

    @pytest.mark.parametrize("name", INTEGRAL_FIELDS)
    def test_an_integer_field_refuses_a_fraction(self, name):
        with pytest.raises(ValueError, match=rf"^{name} must be an integer"):
            ServiceConfig(**{name: 1.5})

    def test_zero_where_it_means_something_and_the_port_range(self):
        cfg = ServiceConfig(port=0, seed=0, origin_latency=0.0,
                            origin_retries=0)
        assert (cfg.port, cfg.seed, cfg.origin_retries) == (0, 0, 0)
        for name in ("n_shards", "deadline", "heartbeat_timeout",
                     "telemetry_interval", "duration"):
            with pytest.raises(ValueError, match=rf"^{name} must be positive"):
                ServiceConfig(**{name: 0})
        ServiceConfig(port=65535)
        with pytest.raises(ValueError, match="^port must be <= 65535"):
            ServiceConfig(port=65536)


#: Every numeric ``LoadGenConfig`` field, read off its annotation.
LOADGEN_NUMERIC_FIELDS = [
    f.name for f in dataclasses.fields(LoadGenConfig)
    if f.type in ("int", "float", "Optional[int]", "Optional[float]")
]
LOADGEN_NONE_IS_A_SETTING = sorted(
    name for name, _, _, none_means in loadgen_module._NUMERIC_FIELDS
    if none_means
)


class TestLoadGenConfigNumbers:
    """``LoadGenConfig``'s numbers go through ``ServiceConfig``'s check."""

    def test_every_numeric_field_is_checked(self):
        assert len(LOADGEN_NUMERIC_FIELDS) == 10
        assert sorted(LOADGEN_NUMERIC_FIELDS) == sorted(
            name for name, _, _, _ in loadgen_module._NUMERIC_FIELDS
        )
        assert LOADGEN_NONE_IS_A_SETTING == sorted(
            f.name for f in dataclasses.fields(LoadGenConfig)
            if f.type in ("Optional[int]", "Optional[float]")
        ) == ["expect_hit_ratio", "rate"]

    @pytest.mark.parametrize("name", LOADGEN_NUMERIC_FIELDS)
    @pytest.mark.parametrize(
        "bad", [math.nan, math.inf, -math.inf, -1, -1.5, True, "3", None],
        ids=repr,
    )
    def test_a_bad_number_is_refused_by_name(self, name, bad):
        probe("LoadGenConfig", name, bad)

    @pytest.mark.parametrize("name", [
        name for name, integral, _, _ in loadgen_module._NUMERIC_FIELDS
        if integral
    ])
    def test_an_integer_field_refuses_a_fraction(self, name):
        with pytest.raises(ValueError, match=rf"^{name} must be an integer"):
            LoadGenConfig(**{name: 1.5})

    def test_fractions_zero_and_the_port_range(self):
        cfg = LoadGenConfig(theta=0.0, seed=0, put_ratio=0.0,
                            expect_hit_ratio=0.0)
        assert (cfg.theta, cfg.seed, cfg.put_ratio) == (0.0, 0, 0.0)
        LoadGenConfig(put_ratio=1.0, expect_hit_ratio=1.0, port=65535)
        for name in ("put_ratio", "expect_hit_ratio"):
            with pytest.raises(ValueError, match=rf"^{name} must be <= 1"):
                LoadGenConfig(**{name: 1.5})
        for name in ("port", "clients", "n_items", "duration", "timeout",
                     "rate"):
            with pytest.raises(ValueError, match=rf"^{name} must be positive"):
                LoadGenConfig(**{name: 0})
        with pytest.raises(ValueError, match="^port must be <= 65535"):
            LoadGenConfig(port=65536)


class TestCacheServiceReads:
    def test_miss_then_fresh_hit(self):
        shard = make_shard()
        clock = shard.clock

        async def scenario():
            first = await shard.get(5)
            assert first.status == "miss"
            assert first.served_class == "origin"
            clock.advance(1.0)  # still inside the TTR window
            second = await shard.get(5)
            assert second.status == "hit-fresh"
            assert second.served_class == "local"

        asyncio.run(scenario())
        assert shard.origin.fetches == 1
        assert shard.stats.value("cache.hits") == 1

    def test_ttr_expiry_validates_then_reserves(self):
        shard = make_shard()
        clock = shard.clock

        async def scenario():
            await shard.get(5)
            entry = shard.cache.get(5)
            clock.advance(entry.ttr + 1.0)  # window closed
            revalidated = await shard.get(5)
            assert revalidated.status == "hit-validated"
            assert shard.origin.validations == 1
            # validation restarted the window: next get is a fresh hit
            clock.advance(0.5)
            assert (await shard.get(5)).status == "hit-fresh"

        asyncio.run(scenario())

    def test_stale_version_refetches(self):
        shard = make_shard()
        clock = shard.clock

        async def scenario():
            await shard.get(5)
            clock.advance(100.0)
            shard.origin.commit(5, clock.now())  # origin moved on
            clock.advance(1000.0)  # TTR long gone
            refreshed = await shard.get(5)
            assert refreshed.status == "refreshed"
            assert refreshed.version == shard.origin.db[5].version

        asyncio.run(scenario())

    def test_gdld_eviction_under_pressure(self):
        origin, scheme = make_origin(n_items=64)
        sizes = sorted(item.size_bytes for item in origin.db.items)
        capacity = sum(sizes[:8])  # room for a handful of items
        shard = make_shard(capacity=capacity, origin=origin, scheme=scheme)

        async def scenario():
            for key in range(64):
                await shard.get(key)
                shard.clock.advance(0.01)

        asyncio.run(scenario())
        assert shard.cache.used_bytes <= capacity
        assert shard.cache.evictions > 0
        check_cache(shard.cache, "shard 0")


class TestConcurrency:
    def test_dogpile_coalesces_to_one_origin_fetch(self):
        origin, scheme = make_origin(latency=0.02)
        shard = make_shard(origin=origin, scheme=scheme)

        async def scenario():
            results = await asyncio.gather(
                *(shard.get(9) for _ in range(10))
            )
            assert all(r.ok for r in results)

        asyncio.run(scenario())
        assert origin.fetches == 1
        assert shard.stats.value("cache.coalesced_fetches") == 9

    def test_concurrent_get_put_interleaving_stays_coherent(self):
        """Gets racing puts never surface a version ahead of the origin
        and never corrupt cache accounting."""
        cfg = ServiceConfig(port=0, n_shards=2, n_items=32,
                            cache_fraction=0.5, deadline=None,
                            origin_latency=0.001)
        server = EdgeCacheServer(cfg)

        async def scenario():
            async def reader(seed):
                rng = np.random.default_rng(seed)
                for _ in range(60):
                    key = int(rng.integers(0, 32))
                    response = await server._get(key)
                    assert response.ok
                    if response.version >= 0:
                        assert (
                            response.version
                            <= server.database[key].version
                        )
                    await asyncio.sleep(0)

            async def writer(seed):
                rng = np.random.default_rng(seed)
                for _ in range(30):
                    key = int(rng.integers(0, 32))
                    response = await server._put(key)
                    assert response.status == "updated"
                    await asyncio.sleep(0)

            for worker in server.workers.values():
                worker.start()
            await asyncio.gather(
                reader(1), reader(2), reader(3), writer(4), writer(5)
            )
            for worker in server.workers.values():
                await worker.drain()

        asyncio.run(scenario())
        for shard_id, shard in server.shards.items():
            check_cache(shard.cache, f"shard {shard_id}")
            for entry in shard.cache.entries.values():
                assert entry.version <= server.database[entry.key].version


class TestDissemination:
    def find_key(self, server, home, replica):
        for key in range(server.cfg.n_items):
            if (server.directory.home_region(key) == home
                    and server.directory.replica_region(key) == replica):
                return key
        pytest.skip(f"no key with home={home} replica={replica}")

    def test_put_pushes_to_home_and_replica(self):
        cfg = ServiceConfig(port=0, n_shards=2, n_items=64,
                            cache_fraction=1.0, deadline=None)
        server = EdgeCacheServer(cfg)
        key = self.find_key(server, 0, 1)

        async def scenario():
            await server.shards[0].get(key)  # warm the home shard
            before_ttr = server.database[key].ttr
            server.shards[0].put(key)
            # eq. 2 folded exactly once (home custodian only)
            assert server.database[key].ttr != before_ttr
            # home copy refreshed to the new version
            assert (server.shards[0].cache.get(key).version
                    == server.database[key].version)
            # replica shard admitted a pushed copy it never fetched
            replica_entry = server.shards[1].cache.get(key)
            assert replica_entry is not None
            assert replica_entry.version == server.database[key].version

        asyncio.run(scenario())
        assert server.stats.value("consistency.pushes") == 2.0

    def test_invalidate_floods_every_shard(self):
        cfg = ServiceConfig(port=0, n_shards=2, n_items=64,
                            cache_fraction=1.0, deadline=None)
        server = EdgeCacheServer(cfg)
        key = self.find_key(server, 0, 1)

        async def scenario():
            await server.shards[0].get(key)
            server.shards[0].put(key)  # replica now warm via push
            assert key in server.shards[1].cache
            await server._invalidate(key, 0)
            assert key not in server.shards[0].cache
            assert key not in server.shards[1].cache

        asyncio.run(scenario())


class TestResiliencePath:
    def make_resilient_shard(self, deadline=0.1):
        origin, scheme = make_origin()
        stats = CounterStatSink()
        resilience = ResilienceManager(
            retries=0, deadline=deadline, suspect_after=3.0,
            cooldown=60.0, stats=stats,
        )
        shard = make_shard(origin=origin, scheme=scheme,
                           resilience=resilience, stats=stats)
        return shard, origin, resilience, stats

    def test_deadline_exceeded_fails_fast(self):
        shard, origin, _, stats = self.make_resilient_shard(deadline=0.05)
        origin.stall()

        async def scenario():
            started = time.monotonic()
            response = await shard.get(3)
            elapsed = time.monotonic() - started
            assert response.status == "deadline"
            assert not response.ok
            assert elapsed < 1.0  # budget, not the stall, bounds latency

        asyncio.run(scenario())
        assert stats.value("resilience.deadline_exceeded") == 1

    def test_timeouts_trip_breaker_then_steer_to_degraded_stale(self):
        shard, origin, resilience, stats = self.make_resilient_shard()
        clock = shard.clock

        async def scenario():
            await shard.get(3)  # warm copy while the origin is healthy
            entry = shard.cache.get(3)
            clock.advance(entry.ttr + 1.0)  # copy is now stale
            origin.stall()
            for _ in range(3):  # three validation timeouts trip it
                response = await shard.get(3)
                assert response.status == "stale-hit"
                assert response.served_class == "degraded"
            assert resilience.breakers_open() == 1
            validations_before = origin.validations
            steered = await shard.get(3)
            # breaker open: served degraded without touching the origin
            assert steered.status == "stale-hit"
            assert steered.served_class == "degraded"
            assert steered.extra["reason"] == "breaker-open"
            assert origin.validations == validations_before

        asyncio.run(scenario())
        assert stats.value("resilience.breaker_open") == 1
        assert stats.value("resilience.breaker_steered") == 1
        assert stats.value("cache.degraded_serves") == 4

    def test_probe_closes_breaker_after_recovery(self):
        shard, origin, resilience, stats = self.make_resilient_shard()
        clock = shard.clock

        async def scenario():
            await shard.get(3)
            clock.advance(shard.cache.get(3).ttr + 1.0)
            origin.stall()
            for _ in range(3):
                await shard.get(3)
            assert resilience.breakers_open() == 1
            origin.resume()
            clock.advance(120.0)  # past the breaker cooldown
            probe = await shard.get(3)
            assert probe.status == "hit-validated"
            assert resilience.breakers_open() == 0

        asyncio.run(scenario())
        assert stats.value("resilience.breaker_close") == 1

    def test_unavailable_when_no_stale_copy(self):
        shard, origin, resilience, _ = self.make_resilient_shard()
        origin.stall()

        async def scenario():
            for _ in range(3):
                assert (await shard.get(3)).status == "deadline"
            assert resilience.breakers_open() == 1
            response = await shard.get(3)
            assert response.status == "unavailable"
            assert response.extra["reason"] == "breaker-open"

        asyncio.run(scenario())


class TestServerEndToEnd:
    @staticmethod
    async def request(port, payload):
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        writer.write(json.dumps(payload).encode() + b"\n")
        await writer.drain()
        line = await reader.readline()
        writer.close()
        return json.loads(line)

    def test_tcp_loop_get_put_stats(self):
        async def scenario():
            server = EdgeCacheServer(
                ServiceConfig(port=0, n_shards=2, n_items=32,
                              cache_fraction=0.5)
            )
            await server.start()
            miss = await self.request(server.port, {"op": "get", "key": 1})
            assert miss["status"] == "miss"
            hit = await self.request(server.port, {"op": "get", "key": 1})
            assert hit["status"] == "hit-fresh"
            assert hit["latency_ms"] >= 0.0
            put = await self.request(server.port, {"op": "put", "key": 1})
            assert put["status"] == "updated"
            stats = await self.request(server.port, {"op": "stats"})
            assert stats["telemetry"]["service.get"] == 2.0
            bad = await self.request(server.port, {"op": "bogus"})
            assert bad["ok"] is False and "unknown op" in bad["error"]
            await server.shutdown()

        asyncio.run(scenario())

    def test_loadgen_closed_loop_hits_the_cache(self):
        async def scenario():
            server = EdgeCacheServer(
                ServiceConfig(port=0, n_shards=2, n_items=64,
                              cache_fraction=0.3)
            )
            await server.start()
            summary = await run_loadgen(LoadGenConfig(
                port=server.port, clients=3, duration=0.8,
                theta=0.9, n_items=64, put_ratio=0.05,
            ))
            await server.shutdown()
            return server, summary

        server, summary = asyncio.run(scenario())
        assert summary.requests > 50
        assert summary.errors == 0
        assert summary.hit_ratio > 0.0
        assert summary.latency_percentile(99) >= summary.latency_percentile(50)
        telemetry = server._telemetry_row()
        assert telemetry["request.hit_ratio"] > 0.0
        assert telemetry["request.byte_hit_ratio"] > 0.0

    def test_loadgen_closed_loop_books_each_request_once_after_a_timeout(self):
        """No request id on the wire: a response that lands after the
        client gave up on it must not be read as the next request's.
        The stub holds its first response until it sees the client
        reconnect, so nothing here is decided by how long a wait took."""
        received = []

        async def scenario():
            reconnected = asyncio.Event()

            async def stub(reader, writer):
                first_connection = not received
                if not first_connection:
                    reconnected.set()
                while True:
                    line = await reader.readline()
                    if not line:
                        break
                    request = json.loads(line)
                    received.append(request)
                    if first_connection and len(received) == 1:
                        await reconnected.wait()  # answered too late
                    writer.write(json.dumps({
                        **request, "status": "hit-fresh", "shard": 0,
                        "ok": True, "served_class": "local",
                        "latency_ms": 0.01,
                    }).encode() + b"\n")
                writer.close()

            server = await asyncio.start_server(stub, "127.0.0.1", 0)
            summary = await run_loadgen(LoadGenConfig(
                port=server.sockets[0].getsockname()[1], clients=1,
                duration=0.5, timeout=0.2, n_items=16,
            ))
            server.close()
            await server.wait_closed()
            return summary, reconnected.is_set()

        summary, reconnected = asyncio.run(scenario())
        assert reconnected
        assert summary.by_outcome == {
            "timeout": 1, "served": len(received) - 1,
        }
        assert summary.timeouts == 1 and summary.errors == 0
        assert summary.requests == len(received) - 1 > 0

    def test_graceful_drain_completes_inflight_request(self):
        """Shutdown waits for admitted ops: a request whose origin wait
        is mid-flight still gets its (deadline) response."""
        async def scenario():
            server = EdgeCacheServer(
                ServiceConfig(port=0, n_shards=2, n_items=16,
                              cache_fraction=0.5, deadline=0.3)
            )
            await server.start()
            server.origin.stall()
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port
            )
            writer.write(b'{"op": "get", "key": 2}\n')
            await writer.drain()
            home = server.workers[server.directory.home_region(2)]
            await wait_until(lambda: home.load() == 1)  # parked on origin
            shutdown = asyncio.ensure_future(server.shutdown())
            line = await asyncio.wait_for(reader.readline(), timeout=5.0)
            response = json.loads(line)
            assert response["status"] == "deadline"
            await asyncio.wait_for(shutdown, timeout=5.0)
            # connection closed after the drain
            assert await reader.readline() == b""
            writer.close()

        asyncio.run(scenario())

    def test_replica_failover_serves_pushed_copy(self):
        """Home shard dark + replica warm (via push) -> degraded serve."""
        async def scenario():
            server = EdgeCacheServer(
                ServiceConfig(port=0, n_shards=2, n_items=64,
                              cache_fraction=1.0, deadline=0.05,
                              suspect_after=3.0, breaker_cooldown=600.0)
            )
            for worker in server.workers.values():
                worker.start()
            key = next(
                k for k in range(64)
                if server.directory.home_region(k) == 0
                and server.directory.replica_region(k) == 1
            )
            await server._get(key)       # warm home shard
            server.shards[0].put(key)    # push-warms the replica shard
            # evict the home copy, then kill the origin: the home path
            # now has nothing local and cannot fetch.
            server.shards[0].cache.evict(key)
            server.origin.stall()
            response = await server._get(key)
            assert response.ok
            assert response.served_class == "degraded"
            assert response.extra.get("failover") == "replica"
            server.origin.resume()
            for worker in server.workers.values():
                await worker.drain()

        asyncio.run(scenario())


class TestTelemetryBridge:
    def test_live_export_and_metrics_snapshot(self, tmp_path):
        live = tmp_path / "live.jsonl"
        prom = tmp_path / "metrics.prom"

        async def scenario():
            server = EdgeCacheServer(ServiceConfig(
                port=0, n_shards=2, n_items=32, cache_fraction=0.5,
                telemetry_interval=0.05,
                live_export=str(live), metrics_snapshot=str(prom),
            ))
            await server.start()
            await run_loadgen(LoadGenConfig(
                port=server.port, clients=2, duration=0.4,
                n_items=32, theta=0.9,
            ))
            await wait_until(lambda: server.bus.rows_published >= 1)
            await server.shutdown()

        asyncio.run(scenario())

        records = [json.loads(line) for line in
                   live.read_text().strip().splitlines()]
        assert records[0]["record"] == "header" and records[0]["live"]
        rows = [r for r in records if r["record"] == "row"]
        assert rows, "no telemetry rows were published"
        assert rows[-1]["request.hit_ratio"] > 0.0
        assert rows[-1]["cache.region0.entries"] >= 0.0
        assert rows[-1]["resilience.breakers_open"] == 0.0
        assert records[-1]["record"] == "end"
        assert records[-1]["rows"] == len(rows)

        prom_text = prom.read_text()
        assert "repro_request_byte_hit_ratio" in prom_text
        assert "repro_cache_bytes_hit" in prom_text

    def test_watch_replays_a_service_export(self, tmp_path, capsys):
        """`repro watch` renders a service live export unchanged."""
        from repro.cli import main

        live = tmp_path / "live.jsonl"

        async def scenario():
            server = EdgeCacheServer(ServiceConfig(
                port=0, n_shards=2, n_items=32, cache_fraction=0.5,
                telemetry_interval=0.05, live_export=str(live),
            ))
            await server.start()
            await run_loadgen(LoadGenConfig(
                port=server.port, clients=2, duration=0.3, n_items=32,
            ))
            await wait_until(lambda: server.bus.rows_published >= 1)
            await server.shutdown()

        asyncio.run(scenario())
        rc = main(["watch", str(live), "--no-color", "--interval", "0.01"])
        assert rc == 0
        out = capsys.readouterr()
        assert "run finished" in out.err


class TestServeProcess:
    """The `repro serve` process end-to-end, including SIGTERM drain."""

    SRC = str(Path(__file__).resolve().parents[1] / "src")

    def spawn(self, *extra):
        env = dict(os.environ, PYTHONPATH=self.SRC)
        return subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--shards", "2", "--items", "32", *extra],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, env=env,
        )

    @staticmethod
    def wait_port(proc):
        line = proc.stderr.readline()  # "edge-cache: ... on host:port, ..."
        assert "edge-cache:" in line, line
        return int(line.split(":")[2].split(",")[0])

    def test_sigterm_drains_and_exits_zero(self, tmp_path):
        live = tmp_path / "live.jsonl"
        proc = self.spawn("--live-export", str(live),
                          "--telemetry-interval", "0.05")
        try:
            port = self.wait_port(proc)
            with socket.create_connection(("127.0.0.1", port), timeout=5) as s:
                s.sendall(b'{"op": "get", "key": 3}\n')
                fh = s.makefile()
                response = json.loads(fh.readline())
                assert response["status"] == "miss"
            time.sleep(0.15)  # let a telemetry row land
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=10) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        records = [json.loads(line) for line in
                   live.read_text().strip().splitlines()]
        assert records[-1]["record"] == "end"  # drain flushed the export

    def test_sigint_mid_load_drains_and_exits_zero(self):
        """SIGINT gives the same drain guarantee as SIGTERM: the
        in-flight request still gets its response, then exit 0."""
        proc = self.spawn("--deadline", "0.3")
        try:
            port = self.wait_port(proc)
            with socket.create_connection(("127.0.0.1", port), timeout=5) as s:
                fh = s.makefile()
                # park a request on a stalled origin, then interrupt
                s.sendall(b'{"op": "chaos", "action": "stall"}\n')
                assert json.loads(fh.readline())["stalled"] is True
                s.sendall(b'{"op": "get", "key": 3}\n')
                time.sleep(0.05)  # op admitted, parked on the origin
                proc.send_signal(signal.SIGINT)
                response = json.loads(fh.readline())
                assert response["status"] == "deadline"
                assert fh.readline() == ""  # closed after the drain
            assert proc.wait(timeout=10) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()

    def test_duration_auto_shutdown_drains(self, tmp_path):
        live = tmp_path / "live.jsonl"
        proc = self.spawn("--duration", "0.5",
                          "--live-export", str(live),
                          "--telemetry-interval", "0.05")
        try:
            assert proc.wait(timeout=15) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        records = [json.loads(line) for line in
                   live.read_text().strip().splitlines()]
        assert records[-1]["record"] == "end"  # drain flushed the export
