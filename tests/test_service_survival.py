"""The service survival layer (PR 10).

Covers the four tentpole pillars and their satellites: scripted fault
plans (parse / roundtrip / validation), shard supervision (crash
restart + warm rebuild, wedge restart keeping the cache), overload
shedding (bounded admission, shed-never-fails-over),
origin brownout budgets (retry ladder, hedged fetches), the structured
``chaos`` wire op, and the open-loop load generator's outcome
accounting.

Async tests drive their own event loop via ``asyncio.run`` (no
pytest-asyncio dependency); supervision tests use real (short) wall
timeouts because the supervisor watches the event loop's clock.
"""

import asyncio
import json

import numpy as np
import pytest

from repro.core.consistency import PushAdaptivePull
from repro.ports import CounterStatSink
from repro.resilience.backoff import BackoffPolicy
from repro.resilience.manager import ResilienceManager
from repro.service import (
    CHAOS_GRAMMAR,
    CacheService,
    EdgeCacheServer,
    InMemoryOrigin,
    LoadGenConfig,
    LoadSummary,
    ManualClock,
    OriginError,
    ServiceConfig,
    ServiceFaultPlan,
    ServiceFaultSpec,
    ShardDirectory,
    WorkerUnavailable,
    run_loadgen,
)
from repro.workload.database import Database
from tests.conftest import wait_until


def make_origin(n_items=64, latency=0.0, seed=7):
    db = Database(n_items, np.random.default_rng(seed))
    origin = InMemoryOrigin(db, latency=latency)
    scheme = PushAdaptivePull()
    for item in db.items:
        item.ttr = scheme.initial_ttr(item)
    return origin, scheme


def make_shard(*, origin, scheme, resilience=None, stats=None,
               hedge_after=None, clock=None):
    return CacheService(
        0, 1e9,
        clock=clock if clock is not None else ManualClock(),
        directory=ShardDirectory(2, len(origin.db)),
        origin=origin,
        scheme=scheme,
        resilience=resilience,
        stats=stats if stats is not None else CounterStatSink(),
        hedge_after=hedge_after,
    )


def key_homed_at(server, home, replica=None):
    for key in range(server.cfg.n_items):
        if server.directory.home_region(key) != home:
            continue
        if (replica is None
                or server.directory.replica_region(key) == replica):
            return key
    pytest.skip(f"no key with home={home} replica={replica}")


class TestFaultPlan:
    def test_parse_and_timeline_order(self):
        plan = ServiceFaultPlan.parse([
            "origin-stall:at=4,duration=2",
            "shard-kill:at=2,shard=1",
            "origin-error-rate:at=1,p=0.5,duration=3",
        ])
        assert [s.kind for s in plan.timeline()] == [
            "origin-error-rate", "shard-kill", "origin-stall",
        ]
        assert plan.shard_kills[0].shard == 1
        assert plan.max_shard() == 1

    def test_aliases_map_to_canonical_fields(self):
        a = ServiceFaultPlan.parse_spec("origin-error-rate:at=1,p=0.25,dur=2")
        b = ServiceFaultPlan.parse_spec(
            "origin-error-rate:at=1,prob=0.25,duration=2"
        )
        assert a == b
        assert a.probability == 0.25 and a.duration == 2.0

    def test_json_roundtrip_is_lossless(self):
        plan = ServiceFaultPlan.parse([
            "shard-wedge:at=3,shard=0,duration=1.5",
            "latency-spike:at=5,extra=0.2,duration=2",
        ])
        assert ServiceFaultPlan.from_json(plan.to_json()) == plan
        assert ServiceFaultPlan.from_dict(plan.to_dict()) == plan

    def test_unknown_kind_echoes_grammar(self):
        with pytest.raises(ValueError, match="shard-kill:at=T,shard=N"):
            ServiceFaultPlan.parse_spec("shard-explode:at=1")

    def test_unknown_parameter_rejected(self):
        with pytest.raises(ValueError, match="unknown parameter"):
            ServiceFaultPlan.parse_spec("shard-kill:at=1,shard=0,zeal=9")

    @pytest.mark.parametrize("expr", [
        "shard-kill:at=1",                       # no shard target
        "shard-wedge:at=1,shard=0",              # no duration
        "origin-error-rate:at=1,p=1.5",          # p out of range
        "latency-spike:at=1",                    # no extra
        "origin-stall:at=-1",                    # negative time
    ])
    def test_spec_validation(self, expr):
        with pytest.raises(ValueError):
            ServiceFaultPlan.parse_spec(expr)

    def test_describe_lists_firing_order(self):
        plan = ServiceFaultPlan.parse(
            ["origin-stall:at=9", "shard-kill:at=1,shard=0"]
        )
        text = plan.describe()
        assert text.index("shard-kill") < text.index("origin-stall")
        assert ServiceFaultPlan().describe() == "ServiceFaultPlan(empty)"


def survival_config(**overrides):
    base = dict(
        port=0, n_shards=2, n_items=64, cache_fraction=1.0,
        deadline=None, supervise=True,
        heartbeat_timeout=0.15,
    )
    base.update(overrides)
    return ServiceConfig(**base)


async def start_workers(server):
    for worker in server.workers.values():
        worker.start()
    if server.supervisor is not None:
        server.supervisor.start()


async def stop_workers(server):
    if server.supervisor is not None:
        await server.supervisor.stop()
    for worker in server.workers.values():
        await worker.drain()


class TestShardSupervision:
    def test_supervision_has_no_never_set_knobs(self):
        """Always warm-rebuild, check every quarter heartbeat, reset the
        backoff ladder after ten, start origin retries and shard
        restarts at 50 ms, no hot-key protection: constants, not
        options."""
        import dataclasses
        import inspect

        from repro.service.supervision import ShardSupervisor

        names = {f.name for f in dataclasses.fields(ServiceConfig)}
        assert len(names) <= 23
        assert not names & {"warm_rebuild", "retry_backoff_base",
                            "restart_backoff_base", "hot_key_policy",
                            "hot_key_threshold", "hot_key_window"}
        keywords = set(inspect.signature(ShardSupervisor).parameters)
        assert len(keywords) <= 8
        assert not keywords & {"check_interval", "healthy_after",
                               "warm_rebuild"}

    def test_crash_restart_resets_then_warm_rebuilds_from_replica(self):
        server = EdgeCacheServer(survival_config())

        async def scenario():
            await start_workers(server)
            key = key_homed_at(server, 0, replica=1)
            await server._get(key)        # warm the home shard
            server.shards[0].put(key)     # §2.4 push warms the replica
            assert key in server.shards[1].cache

            server.workers[0].inject_crash()
            await wait_until(lambda: server.workers[0].restarts >= 1
                             and server.workers[0].alive())
            # crash semantics: the core was reset, then warm-rebuilt
            # from the replica-held pushed copy.
            assert key in server.shards[0].cache
            assert (server.shards[0].cache.get(key).version
                    == server.database[key].version)
            assert server.supervisor.down == set()
            # the reborn worker serves again
            assert (await server._get(key)).ok
            await stop_workers(server)

        asyncio.run(scenario())
        assert server.stats.value("resilience.shard_down") >= 1.0
        assert server.stats.value("resilience.shard_restarts") >= 1.0
        assert server.stats.value("resilience.shard_warm_keys") >= 1.0

    def test_wedge_restart_keeps_cache_and_queued_work(self):
        server = EdgeCacheServer(survival_config())

        async def scenario():
            await start_workers(server)
            key = key_homed_at(server, 0)
            await server._get(key)
            server.workers[0].inject_wedge(30.0)  # >> heartbeat timeout
            await asyncio.sleep(0)                # the wedge takes hold
            queued = asyncio.ensure_future(server._get(key))
            await wait_until(lambda: server.workers[0].restarts >= 1)
            response = await asyncio.wait_for(queued, timeout=5.0)
            # wedge semantics: admitted ops and cache survive the restart
            assert response.ok
            assert response.status == "hit-fresh"
            assert key in server.shards[0].cache
            await stop_workers(server)

        asyncio.run(scenario())
        assert server.stats.value("resilience.shard_restarts") >= 1.0
        # no crash: nothing was rebuilt because nothing was lost
        assert server.stats.value("resilience.shard_warm_keys") == 0.0

    def test_ops_fail_fast_while_shard_is_down(self):
        """A crashed worker's submit refuses instead of admitting."""
        server = EdgeCacheServer(survival_config(supervise=False))

        async def scenario():
            await start_workers(server)
            key = key_homed_at(server, 0)
            server.workers[0].inject_crash()  # synchronous: down at once
            assert server.workers[0].crashed()
            response = await server._get(key)
            # the dead home refused instantly; the replica answered
            assert response.ok
            assert response.extra["failover"] == "replica"
            await stop_workers(server)

        asyncio.run(scenario())
        assert server.stats.value("service.worker_unavailable") >= 1.0
        assert server.stats.value("service.replica_failover") >= 1.0

    def test_drained_worker_submit_fails_fast(self):
        """Satellite: submit after drain() raises WorkerUnavailable —
        the op is never silently admitted into a drained worker."""
        server = EdgeCacheServer(survival_config(supervise=False))

        async def scenario():
            await start_workers(server)
            key = key_homed_at(server, 0)
            worker = server.workers[0]
            await worker.drain()
            with pytest.raises(WorkerUnavailable, match="shard-drained"):
                await worker.submit(server.shards[0].get(key))
            # server-level: both workers drained -> unavailable response
            await server.workers[1].drain()
            response = await server._get(key)
            assert response.status == "unavailable"
            assert response.extra["reason"] == "shard-drained"

        asyncio.run(scenario())


class TestOverloadShedding:
    def test_admission_bound_sheds_with_explicit_verdict(self):
        server = EdgeCacheServer(survival_config(
            supervise=False, max_inflight=2, deadline=0.3,
        ))

        async def scenario():
            await start_workers(server)
            keys = [k for k in range(server.cfg.n_items)
                    if server.directory.home_region(k) == 0][:3]
            server.origin.stall()  # every miss parks on the origin
            parked = [asyncio.ensure_future(server._get(k))
                      for k in keys[:2]]
            # both admitted, both in flight
            await wait_until(lambda: server.workers[0].load() == 2)
            shed = await server._get(keys[2])
            assert shed.status == "overloaded"
            assert shed.served_class == "shed"
            assert shed.extra["reason"] == "queue-full"
            # shed must stay shed: no replica failover amplification
            assert "failover" not in shed.extra
            assert not shed.ok
            server.origin.resume()
            await asyncio.gather(*parked)
            await stop_workers(server)

        asyncio.run(scenario())
        assert server.stats.value("service.shed") == 1.0
        assert server.stats.value("service.shed.queue_full") == 1.0
        assert server.stats.value("service.replica_failover") == 0.0


class TestBrownoutBudgets:
    def test_retry_budget_rides_out_origin_errors(self):
        origin, scheme = make_origin()
        stats = CounterStatSink()
        resilience = ResilienceManager(
            retries=2, deadline=5.0, suspect_after=100.0,
            backoff=BackoffPolicy(base=0.001),
            stats=stats,
        )
        shard = make_shard(origin=origin, scheme=scheme,
                           resilience=resilience, stats=stats)
        # deterministic brownout: every origin call answers with failure
        origin.set_error_rate(1.0, rng=np.random.default_rng(0))

        async def scenario():
            browned = await shard.get(3)
            assert not browned.ok
            assert browned.status == "unavailable"
            origin.set_error_rate(0.0)
            healed = await shard.get(3)
            assert healed.status == "miss" and healed.ok

        asyncio.run(scenario())
        # one initial attempt + two retries, every one answered-failed
        assert stats.value("resilience.retry") == 2.0
        assert stats.value("cache.origin_errors") == 3.0
        assert origin.errors == 3

    def test_partial_error_rate_recovers_within_budget(self):
        origin, scheme = make_origin()
        stats = CounterStatSink()
        resilience = ResilienceManager(
            retries=3, deadline=5.0, suspect_after=100.0,
            backoff=BackoffPolicy(base=0.001),
            stats=stats,
        )
        shard = make_shard(origin=origin, scheme=scheme,
                           resilience=resilience, stats=stats)
        origin.set_error_rate(0.5, rng=np.random.default_rng(1))

        async def scenario():
            responses = [await shard.get(k) for k in range(8)]
            assert all(r.ok for r in responses)

        asyncio.run(scenario())
        # the brownout really fired; the ladder absorbed every error
        assert origin.errors > 0
        assert stats.value("resilience.retry") == float(origin.errors)

    def test_hedged_fetch_races_a_duplicate_past_the_stall(self):
        origin, scheme = make_origin()
        stats = CounterStatSink()
        shard = make_shard(origin=origin, scheme=scheme, stats=stats,
                           hedge_after=0.03)

        async def scenario():
            origin.stall()
            fetch = asyncio.ensure_future(shard.get(3))
            await wait_until(  # primary is slow: hedge fires
                lambda: stats.value("resilience.hedged_fetches") >= 1
            )
            origin.resume()
            response = await asyncio.wait_for(fetch, timeout=5.0)
            assert response.ok

        asyncio.run(scenario())
        assert stats.value("resilience.hedged_fetches") == 1.0

    def test_hedging_stays_dormant_on_a_fast_origin(self):
        origin, scheme = make_origin()
        stats = CounterStatSink()
        shard = make_shard(origin=origin, scheme=scheme, stats=stats,
                           hedge_after=0.5)

        async def scenario():
            assert (await shard.get(3)).ok

        asyncio.run(scenario())
        assert stats.value("resilience.hedged_fetches") == 0.0
        assert origin.fetches == 1


class TestChaosWireOp:
    @staticmethod
    async def request(port, payload):
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        writer.write(json.dumps(payload).encode() + b"\n")
        await writer.drain()
        line = await reader.readline()
        writer.close()
        return json.loads(line)

    def test_unknown_action_is_a_structured_error(self):
        async def scenario():
            server = EdgeCacheServer(survival_config(supervise=False))
            await server.start()
            response = await self.request(
                server.port, {"op": "chaos", "action": "frobnicate"}
            )
            await server.shutdown()
            return response

        response = asyncio.run(scenario())
        assert response["ok"] is False
        assert "frobnicate" in response["error"]
        assert response["actions"] == ["stall", "resume", "inject"]
        assert response["grammar"] == list(CHAOS_GRAMMAR)

    def test_bad_inject_spec_echoes_the_grammar(self):
        async def scenario():
            server = EdgeCacheServer(survival_config(supervise=False))
            await server.start()
            response = await self.request(
                server.port,
                {"op": "chaos", "action": "inject", "spec": "bogus:at=1"},
            )
            await server.shutdown()
            return response

        response = asyncio.run(scenario())
        assert response["ok"] is False
        assert response["grammar"] == list(CHAOS_GRAMMAR)

    @pytest.mark.parametrize("at", [0, 0.05])
    def test_inject_naming_a_missing_shard_is_refused_like_a_bad_spec(
        self, at, caplog
    ):
        """Runtime injection is held to a plan's rule (shard < n_shards):
        the line is refused before anything is applied or scheduled, and
        the connection and the answers it already owes survive it."""
        async def scenario():
            server = EdgeCacheServer(survival_config(supervise=False))
            await server.start()
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port
            )
            tasks = len(asyncio.all_tasks())
            ping = {"op": "ping"}
            inject = {"op": "chaos", "action": "inject",
                      "spec": f"shard-kill:at={at},shard=99"}
            writer.write(b"".join(
                json.dumps(p).encode() + b"\n" for p in (ping, inject, ping)
            ))
            first, refused, last = [
                json.loads(await asyncio.wait_for(reader.readline(), 5.0))
                for _ in range(3)
            ]
            assert first["op"] == last["op"] == "ping"
            assert first["ok"] is True and last["ok"] is True
            assert refused["op"] == "chaos" and refused["ok"] is False
            assert "shard 99" in refused["error"]
            assert refused["grammar"] == list(CHAOS_GRAMMAR)
            assert server.injector.applied == 0
            assert not server.injector._timers
            assert len(asyncio.all_tasks()) == tasks
            writer.write(json.dumps(ping).encode() + b"\n")  # still usable
            again = json.loads(await asyncio.wait_for(reader.readline(), 5.0))
            assert again["ok"] is True
            writer.close()
            await server.shutdown()
            return server

        server = asyncio.run(scenario())
        assert server.stats.value("service.chaos_events") == 0
        assert all(w.restarts == 0 for w in server.workers.values())
        assert not [r for r in caplog.records if r.name == "asyncio"]

    def test_stall_resume_aliases_drive_the_injector(self):
        async def scenario():
            server = EdgeCacheServer(survival_config(supervise=False))
            await server.start()
            stalled = await self.request(
                server.port, {"op": "chaos", "action": "stall"}
            )
            assert stalled["ok"] and stalled["stalled"] is True
            assert server.origin.stalled
            resumed = await self.request(
                server.port, {"op": "chaos", "action": "resume"}
            )
            assert resumed["ok"] and resumed["stalled"] is False
            assert not server.origin.stalled
            events = server.stats.value("service.chaos_events")
            await server.shutdown()
            return events

        assert asyncio.run(scenario()) == 2.0

    def test_inject_applies_spec_with_auto_revert(self):
        async def scenario():
            server = EdgeCacheServer(survival_config(supervise=False))
            await server.start()
            response = await self.request(server.port, {
                "op": "chaos", "action": "inject",
                "spec": "latency-spike:at=0,extra=0.25,duration=0.05",
            })
            assert response["ok"] is True
            assert response["spec"]["kind"] == "latency-spike"
            assert server.origin.extra_latency == 0.25
            await wait_until(lambda: server.origin.extra_latency == 0.0)
            assert server.origin.extra_latency == 0.0
            await server.shutdown()

        asyncio.run(scenario())

    def test_scripted_plan_runs_on_the_service_clock(self):
        plan = ServiceFaultPlan(
            (ServiceFaultSpec(kind="shard-kill", at=0.05, shard=0),)
        )

        async def scenario():
            server = EdgeCacheServer(survival_config(fault_plan=plan))
            await server.start()
            await wait_until(lambda: server.injector.applied == 1)
            await wait_until(lambda: server.workers[0].restarts >= 1)
            key = key_homed_at(server, 0)
            response = await server._get(key)
            assert response.ok
            await server.shutdown()
            return server

        server = asyncio.run(scenario())
        assert server.stats.value("service.chaos_events") == 1.0
        assert server.stats.value("resilience.shard_restarts") >= 1.0


class TestOpenLoopLoadgen:
    def test_outcome_classification_and_ratios(self):
        summary = LoadSummary()
        summary.record({"op": "get", "ok": True, "status": "hit-fresh",
                        "served_class": "local", "latency_ms": 1.0})
        summary.record({"op": "get", "ok": True, "status": "stale-hit",
                        "served_class": "degraded", "latency_ms": 2.0})
        summary.record({"op": "get", "ok": False, "status": "overloaded",
                        "served_class": "shed", "latency_ms": 0.1})
        summary.record({"op": "get", "ok": False, "status": "unavailable",
                        "served_class": "failed", "latency_ms": 3.0})
        summary.record_timeout()
        assert summary.by_outcome == {
            "served": 1, "degraded": 1, "shed": 1, "error": 1, "timeout": 1,
        }
        # shed traffic is excluded from the availability denominator
        assert summary.availability == pytest.approx(2.0 / 4.0)
        assert summary.shed_ratio == pytest.approx(1.0 / 5.0)
        d = summary.to_dict()
        assert d["by_outcome"]["shed"] == 1
        assert "availability" in d and "shed_ratio" in d
        assert "shed" in summary.render()

    def test_rate_must_be_positive(self):
        with pytest.raises(ValueError, match="rate"):
            LoadGenConfig(port=1, rate=-5.0)

    def test_open_loop_paces_requests_to_the_rate(self):
        async def scenario():
            server = EdgeCacheServer(ServiceConfig(
                port=0, n_shards=2, n_items=64, cache_fraction=0.5,
            ))
            await server.start()
            summary = await run_loadgen(LoadGenConfig(
                port=server.port, clients=2, duration=1.0,
                rate=100.0, theta=0.9, n_items=64, timeout=5.0,
            ))
            await server.shutdown()
            return summary

        summary = asyncio.run(scenario())
        # open loop: the schedule, not the service, sets the volume
        assert 60 <= summary.requests <= 130
        assert summary.timeouts == 0
        assert summary.errors == 0
        assert summary.by_outcome.get("served", 0) == summary.requests
        assert summary.availability == 1.0
        assert summary.shed_ratio == 0.0
