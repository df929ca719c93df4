#!/usr/bin/env python3
"""Chaos gate: one hostile plan, survival layer off vs. on.

Two scenarios defend PReCinCt's fault tolerance (one replica region per
key, failover when the home region is dark).  Each is a hostile plan, a
``run(layer_on, seed, out_dir) -> dict`` and a ``verdict(off, on) ->
{check: bool}``.  The gate runs the plan with the layer off, then on,
in this process, and passes when every check holds:

* ``sim`` — the simulator under a long response-drop regime, a mid-run
  three-node crash and a partition isolating region 0, with
  ``SimulationConfig.resilience`` off and on.  With resilience on, the
  request failure rate and the p95 failure-detection latency (issue to
  the requester declaring a request failed) are both strictly lower.
  Writes ``off-trace.jsonl`` / ``on-trace.jsonl`` (full request traces)
  and ``trace-diff.json`` (their ranked per-phase diff).
* ``service`` — the asyncio edge cache under open-loop Zipf load, with
  two shard kills, a shard wedge, an origin brownout, an origin stall
  and a latency spike; supervision plus bounded admission off
  (*control*) and on (*survival*).  Survival meets all six SLOs; control
  breaks at least one besides ``shed_under_overload`` (shedding is the
  survival layer's own mechanism).  Writes ``off-live.jsonl`` /
  ``on-live.jsonl`` (live telemetry).

Both write ``chaos-report.json`` (``scenario, seed, plan, off, on,
checks, passed``).  Exit status 0 when every check holds, 1 otherwise.

Usage::

    PYTHONPATH=src python scripts/chaos_smoke.py --scenario {sim,service} \\
        [--seed N] [--out-dir D]
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
from pathlib import Path
from typing import Callable, Dict, NamedTuple, Sequence

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro import FaultPlan, PReCinCtNetwork, SimulationConfig  # noqa: E402
from repro.obs import Observers  # noqa: E402
from repro.obs.tracediff import diff_files, p95  # noqa: E402
from repro.service import (  # noqa: E402
    EdgeCacheServer,
    LoadGenConfig,
    ServiceConfig,
    ServiceFaultPlan,
    run_loadgen,
)


class Scenario(NamedTuple):
    plan: Sequence[str]
    run: Callable[[bool, int, Path], dict]
    verdict: Callable[[dict, dict], Dict[str, bool]]


# ---------------------------------------------------------------------------
# sim: the simulator's resilience layer
# ---------------------------------------------------------------------------

SIM_PLAN = (
    "drop:p=0.35,category=response,start=30",
    "crash:at=50,nodes=3+11+19",
    "partition:start=90,end=150,regions=0",
)


def run_sim(layer_on: bool, seed: int, out_dir: Path) -> dict:
    mode = "on" if layer_on else "off"
    net = PReCinCtNetwork(
        SimulationConfig(
            n_nodes=30, n_items=80, width=600.0, height=600.0,
            duration=300.0, warmup=20.0, t_request=10.0, t_update=40.0,
            seed=seed, consistency="push-adaptive-pull",
            fault_plan=FaultPlan.parse(SIM_PLAN), resilience=layer_on,
        ),
        observers=Observers(tracing=True),
    )
    report = net.run()
    net.tracer.to_jsonl(out_dir / f"{mode}-trace.jsonl")
    if layer_on:  # the off run always goes first
        diff_files(out_dir / "off-trace.jsonl", out_dir / "on-trace.jsonl",
                   label_a="resilience-off", label_b="resilience-on",
                   ).write_json(out_dir / "trace-diff.json")
    result = {
        "resilience": layer_on,
        "requests_issued": report.requests_issued,
        "requests_failed": report.requests_failed,
        "failure_rate": (report.requests_failed / report.requests_issued
                         if report.requests_issued else 0.0),
        "p95_failure_detection_latency_s":
            p95([t.latency for t in net.tracer.completed("failed")]),
        "served_by_class": dict(report.served_by_class),
        "resilience_counters": {
            name: float(value)
            for name, value in sorted(net.stats.counters().items())
            if name.startswith("resilience.")
        },
    }
    print(f"  resilience {mode:3}: {result['requests_failed']}/"
          f"{result['requests_issued']} failed "
          f"(rate {result['failure_rate']:.3f}), p95 failure detection "
          f"{result['p95_failure_detection_latency_s']:.3f}s")
    return result


def sim_verdict(off: dict, on: dict) -> Dict[str, bool]:
    return {
        "failure_rate_strictly_lower":
            on["failure_rate"] < off["failure_rate"],
        "p95_failure_detection_strictly_lower":
            on["p95_failure_detection_latency_s"]
            < off["p95_failure_detection_latency_s"],
    }


# ---------------------------------------------------------------------------
# service: the edge cache's survival layer
# ---------------------------------------------------------------------------

SERVICE_PLAN = (
    "shard-kill:at=1.0,shard=1",
    "origin-error-rate:at=2.0,p=0.5,duration=1.5",
    "shard-kill:at=3.0,shard=2",
    "shard-wedge:at=4.0,shard=0,duration=2.0",
    "origin-stall:at=5.0,duration=1.0",
    "latency-spike:at=6.2,extra=0.2,duration=1.0",
)

AVAILABILITY_FLOOR = 0.80
P99_BOUND_MS = 1500.0

SERVICE_STATS = (
    "service.shed", "service.shed.queue_full",
    "service.worker_unavailable", "service.replica_failover",
    "service.chaos_events",
    "resilience.shard_down", "resilience.shard_restarts",
    "resilience.shard_warm_keys",
    "resilience.retry", "resilience.hedged_fetches",
    "cache.origin_errors", "cache.degraded_serves",
)


async def _serve(layer_on: bool, seed: int, out_dir: Path) -> dict:
    cfg = ServiceConfig(
        port=0, n_shards=4, n_items=400, cache_fraction=0.02, seed=seed,
        origin_latency=0.02, deadline=0.6,
        origin_retries=2 if layer_on else 0,
        hedge_after=0.15 if layer_on else None,
        max_inflight=16 if layer_on else None,
        supervise=layer_on,
        heartbeat_timeout=0.4,
        fault_plan=ServiceFaultPlan.parse(SERVICE_PLAN),
        telemetry_interval=0.5,
        live_export=str(out_dir / f"{'on' if layer_on else 'off'}-live.jsonl"),
    )
    server = EdgeCacheServer(cfg)
    await server.start()
    summary = await run_loadgen(LoadGenConfig(
        port=server.port, clients=6, duration=8.5, rate=400.0, theta=0.9,
        n_items=cfg.n_items, seed=seed, timeout=5.0,
    ))
    await asyncio.sleep(0.5)  # let the last restart cycle settle

    killed = {
        spec.shard: {"alive": server.workers[spec.shard].alive(),
                     "restarts": server.workers[spec.shard].restarts}
        for spec in cfg.fault_plan.shard_kills
    }
    down = (sorted(server.supervisor.down)
            if server.supervisor is not None else [])
    await server.shutdown()
    stats = server.stats.snapshot()
    slos = {
        "availability": summary.availability >= AVAILABILITY_FLOOR,
        "p99_bounded": summary.latency_percentile(99) <= P99_BOUND_MS,
        "shed_under_overload": summary.shed_ratio > 0.0,
        "killed_shards_serving": not down and all(
            info["alive"] and info["restarts"] >= 1
            for info in killed.values()),
        "no_stuck_requests": summary.timeouts == 0,
        "clean_drain": (
            len(server._connections) == 0
            and sum(w.load() for w in server.workers.values()) == 0),
    }
    return {
        "survival": layer_on,
        "summary": summary.to_dict(),
        "killed_shards": {str(k): v for k, v in sorted(killed.items())},
        "shards_down_at_end": down,
        "slos": slos,
        "stats": {key: stats.get(key, 0.0) for key in SERVICE_STATS},
    }


def violations(mode: dict) -> list:
    """The SLOs a mode broke.  Shedding is the survival layer's own
    mechanism, not an SLO the control run can break."""
    return sorted(
        name for name, ok in mode["slos"].items()
        if not ok and (mode["survival"] or name != "shed_under_overload"))


def run_service(layer_on: bool, seed: int, out_dir: Path) -> dict:
    result = asyncio.run(_serve(layer_on, seed, out_dir))
    result["violations"] = violations(result)
    s = result["summary"]
    print(f"  survival {'on ' if layer_on else 'off'}: "
          f"requests={s['requests']} availability={s['availability']} "
          f"shed_ratio={s['shed_ratio']} p99={s['latency_ms']['p99']}ms "
          f"timeouts={s['timeouts']} "
          f"violations={result['violations'] or 'none'}")
    return result


def service_verdict(off: dict, on: dict) -> Dict[str, bool]:
    checks = {f"survival_{name}": ok for name, ok in on["slos"].items()}
    checks["control_breaks_an_slo"] = bool(violations(off))
    return checks


SCENARIOS = {
    "sim": Scenario(SIM_PLAN, run_sim, sim_verdict),
    "service": Scenario(SERVICE_PLAN, run_service, service_verdict),
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scenario", required=True, choices=sorted(SCENARIOS))
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--out-dir", type=Path, default=Path("chaos"),
                        help="directory for the report and run artifacts "
                             "(default ./chaos)")
    args = parser.parse_args(argv)
    scenario = SCENARIOS[args.scenario]
    args.out_dir.mkdir(parents=True, exist_ok=True)

    print(f"chaos smoke: scenario={args.scenario} seed={args.seed}")
    print(f"  plan: {'; '.join(scenario.plan)}")
    off = scenario.run(False, args.seed, args.out_dir)
    on = scenario.run(True, args.seed, args.out_dir)
    checks = scenario.verdict(off, on)
    report = {
        "scenario": args.scenario,
        "seed": args.seed,
        "plan": list(scenario.plan),
        "off": off,
        "on": on,
        "checks": checks,
        "passed": all(checks.values()),
    }
    (args.out_dir / "chaos-report.json").write_text(
        json.dumps(report, indent=2, sort_keys=True) + "\n", encoding="utf-8")

    for name, ok in checks.items():
        print(f"  [{'PASS' if ok else 'FAIL'}] {name}")
    if not report["passed"]:
        print(f"chaos smoke: REGRESSION — the {args.scenario} survival "
              f"layer did not beat the hostile plan", file=sys.stderr)
        return 1
    print("chaos smoke: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
