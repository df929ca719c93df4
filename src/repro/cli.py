"""Command-line interface.

Run single simulations or regenerate the paper's figures without writing
any Python::

    python -m repro run --nodes 80 --speed 6 --cache 0.02 --policy gd-ld
    python -m repro fig 4          # regenerate one figure's data series
    python -m repro fig all        # regenerate everything
    python -m repro theory --nodes 20 40 60 80
    python -m repro run --fault 'drop:p=0.1,start=100,end=400'
    python -m repro run --resilience --retries 2 --deadline 5
    python -m repro audit --seed 42 --scenario default
    python -m repro run --slowest 5 --export-chrome trace.json
    python -m repro trace diff baseline.jsonl faulted.jsonl
    python -m repro energy --scenario baseline --tolerance 0.5
    python -m repro run --anomaly 'mac.backlog_max_s>5' --bundle-dir bundles/
    python -m repro run --watch --live-export live.jsonl
    python -m repro watch live.jsonl --follow
    python -m repro serve --shards 4 --port 7117 --metrics-snapshot metrics.prom
    python -m repro loadgen --port 7117 --clients 8 --duration 10

The CLI is a thin veneer over :mod:`repro.experiments`; anything it can
do is equally available through the library API.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

from repro.analysis.theoretical import TheoreticalModel
from repro.config import SimulationConfig
from repro.core.messages import CONTROL_BYTES
from repro.core.network import PReCinCtNetwork
from repro.experiments.figures import (
    QUICK_SCALE,
    format_cache_sweep,
    format_consistency_sweep,
    format_energy_points,
    run_fig4_fig5,
    run_fig6_fig7_fig8,
    run_fig9a,
    run_fig9b,
)

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="PReCinCt (IPDPS 2005) reproduction — simulations and figures",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser(
        "run",
        help="run one PReCinCt simulation, optionally under a fault plan "
             "and with request tracing",
    )
    run_p.add_argument("--nodes", type=int, default=80)
    run_p.add_argument("--regions", type=int, default=9)
    run_p.add_argument("--speed", type=float, default=6.0,
                       help="max node speed m/s (0 = static)")
    run_p.add_argument("--cache", type=float, default=0.02,
                       help="cache fraction of database size")
    run_p.add_argument("--policy", choices=["gd-ld", "gd-size", "lru", "lfu"],
                       default="gd-ld")
    run_p.add_argument(
        "--mobility",
        choices=["random-waypoint", "manhattan", "group"],
        default="random-waypoint",
    )
    run_p.add_argument("--digest", action="store_true",
                       help="enable Summary-Cache regional digests")
    run_p.add_argument("--prefetch", action="store_true",
                       help="enable popularity prefetching")
    run_p.add_argument("--churn-uptime", type=float, default=None,
                       help="mean connected seconds per peer (enables churn)")
    run_p.add_argument("--map", action="store_true",
                       help="print an ASCII topology snapshot after the run")
    # Every tracing flag arms tracing and span-level energy attribution,
    # both digest-neutral.
    run_p.add_argument("--trace-sample-rate", type=float, default=None,
                       metavar="RATE",
                       help="enable request tracing with head-based "
                            "sampling at RATE in [0, 1] (digest-neutral; "
                            "bounds tracer memory on huge runs)")
    run_p.add_argument("--export-trace", default=None, metavar="PATH",
                       help="write the (sampled) traces as JSON lines "
                            "(implies tracing)")
    run_p.add_argument("--slowest", type=int, default=None, metavar="N",
                       help="show the N slowest requests with per-phase "
                            "latency and energy breakdowns (implies "
                            "tracing)")
    run_p.add_argument("--outcome", default=None, metavar="CLASS",
                       help="break down only traces with this outcome, "
                            "e.g. 'failed', 'home', 'local-cache' "
                            "(implies tracing)")
    run_p.add_argument("--export-chrome", default=None, metavar="PATH",
                       help="write a Chrome trace-event file "
                            "(chrome://tracing, Perfetto; implies tracing)")
    run_p.add_argument(
        "--fault", action="append", default=[], metavar="SPEC",
        help="fault rule, e.g. 'drop:p=0.1,start=100,end=400', "
             "'crash:at=200,nodes=3+7', 'partition:start=100,end=200,regions=0'; "
             "repeatable",
    )
    run_p.add_argument("--plan-file", default=None, metavar="PATH",
                       help="JSON fault-plan file (merged after --fault rules)")
    run_p.add_argument("--check-invariants", action="store_true",
                       help="re-check system invariants at every fault boundary")
    run_p.add_argument(
        "--anomaly", action="append", default=[], metavar="RULE",
        type=_anomaly_rule,
        help="anomaly trigger on a telemetry series, e.g. "
             "'mac.backlog_max_s>0.5' or 'cache.hit_ratio<0.1'; fires a "
             "flight-recorder bundle when breached (implies telemetry); "
             "repeatable",
    )
    run_p.add_argument(
        "--bundle-dir", default=None, metavar="DIR",
        help="arm the flight recorder: crashes and anomaly triggers "
             "leave forensic bundles in DIR",
    )
    run_p.add_argument(
        "--watch", action="store_true",
        help="live terminal dashboard on stderr while the run executes "
             "(in-place ANSI repaint on a TTY, one-line summaries "
             "otherwise; implies telemetry)",
    )
    run_p.add_argument(
        "--watch-interval", type=float, default=None, metavar="S",
        help="minimum wall seconds between dashboard repaints "
             "(default 1.0)",
    )
    run_p.add_argument(
        "--live-export", default=None, metavar="PATH",
        help="stream each telemetry sample to PATH as JSONL, flushed "
             "per record so 'tail -f' and 'repro watch --follow' can "
             "track the run live (implies telemetry)",
    )
    run_p.add_argument(
        "--metrics-snapshot", default=None, metavar="PATH",
        help="keep PATH updated with a Prometheus-style text snapshot "
             "of the latest telemetry row (implies telemetry)",
    )
    run_p.add_argument(
        "--no-color", action="store_true",
        help="force the dashboard's plain one-line-summary mode "
             "(no ANSI; the CI-safe mode)",
    )
    run_p.add_argument(
        "--resilience", action="store_true",
        help="enable the adaptive request-resilience layer: bounded "
             "retries with backoff, per-request deadline budgets, and "
             "per-region circuit breaking (see docs/RESILIENCE.md)",
    )
    run_p.add_argument(
        "--retries", type=int, default=None, metavar="N",
        help="retry budget per remote phase (implies --resilience; "
             "default from SimulationConfig)",
    )
    run_p.add_argument(
        "--deadline", type=float, default=None, metavar="S",
        help="total latency budget per request in seconds; 0 disables "
             "deadlines (implies --resilience)",
    )
    run_p.add_argument("--report", action="store_true",
                       help="print the full multi-section run summary")
    run_p.add_argument(
        "--consistency",
        choices=["none", "plain-push", "pull-every-time", "push-adaptive-pull"],
        default="none",
    )
    run_p.add_argument("--t-update", type=float, default=None,
                       help="mean inter-update time (s); omit or 0 for "
                            "read-only")
    run_p.add_argument("--duration", type=float, default=1000.0)
    run_p.add_argument("--warmup", type=float, default=200.0)
    run_p.add_argument("--items", type=int, default=1000)
    run_p.add_argument("--seed", type=int, default=1)

    fig_p = sub.add_parser("fig", help="regenerate a paper figure's data")
    fig_p.add_argument("figure", choices=["4", "5", "6", "7", "8", "9a", "9b", "all"])
    fig_p.add_argument("--quick", action="store_true",
                       help="smaller/faster sweep (noisier curves)")
    fig_p.add_argument("--processes", type=int, default=1, metavar="N",
                       help="fan the figure's whole grid of runs out over "
                            "N worker processes (default 1 = serial)")

    th_p = sub.add_parser("theory", help="closed-form energy model (eqs. 11, 13)")
    th_p.add_argument("--nodes", type=int, nargs="+", default=[20, 40, 60, 80])
    th_p.add_argument("--regions", type=int, default=9)
    th_p.add_argument("--area", type=float, default=600.0)

    aud_p = sub.add_parser(
        "audit",
        help="determinism audit: run a scenario repeatedly, compare digests",
    )
    from repro.faults.audit import SCENARIOS

    aud_p.add_argument("--scenario", default="default",
                       choices=sorted(SCENARIOS))
    aud_p.add_argument("--seed", type=int, default=42)
    aud_p.add_argument("--runs", type=int, default=2)
    aud_p.add_argument("--golden", default=None, metavar="PATH",
                       help="golden-digest JSON file to verify against")
    aud_p.add_argument(
        "--refresh-golden", action="store_true",
        help="re-run every canonical scenario and rewrite --golden PATH",
    )
    aud_p.add_argument(
        "--bundle-dir", default=None, metavar="DIR",
        help="arm the flight recorder: in-run incidents and digest "
             "divergences leave forensic bundles in DIR",
    )
    aud_p.add_argument(
        "--export-trace", default=None, metavar="PATH",
        help="also trace the final audit run (digest-neutral) and write "
             "its traces as JSON lines, for 'repro trace diff'",
    )

    tr_p = sub.add_parser(
        "trace", help="diff two trace exports (trace diff A B)",
    )
    tr_sub = tr_p.add_subparsers(dest="trace_cmd", metavar="{diff}",
                                 required=True)
    diff_p = tr_sub.add_parser(
        "diff",
        help="align two Tracer.to_jsonl exports and rank per-phase "
             "latency regressions",
    )
    diff_p.add_argument("trace_a", metavar="A.jsonl",
                        help="baseline trace export")
    diff_p.add_argument("trace_b", metavar="B.jsonl",
                        help="candidate trace export")
    diff_p.add_argument("--json", default=None, metavar="PATH",
                        help="also write the diff report as JSON")
    diff_p.add_argument("--top", type=int, default=0, metavar="N",
                        help="list only the N worst phases (0 = all)")

    en_p = sub.add_parser(
        "energy",
        help="reconcile simulated per-request energy against the "
             "paper's closed forms (eqs. 11, 12-13)",
    )
    en_p.add_argument("--scenario", default="baseline",
                      choices=sorted(SCENARIOS))
    en_p.add_argument("--seed", type=int, default=42)
    en_p.add_argument("--tolerance", type=float, default=0.5,
                      help="pass while |simulated/eq.13 - 1| <= TOLERANCE "
                           "(default 0.5; the closed form is mean-field)")
    en_p.add_argument("--json", default=None, metavar="PATH",
                      help="also write the reconciliation report as JSON")

    watch_p = sub.add_parser(
        "watch",
        help="render a run's --live-export JSONL as a dashboard: "
             "follow a live run (--follow) or replay a finished one",
    )
    watch_p.add_argument("path", metavar="PATH",
                         help="telemetry JSONL export to read "
                              "(a --live-export file)")
    watch_p.add_argument("--follow", "-f", action="store_true",
                         help="keep polling for new records (tail -f) "
                              "until the run's end marker or Ctrl-C")
    watch_p.add_argument("--interval", type=float, default=1.0, metavar="S",
                         help="minimum wall seconds between repaints "
                              "(default 1.0)")
    watch_p.add_argument("--timeout", type=float, default=None, metavar="S",
                         help="with --follow: give up after S wall "
                              "seconds without a new record")
    watch_p.add_argument("--no-color", action="store_true",
                         help="plain one-line-summary mode (no ANSI)")

    srv_p = sub.add_parser(
        "serve",
        help="run the asyncio edge-cache service: the simulation's "
             "cache core (GD-LD, TTR consistency, breakers) behind a "
             "JSON-lines TCP API over geohash-routed region shards",
    )
    srv_p.add_argument("--host", default="127.0.0.1")
    srv_p.add_argument("--port", type=int, default=7117,
                       help="TCP port (0 = pick a free port)")
    srv_p.add_argument("--shards", type=int, default=4,
                       help="number of region shards (default 4)")
    srv_p.add_argument("--items", type=int, default=500,
                       help="origin database size (default 500)")
    srv_p.add_argument("--cache", type=float, default=0.05,
                       help="per-shard cache capacity as a fraction of "
                            "total database bytes (default 0.05)")
    srv_p.add_argument(
        "--consistency",
        choices=["plain-push", "pull-every-time", "push-adaptive-pull"],
        default="push-adaptive-pull",
    )
    srv_p.add_argument("--origin-latency", type=float, default=0.0,
                       metavar="S",
                       help="simulated origin round-trip seconds "
                            "(default 0)")
    srv_p.add_argument("--deadline", type=float, default=1.0, metavar="S",
                       help="per-request latency budget in seconds; "
                            "0 disables deadlines (default 1.0)")
    srv_p.add_argument("--origin-retries", type=int, default=0, metavar="N",
                       help="origin retry budget per request; only "
                            "answered failures consume it (default 0)")
    srv_p.add_argument("--hedge-after", type=float, default=None,
                       metavar="S",
                       help="launch a hedged duplicate of an origin call "
                            "slow for S seconds (default: no hedging)")
    srv_p.add_argument("--max-inflight", type=int, default=64, metavar="N",
                       help="per-shard bound on admitted-but-unfinished "
                            "ops before shedding; 0 = unbounded "
                            "(default 64)")
    srv_p.add_argument("--no-supervise", action="store_true",
                       help="disable shard supervision (crash/wedge "
                            "detection, backoff restarts, warm rebuild)")
    srv_p.add_argument("--heartbeat-timeout", type=float, default=1.0,
                       metavar="S",
                       help="seconds a shard may keep ops waiting "
                            "without progress before it is declared "
                            "wedged (default 1.0)")
    srv_p.add_argument("--hot-key-policy", choices=["off", "shed", "coalesce"],
                       default="off",
                       help="hot-key protection: shed or coalesce keys "
                            "over the rate threshold (default off)")
    srv_p.add_argument("--hot-key-threshold", type=int, default=50,
                       metavar="N",
                       help="requests per window that make a key hot "
                            "(default 50)")
    srv_p.add_argument("--service-fault", action="append", default=[],
                       metavar="SPEC", dest="service_faults",
                       help="scripted chaos event, e.g. "
                            "'shard-kill:at=2,shard=1' or "
                            "'origin-error-rate:at=1,p=0.5,duration=3'; "
                            "repeatable")
    srv_p.add_argument("--duration", type=float, default=None, metavar="S",
                       help="auto-shutdown after S wall seconds "
                            "(default: run until SIGTERM)")
    srv_p.add_argument("--seed", type=int, default=1)
    srv_p.add_argument("--telemetry-interval", type=float, default=1.0,
                       metavar="S",
                       help="seconds between telemetry samples "
                            "(default 1.0)")
    srv_p.add_argument("--live-export", default=None, metavar="PATH",
                       help="stream telemetry samples to PATH as JSONL "
                            "('repro watch PATH --follow' tails it)")
    srv_p.add_argument("--metrics-snapshot", default=None, metavar="PATH",
                       help="keep PATH updated with a Prometheus-style "
                            "snapshot of the latest telemetry row")
    srv_p.add_argument("--watch", action="store_true",
                       help="live terminal dashboard on stderr")
    srv_p.add_argument("--no-color", action="store_true",
                       help="plain one-line dashboard output (no ANSI)")

    lg_p = sub.add_parser(
        "loadgen",
        help="Zipf load generator against a running 'repro serve' "
             "instance: closed-loop by default, open-loop with --rate",
    )
    lg_p.add_argument("--host", default="127.0.0.1")
    lg_p.add_argument("--port", type=int, default=7117)
    lg_p.add_argument("--clients", type=int, default=4,
                      help="concurrent clients (default 4)")
    lg_p.add_argument("--rate", type=float, default=None, metavar="R",
                      help="open-loop offered load in requests/second "
                           "across all clients (default: closed loop)")
    lg_p.add_argument("--duration", type=float, default=5.0, metavar="S",
                      help="wall seconds to run (default 5)")
    lg_p.add_argument("--theta", type=float, default=0.8,
                      help="Zipf skew of key popularity (default 0.8)")
    lg_p.add_argument("--items", type=int, default=500,
                      help="keyspace size; must not exceed the server's "
                           "--items (default 500)")
    lg_p.add_argument("--put-ratio", type=float, default=0.0,
                      help="fraction of operations that are puts "
                           "(default 0 = read-only)")
    lg_p.add_argument("--timeout", type=float, default=5.0, metavar="S",
                      help="client-side per-request timeout (default 5)")
    lg_p.add_argument("--seed", type=int, default=1)
    lg_p.add_argument("--expect-hit-ratio", type=float, default=None,
                      metavar="R",
                      help="exit 1 unless the observed hit ratio "
                           "reaches R (CI smoke checks)")
    lg_p.add_argument("--json", default=None, metavar="PATH",
                      help="also write the summary as JSON")

    camp_p = sub.add_parser(
        "campaign",
        help="orchestrated experiment campaigns: journaled, parallel, "
             "resumable run-graphs with digest-verified artifacts",
    )
    camp_sub = camp_p.add_subparsers(dest="campaign_cmd", required=True)

    def _campaign_exec_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--runner", choices=("inprocess", "pool"),
            default="pool",
            help="execution backend: sequential in-process or a "
                 "contained process pool (default pool)",
        )
        p.add_argument("--processes", type=int, default=None, metavar="N",
                       help="pool width (default: CPU count)")
        p.add_argument("--timeout", type=float, default=None, metavar="S",
                       help="per-job wall-clock timeout for the pool "
                            "runner (default: none)")
        p.add_argument("--max-jobs", type=int, default=None, metavar="N",
                       help="stop after N job results this pass — a "
                            "deterministic interrupt; exits 3 when jobs "
                            "remain (resume to continue)")
        p.add_argument("--live-export", default=None, metavar="PATH",
                       help="append per-job telemetry rows to a JSONL "
                            "file readable by 'repro watch'")
        p.add_argument("--watch", action="store_true",
                       help="render live campaign progress to stderr")
        p.add_argument("--no-color", action="store_true",
                       help="plain-line dashboard output (no ANSI)")

    crun_p = camp_sub.add_parser(
        "run", help="start (or continue) a preset campaign in DIR")
    crun_p.add_argument("dir", metavar="DIR",
                        help="campaign directory (definition, journal, "
                             "per-job artifacts)")
    crun_p.add_argument("--preset", default="mini",
                        choices=("mini", "cache-study", "consistency"),
                        help="which built-in run-graph to instantiate "
                             "(default mini)")
    crun_p.add_argument("--seeds", type=int, nargs="+", default=None,
                        metavar="S", help="seed axis (default: 1 2)")
    _campaign_exec_flags(crun_p)

    cres_p = camp_sub.add_parser(
        "resume",
        help="continue the campaign recorded in DIR/campaign.json; "
             "completed jobs are digest-verified and reused",
    )
    cres_p.add_argument("dir", metavar="DIR")
    _campaign_exec_flags(cres_p)

    cst_p = camp_sub.add_parser(
        "status", help="replay DIR's journal and scan artifacts")
    cst_p.add_argument("dir", metavar="DIR")

    cver_p = camp_sub.add_parser(
        "verify",
        help="digest-verify every committed artifact against the "
             "campaign definition (exit 1 on stale/corrupt)",
    )
    cver_p.add_argument("dir", metavar="DIR")
    cver_p.add_argument("--strict", action="store_true",
                        help="also fail on missing/incomplete jobs "
                             "(i.e. require a fully completed campaign)")

    return parser


def _anomaly_rule(spec: str) -> str:
    """``argparse`` type for ``--anomaly``: validate at parse time.

    A malformed rule fails before any simulation state is built, with
    the offending rule echoed and the grammar in the message.
    """
    from repro.obs.anomaly import AnomalyRule

    try:
        AnomalyRule.parse(spec)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"{exc} — expected <series><op><threshold> with op '>' or "
            f"'<', e.g. 'mac.backlog_max_s>5'"
        ) from None
    return spec


def _resilience_overrides(args: argparse.Namespace) -> dict:
    """Config overrides from the --resilience/--retries/--deadline flags."""
    enabled = (
        args.resilience or args.retries is not None or args.deadline is not None
    )
    if not enabled:
        return {}
    out = {"resilience": True}
    if args.retries is not None:
        out["resilience_retries"] = args.retries
    if args.deadline is not None:
        out["request_deadline"] = args.deadline if args.deadline > 0 else None
    return out


def _fault_plan(args: argparse.Namespace):
    """The --fault rules, then the --plan-file rules; None when empty."""
    from repro.faults.plan import FaultPlan

    try:
        specs = list(FaultPlan.parse(args.fault).specs)
        if args.plan_file is not None:
            with open(args.plan_file, "r", encoding="utf-8") as fh:
                specs.extend(FaultPlan.from_json(fh.read()).specs)
    except (ValueError, TypeError, OSError) as exc:
        raise ValueError(f"invalid fault plan: {exc}") from None
    return FaultPlan(tuple(specs)) or None


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.analysis.summary import describe_faults, describe_run, describe_traces
    from repro.obs.observers import Observers

    tracing = any(flag is not None for flag in (
        args.trace_sample_rate, args.export_trace, args.slowest,
        args.outcome, args.export_chrome,
    ))
    # Flags left unset keep the Observers defaults.
    given = {
        "trace_sample_rate": args.trace_sample_rate,
        "watch_interval": args.watch_interval,
    }
    try:
        cfg = _run_config(args)
        observers = Observers(
            tracing=tracing,
            energy_attribution=tracing,
            # Specs were validated at argparse time (_anomaly_rule).
            telemetry=bool(args.anomaly),
            anomaly_rules=tuple(args.anomaly),
            recorder_dir=args.bundle_dir,
            live_export=args.live_export,
            metrics_snapshot=args.metrics_snapshot,
            dashboard=args.watch,
            dashboard_mode="plain" if args.no_color else "auto",
            **{k: v for k, v in given.items() if v is not None},
        )
    except (ValueError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    plan = cfg.fault_plan
    if plan is not None:
        print(plan.describe(), file=sys.stderr)
    rules = f", {len(plan)} fault rule(s)" if plan is not None else ""
    print(f"running: {cfg.n_nodes} nodes, {cfg.n_regions} regions, "
          f"{cfg.duration:.0f}s virtual time{rules} ...", file=sys.stderr)
    net = PReCinCtNetwork(cfg, observers=observers)
    if net.faults is not None and args.check_invariants:
        net.faults.check_invariants = True
    report = net.run()
    if args.export_trace is not None:
        n = net.tracer.to_jsonl(args.export_trace)
        print(f"wrote {n} trace(s) to {args.export_trace}")
    if args.export_chrome is not None:
        n = net.tracer.to_chrome_trace(args.export_chrome)
        print(f"wrote {n} trace event(s) to {args.export_chrome}")
    if observers.live_sink is not None:
        print(f"live export: {observers.live_sink.rows_written} row(s) to "
              f"{args.live_export}")
    if observers.metrics_sink is not None:
        print(f"metrics snapshot: {observers.metrics_sink.snapshots_written} "
              f"rewrite(s) of {args.metrics_snapshot}")
    slowest = args.slowest or 0
    if args.report:
        print(describe_run(net, report, topology=args.map,
                           outcome=args.outcome, slowest=slowest))
        return 0
    print(report.row())
    print(
        f"  latency p50/p95/p99 = {report.latency_p50:.3f} / "
        f"{report.latency_p95:.3f} / {report.latency_p99:.3f} s"
    )
    for cls, count in sorted(report.served_by_class.items()):
        print(f"  served[{cls}] = {count}")
    for section in (describe_faults(net),
                    describe_traces(net, outcome=args.outcome, slowest=slowest)):
        if section:
            print(section)
    if net.anomaly is not None:
        print(f"  anomaly triggers: {net.anomaly.triggers} firing(s) "
              f"across {len(net.anomaly.rules)} rule(s)")
        for t, spec, value in net.anomaly.fired:
            print(f"    t={t:8.1f}s  {spec}  (observed {value:g})")
    if net.recorder is not None and net.recorder.manifests:
        print(f"  flight recorder: {len(net.recorder.manifests)} "
              f"bundle(s) under {args.bundle_dir}")
    if args.map:
        from repro.analysis.topology_map import render_topology

        print(render_topology(net))
    return 0


def _run_config(args: argparse.Namespace) -> SimulationConfig:
    return SimulationConfig(
        n_nodes=args.nodes,
        n_regions=args.regions,
        max_speed=args.speed if args.speed > 0 else None,
        mobility_model=args.mobility,
        cache_fraction=args.cache,
        replacement_policy=args.policy,
        consistency=args.consistency,
        t_update=args.t_update or None,  # 0 = read-only
        duration=args.duration,
        warmup=args.warmup,
        n_items=args.items,
        seed=args.seed,
        enable_digest=args.digest,
        enable_prefetch=args.prefetch,
        churn_uptime=args.churn_uptime,
        fault_plan=_fault_plan(args),
        **_resilience_overrides(args),
    )


def _cmd_fig(args: argparse.Namespace) -> int:
    quick = dict(QUICK_SCALE, seeds=(1,)) if args.quick else {}
    quick9 = dict(duration=400.0, warmup=80.0, seeds=(1,)) if args.quick else {}
    want = args.figure

    if want in ("4", "5", "all"):
        points = run_fig4_fig5(processes=args.processes, **quick)
        print("=== Figs. 4-5: latency / byte hit ratio vs cache size ===")
        print(format_cache_sweep(points))
    if want in ("6", "7", "8", "all"):
        points = run_fig6_fig7_fig8(processes=args.processes, **quick)
        print("=== Figs. 6-8: consistency schemes vs update rate ===")
        print(format_consistency_sweep(points))
    if want in ("9a", "all"):
        points = run_fig9a(processes=args.processes, **quick9)
        print("=== Fig. 9(a): energy vs node count ===")
        print(format_energy_points(points, "nodes"))
    if want in ("9b", "all"):
        points = run_fig9b(processes=args.processes, **quick9)
        print("=== Fig. 9(b): energy vs region count ===")
        print(format_energy_points(points, "regions"))
    return 0


def _cmd_theory(args: argparse.Namespace) -> int:
    model = TheoreticalModel(area_side=args.area, request_bytes=CONTROL_BYTES)
    print(f"{'nodes':>6} {'flooding(mJ)':>13} {'precinct(mJ)':>13}")
    for n in args.nodes:
        print(
            f"{n:>6} {model.flooding_energy_mj(n):>13.2f} "
            f"{model.precinct_energy_mj(n, args.regions):>13.2f}"
        )
    return 0


def _cmd_audit(args: argparse.Namespace) -> int:
    from repro.faults.audit import (
        CANONICAL_SCENARIOS,
        audit_scenario,
        load_golden,
        refresh_golden,
    )

    if args.refresh_golden:
        if args.golden is None:
            print("--refresh-golden requires --golden PATH", file=sys.stderr)
            return 2
        entries = refresh_golden(
            args.golden, CANONICAL_SCENARIOS, seed=args.seed, runs=args.runs
        )
        for name, entry in sorted(entries.items()):
            print(f"{name:<10} seed={entry['seed']} eventlog={entry['eventlog']}")
        print(f"wrote {len(entries)} golden digest(s) to {args.golden}")
        return 0

    try:
        golden = load_golden(args.golden) if args.golden is not None else None
        result = audit_scenario(
            args.scenario, seed=args.seed, runs=args.runs, golden=golden,
            bundle_dir=args.bundle_dir,
            trace_path=args.export_trace,
        )
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"scenario={result.scenario} seed={result.seed} runs={len(result.digests)}")
    for index, digest in enumerate(result.digests, start=1):
        print(f"  run {index}: eventlog={digest.eventlog}")
        print(f"         report  ={digest.report}")
    print(f"determinism: {'OK' if result.deterministic else 'FAILED'}")
    if result.golden_match is not None:
        print(f"golden:      {'OK' if result.golden_match else 'MISMATCH'}")
    for message in result.messages:
        print(message, file=sys.stderr)
    return 0 if result.ok else 1


def _cmd_trace_diff(args: argparse.Namespace) -> int:
    from repro.obs.tracediff import diff_files

    try:
        diff = diff_files(args.trace_a, args.trace_b)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(diff.render(top=args.top))
    if args.json is not None:
        diff.write_json(args.json)
        print(f"wrote diff report to {args.json}")
    return 0


def _cmd_energy(args: argparse.Namespace) -> int:
    from repro.analysis.energy_reconcile import reconcile_energy

    try:
        result = reconcile_energy(
            args.scenario, seed=args.seed, tolerance=args.tolerance
        )
    except (ValueError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(result.render())
    if args.json is not None:
        import json

        from repro.obs.export import export_path

        path = export_path(args.json)
        path.write_text(
            json.dumps(result.to_dict(), indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        print(f"wrote reconciliation report to {args.json}")
    return 0 if result.passed else 1


def _cmd_watch(args: argparse.Namespace) -> int:
    from repro.obs.watch import watch_file

    try:
        result = watch_file(
            args.path,
            follow=args.follow,
            interval=args.interval,
            mode="plain" if args.no_color else "auto",
            timeout=args.timeout,
        )
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if result.ended:
        status = "run finished"
    elif result.timed_out:
        status = f"no new records for {args.timeout:g}s"
    else:
        status = "end of file"
    print(f"watched {result.rows} row(s), {result.events} event(s) "
          f"({status})", file=sys.stderr)
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.service import (
        CHAOS_GRAMMAR,
        EdgeCacheServer,
        ServiceConfig,
        ServiceFaultPlan,
    )

    try:
        fault_plan = (
            ServiceFaultPlan.parse(args.service_faults)
            if args.service_faults else None
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        print("supported fault specs:", file=sys.stderr)
        for line in CHAOS_GRAMMAR:
            print(f"  {line}", file=sys.stderr)
        return 2
    try:
        cfg = ServiceConfig(
            host=args.host,
            port=args.port,
            n_shards=args.shards,
            n_items=args.items,
            cache_fraction=args.cache,
            seed=args.seed,
            origin_latency=args.origin_latency,
            consistency=args.consistency,
            deadline=args.deadline if args.deadline > 0 else None,
            origin_retries=args.origin_retries,
            hedge_after=args.hedge_after,
            max_inflight=args.max_inflight if args.max_inflight > 0 else None,
            supervise=not args.no_supervise,
            heartbeat_timeout=args.heartbeat_timeout,
            hot_key_policy=args.hot_key_policy,
            hot_key_threshold=args.hot_key_threshold,
            fault_plan=fault_plan,
            telemetry_interval=args.telemetry_interval,
            live_export=args.live_export,
            metrics_snapshot=args.metrics_snapshot,
            watch=args.watch,
            dashboard_mode="plain" if args.no_color else "auto",
            duration=args.duration,
        )
    except (ValueError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return EdgeCacheServer(cfg).run()


def _cmd_loadgen(args: argparse.Namespace) -> int:
    import asyncio

    from repro.service import LoadGenConfig, run_loadgen

    try:
        cfg = LoadGenConfig(
            host=args.host,
            port=args.port,
            clients=args.clients,
            duration=args.duration,
            theta=args.theta,
            n_items=args.items,
            seed=args.seed,
            put_ratio=args.put_ratio,
            timeout=args.timeout,
            rate=args.rate,
            expect_hit_ratio=args.expect_hit_ratio,
        )
    except (ValueError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        summary = asyncio.run(run_loadgen(cfg))
    except OSError as exc:
        print(f"error: cannot reach {cfg.host}:{cfg.port} — {exc}",
              file=sys.stderr)
        return 2
    print(summary.render())
    if args.json is not None:
        import json

        from repro.obs.export import export_path

        path = export_path(args.json)
        path.write_text(
            json.dumps(summary.to_dict(), indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        print(f"wrote summary to {args.json}")
    if cfg.expect_hit_ratio is not None:
        if summary.hit_ratio < cfg.expect_hit_ratio:
            print(
                f"FAIL: hit ratio {summary.hit_ratio:.4f} below expected "
                f"{cfg.expect_hit_ratio:.4f}",
                file=sys.stderr,
            )
            return 1
        print(f"hit ratio {summary.hit_ratio:.4f} >= "
              f"{cfg.expect_hit_ratio:.4f} (OK)")
    return 0


def _campaign_runner(args: argparse.Namespace):
    """Build the Runtime the campaign flags describe."""
    from repro.experiments.orchestrator import InProcessRunner, PoolRunner

    if args.runner == "inprocess":
        return InProcessRunner()
    return PoolRunner(processes=args.processes, timeout=args.timeout)


def _campaign_execute(args: argparse.Namespace, root, name: str,
                      graph, runner) -> int:
    """Shared body of ``campaign run`` and ``campaign resume``."""
    from repro.experiments.orchestrator import execute_graph
    from repro.obs import Dashboard, JsonlLiveSink, TelemetryBus

    bus = dashboard = None
    if args.watch or args.live_export is not None:
        bus = TelemetryBus()
        if args.live_export is not None:
            bus.attach_sink(JsonlLiveSink(args.live_export))
        if args.watch:
            dashboard = Dashboard(
                bus,
                duration=float(len(graph)),
                interval=0.2,
                mode="plain" if args.no_color else "auto",
                title=f"campaign {name}",
            )
    try:
        summary = execute_graph(
            graph, runner, root,
            name=name, bus=bus, max_jobs=args.max_jobs,
        )
    finally:
        if dashboard is not None:
            dashboard.close()
        if bus is not None:
            bus.close()

    print(summary.describe())
    for job_id in sorted(summary.errors):
        error = summary.errors[job_id].splitlines()
        detail = error[-1] if error else ""
        print(f"  {job_id}: {summary.statuses[job_id]} — {detail}",
              file=sys.stderr)
    if summary.errors:
        return 1
    if summary.interrupted:
        print(f"interrupted after {args.max_jobs} job(s) — "
              f"'repro campaign resume {root}' continues it")
        return 3
    return 0


def _cmd_campaign(args: argparse.Namespace) -> int:
    from repro.experiments.orchestrator import (
        build_preset,
        definition_graph,
        definition_seeds,
        load_definition,
        replay_journal,
        save_definition,
        verify_artifact,
    )

    root = Path(args.dir)
    cmd = args.campaign_cmd

    if cmd == "run":
        seeds = definition_seeds(args.seeds)
        existing = load_definition(root)
        if existing is not None and (
            existing["preset"] != args.preset
            or (args.seeds is not None and existing["seeds"] != seeds)
        ):
            print(
                f"error: {root} already holds campaign "
                f"{existing['name']!r} (preset {existing['preset']}, "
                f"seeds {existing['seeds']}) — resume it or pick a "
                f"fresh directory",
                file=sys.stderr,
            )
            return 2
        if existing is not None:
            seeds = existing["seeds"]
        name = f"{args.preset}-campaign"
        # Bad input (a repeated seed, --processes 0) fails here, before
        # campaign.json exists to poison every later command on DIR.
        try:
            graph = build_preset(args.preset, seeds)
            runner = _campaign_runner(args)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        root.mkdir(parents=True, exist_ok=True)
        save_definition(root, name=name, preset=args.preset, seeds=seeds)
        return _campaign_execute(args, root, name, graph, runner)

    definition = load_definition(root)
    if definition is None:
        print(f"error: no campaign.json in {root} — start one with "
              f"'repro campaign run {root}'", file=sys.stderr)
        return 2
    graph = definition_graph(definition)

    if cmd == "resume":
        try:
            runner = _campaign_runner(args)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        return _campaign_execute(args, root, definition["name"], graph,
                                 runner)

    checks = {spec.job_id: verify_artifact(root, spec) for spec in graph}

    if cmd == "status":
        state = replay_journal(root / "journal.jsonl")
        print(f"campaign {definition['name']!r} at {root}: "
              f"preset {definition['preset']}, "
              f"seeds {definition['seeds']}, {len(graph)} job(s)")
        if state.torn_lines:
            print(f"  journal: {state.torn_lines} torn line(s) "
                  f"(mid-write kill residue)")
        for job_id in sorted(checks):
            check = checks[job_id]
            journal_state = state.job_state.get(job_id, "-")
            starts = state.event_count("start", job_id)
            print(f"  {job_id:40s} artifact={check.status:12s} "
                  f"journal={journal_state:6s} starts={starts}")
        done = sum(1 for c in checks.values() if c.ok)
        print(f"{done}/{len(graph)} job(s) verified complete"
              + ("" if done == len(graph)
                 else f" — 'repro campaign resume {root}' continues it"))
        return 0

    # cmd == "verify"
    bad = {j: c for j, c in checks.items() if c.completed and not c.ok}
    incomplete = {j: c for j, c in checks.items() if not c.completed}
    for job_id in sorted(bad):
        check = bad[job_id]
        print(f"  {job_id}: {check.status} — {check.detail}",
              file=sys.stderr)
    if args.strict:
        for job_id in sorted(incomplete):
            print(f"  {job_id}: {incomplete[job_id].status}",
                  file=sys.stderr)
    n_ok = sum(1 for c in checks.values() if c.ok)
    print(f"campaign {definition['name']!r}: {n_ok}/{len(graph)} "
          f"artifact(s) verified, {len(bad)} bad, "
          f"{len(incomplete)} incomplete")
    if bad or (args.strict and incomplete):
        return 1
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "fig":
        return _cmd_fig(args)
    if args.command == "theory":
        return _cmd_theory(args)
    if args.command == "audit":
        return _cmd_audit(args)
    if args.command == "trace":
        return _cmd_trace_diff(args)
    if args.command == "energy":
        return _cmd_energy(args)
    if args.command == "watch":
        return _cmd_watch(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "loadgen":
        return _cmd_loadgen(args)
    if args.command == "campaign":
        return _cmd_campaign(args)
    return 2  # pragma: no cover - argparse enforces choices


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
