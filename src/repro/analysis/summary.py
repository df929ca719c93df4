"""Full-text run summaries.

``describe_run`` turns a finished simulation into a single readable
report: headline metrics, latency percentiles, serve-class breakdown,
traffic by category, energy by category (+fairness), cache statistics,
the fault and trace sections, and an optional topology snapshot.  Used
by the CLI's ``--report`` and handy at the end of notebooks and
examples.  ``describe_faults`` and ``describe_traces`` render those two
sections on their own, which is what ``repro run`` prints under its
one-line report row.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional

from repro.analysis.metrics import RunReport, jain_fairness

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from repro.core.network import PReCinCtNetwork

__all__ = ["describe_faults", "describe_run", "describe_traces"]


def describe_run(
    net: "PReCinCtNetwork",
    report: Optional[RunReport] = None,
    topology: bool = False,
    outcome: Optional[str] = None,
    slowest: int = 0,
) -> str:
    """Render a multi-section text report for a finished run.

    ``outcome`` and ``slowest`` are passed to :func:`describe_traces`.
    """
    if report is None:
        report = net.report()
    lines: List[str] = []
    add = lines.append

    add(f"=== {report.config_label} ===")
    add(
        f"window {report.duration:.0f}s | requests {report.requests_served}"
        f"/{report.requests_issued} served ({100 * report.delivery_ratio:.1f} %),"
        f" {report.requests_failed} failed | updates {report.updates_issued}"
    )

    add("")
    add("latency")
    add(f"  mean {1000 * report.average_latency:9.1f} ms")
    add(f"  p50  {1000 * report.latency_p50:9.1f} ms")
    add(f"  p95  {1000 * report.latency_p95:9.1f} ms")
    add(f"  p99  {1000 * report.latency_p99:9.1f} ms")

    add("")
    add("serving")
    add(f"  byte hit ratio  {report.byte_hit_ratio:.4f}")
    add(f"  false hit ratio {report.false_hit_ratio:.6f}")
    total_served = max(report.requests_served, 1)
    for cls, count in sorted(
        report.served_by_class.items(), key=lambda kv: -kv[1]
    ):
        if count:
            add(f"  {cls:<13} {count:>6}  ({100 * count / total_served:5.1f} %)")

    add("")
    add("traffic (transmissions)")
    add(f"  total {report.total_messages:,.0f}")
    for key in sorted(report.extra):
        if key.startswith("sent."):
            add(f"  {key[5:]:<13} {report.extra[key]:>10,.0f}")

    add("")
    add("energy")
    add(f"  total            {report.energy_total_uj / 1e6:10.3f} J")
    add(f"  per request      {report.energy_per_request_mj:10.3f} mJ")
    by_cat = net.network.energy.total_by_category()
    for cat, uj in sorted(by_cat.items(), key=lambda kv: -kv[1]):
        if uj:
            add(f"  {cat:<16} {uj / 1e6:10.3f} J")
    idle = net.network.idle_energy_uj()
    if idle:
        add(f"  idle/listening   {idle / 1e6:10.3f} J")
    add(f"  fairness (Jain)  {jain_fairness(net.network.energy.per_node()):10.3f}")

    add("")
    add("topology")
    from repro.analysis.connectivity import analyze_connectivity

    add(f"  {analyze_connectivity(net.network)}")

    add("")
    add("caches")
    used = sum(p.cache.used_bytes for p in net.peers)
    cap = sum(p.cache.capacity_bytes for p in net.peers)
    evictions = sum(p.cache.evictions for p in net.peers)
    insertions = sum(p.cache.insertions for p in net.peers)
    custody = sum(len(p.static_keys) for p in net.peers)
    add(f"  fill {used / max(cap, 1):6.1%}  insertions {insertions}  "
        f"evictions {evictions}")
    add(f"  custody copies {custody} (keys {len(net.db)})")

    faults = describe_faults(net)
    if faults:
        add("")
        add("faults")
        add(faults)
    traces = describe_traces(net, outcome=outcome, slowest=slowest)
    if traces:
        add("")
        add(traces)

    if net.log is not None:
        add("")
        add(f"event log: {len(net.log)} events kept, "
            f"{report.eventlog_dropped} dropped")
    if net.recorder is not None:
        add(f"flight recorder: {net.recorder.triggers} trigger(s), "
            f"{len(net.recorder.dumps_written)} bundle(s) in "
            f"{net.recorder.bundle_dir}")
    if net.anomaly is not None:
        add(f"anomaly triggers: {net.anomaly.triggers} firing(s) across "
            f"{len(net.anomaly.rules)} rule(s)")

    if topology:
        from repro.analysis.topology_map import render_topology

        add("")
        add(render_topology(net))
    return "\n".join(lines)


def describe_faults(net: "PReCinCtNetwork") -> str:
    """The fault, drop and resilience counters, one ``  name = value``
    line each; empty for a run with no fault plan and no resilience."""
    if net.faults is None and net.resilience is None:
        return ""
    snapshot = net.stats.snapshot()
    names = sorted(
        name for name in snapshot
        if ".faults." in name or ".net.unicast_dropped" in name
        or ".net.broadcast_dropped" in name or ".resilience." in name
    )
    return "\n".join(
        f"  {name.split('count.', 1)[-1]} = {snapshot[name]:.0f}"
        for name in names
    )


def describe_traces(
    net: "PReCinCtNetwork",
    outcome: Optional[str] = None,
    slowest: int = 0,
) -> str:
    """The trace sections of a run: trace counts, outcomes, span counts,
    attributed energy, and the ``slowest`` highest-latency requests (of
    one ``outcome`` when given) broken down by phase.

    Each breakdown ends with a ``(phase sum)`` line equal to the
    request's latency, since the phase spans partition it.  Empty for a
    run with neither tracing nor energy attribution.
    """
    lines: List[str] = []
    add = lines.append
    tracer = net.tracer
    if tracer is not None:
        sampled = (
            f", {tracer.sampled_out} sampled out "
            f"(rate {net.observers.trace_sample_rate})"
            if tracer.sampled_out else ""
        )
        add(f"traces: {len(tracer)} completed, {tracer.dropped_traces} "
            f"dropped, {tracer.open_traces} still open at end of run"
            f"{sampled}")
        add("outcomes:")
        total = max(len(tracer), 1)
        for name, count in sorted(
            tracer.outcome_counts().items(), key=lambda kv: -kv[1]
        ):
            add(f"  {name:<16} {count:>7}  ({100 * count / total:5.1f} %)")
        add("spans:")
        for name, count in sorted(
            tracer.span_counts().items(), key=lambda kv: -kv[1]
        ):
            add(f"  {name:<20} {count:>9}")

    attributor = net.energy_attribution
    if attributor is not None and attributor.charges_seen:
        add(f"attributed energy: {attributor.total() / 1e6:.3f} J "
            f"({attributor.charges_seen} radio charges)")
        for kind, uj in attributor.by_span().items():
            add(f"  {kind:<20} {uj / 1e6:>9.3f} J")
        for phase, uj in attributor.by_phase().items():
            add(f"  phase {phase:<14} {uj / 1e6:>9.3f} J")

    if tracer is None:
        return "\n".join(lines)
    if outcome is not None:
        add(f"filter outcome={outcome!r}: "
            f"{len(tracer.completed(outcome))} trace(s)")
    worst = tracer.slowest(max(slowest, 0), outcome=outcome)
    if worst:
        add(f"slowest {len(worst)} request(s):")
    for trace in worst:
        faults = f" faults={','.join(trace.fault_tags)}" if trace.fault_tags else ""
        add(f"  #{trace.trace_id} peer={trace.peer} key={trace.key} "
            f"outcome={trace.outcome} latency={trace.latency:.4f}s{faults}")
        phases = trace.phase_breakdown()
        for span in phases:
            tags = f"  [{','.join(span.fault_tags)}]" if span.fault_tags else ""
            add(f"      {span.name:<16} {span.duration:8.4f}s "
                f"{span.energy_uj / 1000.0:10.3f} mJ{tags}")
        if phases:
            add(f"      {'(phase sum)':<16} "
                f"{sum(s.duration for s in phases):8.4f}s "
                f"{sum(s.energy_uj for s in phases) / 1000.0:10.3f} mJ")
    return "\n".join(lines)
