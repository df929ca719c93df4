"""Full-text run summaries.

``describe_run`` turns a finished simulation into a single readable
report: headline metrics, latency percentiles, serve-class breakdown,
traffic by category, energy by category (+fairness), cache statistics,
and an optional topology snapshot.  Used by the CLI's ``--report`` and
handy at the end of notebooks and examples.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional

from repro.analysis.metrics import RunReport, jain_fairness

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from repro.core.network import PReCinCtNetwork

__all__ = ["describe_run"]


def describe_run(
    net: "PReCinCtNetwork",
    report: Optional[RunReport] = None,
    topology: bool = False,
) -> str:
    """Render a multi-section text report for a finished run."""
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

    attributor = net.energy_attribution
    if attributor is not None and attributor.charges_seen:
        add("")
        add("energy attribution (span kind / request phase)")
        for kind, uj in attributor.by_span().items():
            add(f"  span  {kind:<18} {uj / 1e6:10.3f} J")
        for phase, uj in attributor.by_phase().items():
            add(f"  phase {phase:<18} {uj / 1e6:10.3f} J")

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

    if net.log is not None:
        add("")
        add(f"event log: {len(net.log)} events kept, "
            f"{report.eventlog_dropped} dropped")
    if net.tracer is not None:
        sampled = (
            f", {net.tracer.sampled_out} sampled out "
            f"(rate {net.observers.trace_sample_rate})"
            if net.tracer.sampled_out else ""
        )
        add(f"traces: {len(net.tracer)} completed, "
            f"{net.tracer.dropped_traces} dropped, "
            f"{net.tracer.open_traces} open{sampled}")
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
