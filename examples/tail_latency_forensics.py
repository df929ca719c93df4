#!/usr/bin/env python
"""Scenario: meeting an SLA — tail-latency forensics with the event log.

Mean latency looks healthy, but the p95/p99 tail decides whether an
interactive MP2P application feels usable.  This example runs one
simulation with the structured event log enabled, then dissects the
tail: which serve classes populate it, which keys are the repeat
offenders, and what the topology looked like.

Run:
    python examples/tail_latency_forensics.py
"""

from collections import Counter

from repro import PReCinCtNetwork, SimulationConfig
from repro.analysis import render_topology

CFG = SimulationConfig(
    n_nodes=64,
    width=1100.0,
    height=1100.0,
    max_speed=10.0,            # brisk mobility stresses the tail
    n_items=600,
    cache_fraction=0.02,
    t_request=20.0,
    duration=700.0,
    warmup=140.0,
    enable_event_log=True,
    seed=31,
)


def main() -> None:
    net = PReCinCtNetwork(CFG)
    report = net.run()

    print("latency profile")
    print(f"  mean : {1000 * report.average_latency:8.1f} ms")
    print(f"  p50  : {1000 * report.latency_p50:8.1f} ms")
    print(f"  p95  : {1000 * report.latency_p95:8.1f} ms")
    print(f"  p99  : {1000 * report.latency_p99:8.1f} ms")

    served = net.log.of_kind("request.served")
    threshold = report.latency_p95
    tail = [e for e in served if e.fields.get("latency", 0.0) > threshold]
    print(f"\n{len(tail)} serves slower than p95 ({1000 * threshold:.0f} ms):")

    by_class = Counter(e.fields["serve_class"] for e in tail)
    for cls, count in by_class.most_common():
        print(f"  {cls:<12} {count}")

    hot_keys = Counter(e.fields["key"] for e in tail).most_common(5)
    print("\nrepeat offenders (key, tail serves):")
    for key, count in hot_keys:
        home = net.key_regions[key][0]
        print(f"  key {key:<5} x{count}  home region {home.region_id}")

    failed = net.log.of_kind("request.failed")
    print(f"\nfailed requests: {len(failed)}")

    print("\nfinal topology snapshot:")
    print(render_topology(net, width=66, height=16))
    print(
        "\nReading the tail: slow serves are dominated by requests that"
        "\nmissed the region (replica retries and home-region round trips);"
        "\ncache capacity or prefetching are the levers to shrink it."
    )


if __name__ == "__main__":
    main()
