"""Run one simulator workload: set-up probe, timed repeats, traced run.

Everything is measured from outside ``src/``: the only hook into a run
is ``Simulator.schedule`` - the public way to put an event on the
clock - used to drop :data:`SLICES` - 1 marker events into the run.
Markers touch no simulation state (the report digest is checked against
the pinned, marker-free one), and they buy two things:

* every :data:`SPIN_EVERY`-th marker runs one host-calibration unit, so
  each stretch of the run is scaled by the host speed *at that moment*;
* the simulator is deterministic, so slice ``k`` does exactly the same
  work in every repeat, and interference can only add time to it.  The
  calibrated cost of a slice is therefore its **minimum** over the
  repeats, and the run's cost is the sum of those minima - one slow
  second in one repeat no longer decides the result.

Slices are short (a third of a millisecond) because the host also takes
the processor away in chunks of a few milliseconds: a slice shorter
than a chunk is either hit or clean, and some repeat has it clean.  With
a competing process pinned to the same core (half the processor gone),
8000 slices read 4 % low where 1000 read 36 % low.
"""

from __future__ import annotations

import gc
from dataclasses import replace
from time import perf_counter, process_time
from typing import Dict, List, Tuple

import hostcal
from metrics import (
    PER_LAYER, SIM_LAYERS, peak_rss_mb, percentile, summary, zeros,
)
from trace import UNATTRIBUTED, LayerProfile
from workloads import NOMINAL_RUN_S, SimWorkload

from repro.config import SimulationConfig
from repro.core.network import PReCinCtNetwork
from repro.faults.audit import report_digest
from repro.obs.observers import Observers

#: Markers cut a run into this many slices of equal simulated length.
SLICES = 8000
#: One calibration unit every this many markers (~1 % of the run).
SPIN_EVERY = 80
#: The latency percentiles are taken over this many stretches of the run
#: (each the sum of ``SLICES // STRETCHES`` slice minima).
STRETCHES = 1000
#: --quick shrinks the simulated duration (and warm-up) by this factor.
QUICK_FACTOR = 8.0


def build_config(spec: SimWorkload, quick: bool) -> SimulationConfig:
    cfg = SimulationConfig(seed=spec.default_seed, **spec.config)
    if quick:
        cfg = replace(
            cfg, duration=cfg.duration / QUICK_FACTOR,
            warmup=cfg.warmup / QUICK_FACTOR,
        )
    return cfg


def build_network(cfg: SimulationConfig, seed: int, observers=None) -> PReCinCtNetwork:
    """The pinned scenario, with its request and update streams from ``seed``.

    Placement, mobility, the database and MAC jitter draw from streams
    the constructor creates under the workload's pinned seed, so every
    seed runs on the same terrain; the Zipf and arrival streams are
    first asked for inside ``run()`` and so derive from ``seed``.  (A
    different *topology* per seed moves events/s by 10-20 % - more than
    any bound could absorb - without telling one commit from another.)
    With the pinned seed itself this is exactly ``PReCinCtNetwork(cfg)``.
    """
    net = PReCinCtNetwork(cfg, observers=observers)
    net.rngs.seed = seed
    return net


def ready(spec: SimWorkload, seed: int, quick: bool,
          spawned_at: float) -> Tuple[SimulationConfig, Dict]:
    """Set-up: imports are done, build the network; stamp time-to-ready."""
    cfg = build_config(spec, quick)
    build_network(cfg, seed)
    ready_s = perf_counter() - spawned_at
    return cfg, {
        "ready_s": ready_s,
        "ready_cal_s": ready_s * hostcal.ready_factor(),
    }


class _SlicedRun:
    """One marker-instrumented repeat and its per-slice calibrated times."""

    def __init__(self, cfg: SimulationConfig, seed: int):
        self.net = build_network(cfg, seed)
        self._ends: List[float] = []
        self._starts: List[float] = []
        self._spins: List[float] = []
        for k in range(1, SLICES):
            self.net.sim.schedule(cfg.duration * k / SLICES, self._mark)

    def _mark(self) -> None:
        self._ends.append(perf_counter())
        if len(self._ends) % SPIN_EVERY == 0:
            self._spins.append(hostcal.spin())
        self._starts.append(perf_counter())

    def run(self) -> None:
        gc.collect()
        self._spins.append(hostcal.spin())
        self._starts.append(perf_counter())
        self.report = self.net.run()
        self._ends.append(perf_counter())
        self._spins.append(hostcal.spin())
        raw = [end - start for start, end in zip(self._starts, self._ends)]
        factors = hostcal.local_factors(self._spins, half_window=3)
        self.raw_s = sum(raw)
        self.slices_cal_s = [
            t * factors[min(k // SPIN_EVERY, len(factors) - 1)]
            for k, t in enumerate(raw)
        ]
        self.events = int(self.net.sim.events_executed) - (SLICES - 1)
        self.digest = report_digest(self.report)


def _stretches_ms_per_sim_s(slices_s: List[float], cfg: SimulationConfig) -> List[float]:
    """Host ms per simulated second over each of the run's stretches."""
    per = SLICES // STRETCHES
    to_ms_per_sim_s = 1e3 / (cfg.duration / STRETCHES)
    return [
        sum(slices_s[i:i + per]) * to_ms_per_sim_s
        for i in range(0, SLICES, per)
    ]


def timed(spec: SimWorkload, seed: int, seconds: float, quick: bool,
          spawned_at: float) -> Dict:
    """The untraced run: observers off, ``fast_kernel`` default."""
    cfg, state = ready(spec, seed, quick, spawned_at)
    if not quick:
        # Warm the interpreter (lazy imports, specialised bytecode) on a
        # short prefix of the same scenario; untimed.
        short = cfg.warmup + (cfg.duration - cfg.warmup) / 8.0
        build_network(replace(cfg, duration=short), seed).run()

    # A fixed number of repeats, not a time limit: the minimum over n
    # repeats reads lower the larger n is, so n may not follow the
    # host's speed.  (Only a host at under half its speed cuts it short,
    # to keep the run inside the driver's limits.)
    repeats = 1 if quick else max(2, round(spec.repeats * seconds / NOMINAL_RUN_S))
    runs: List[_SlicedRun] = []
    began = perf_counter()
    while len(runs) < repeats:
        run = _SlicedRun(cfg, seed)
        run.run()
        run.net = None  # drop the network before the next one is built
        runs.append(run)
        if len(runs) >= 2 and perf_counter() - began > 2.0 * seconds:
            break

    errors = []
    first = runs[0]
    for i, run in enumerate(runs[1:], start=1):
        if run.digest != first.digest:
            errors.append(f"repeat {i} digest {run.digest} != repeat 0 {first.digest}")
        if run.events != first.events:
            errors.append(f"repeat {i} executed {run.events} events, repeat 0 {first.events}")

    best = [min(column) for column in zip(*(r.slices_cal_s for r in runs))]
    ms_per_sim_s = _stretches_ms_per_sim_s(best, cfg)
    ms_per_sim_s_of = [_stretches_ms_per_sim_s(r.slices_cal_s, cfg) for r in runs]
    report = first.report
    return {
        **state,
        "metrics": {
            "peak_rss_mb": peak_rss_mb(),
            "ops_per_s": first.events / sum(best),
            "latency_p50_ms": percentile(ms_per_sim_s, 50),
            "latency_p99_ms": percentile(ms_per_sim_s, 99),
        },
        # An operation is one simulated request of one timed repeat; it
        # fails when its repeat's outputs disagree with repeat 0.  A
        # request the *model* times out is a simulated statistic, pinned
        # by the digest (core.peer.failed_share), not a failed operation.
        "attempted": report.requests_issued * len(runs),
        "failed": report.requests_issued * sum(
            1 for r in runs if (r.digest, r.events) != (first.digest, first.events)
        ),
        "errors": errors,
        "digest": first.digest,
        "events": first.events,
        "detail": {
            "repeats": len(runs),
            "slices": SLICES,
            "stretches": STRETCHES,
            "events": first.events,
            "requests": report.requests_issued,
            "sim_requests_failed": report.requests_failed,
            # Each repeat on its own (the reported values take every
            # slice's minimum over the repeats, so they sit above these).
            "spread": {
                "ops_per_s": summary(
                    [r.events / sum(r.slices_cal_s) for r in runs]),
                "latency_p50_ms": summary(
                    [percentile(ms, 50) for ms in ms_per_sim_s_of]),
                "latency_p99_ms": summary(
                    [percentile(ms, 99) for ms in ms_per_sim_s_of]),
            },
            "raw_ops_per_s": summary([r.events / r.raw_s for r in runs]),
            "unit_of_latency": "host ms per simulated second, over stretches",
        },
    }


def _calibrated(fn):
    """Run ``fn``; returns (result, calibrated wall s, calibrated cpu s, factor)."""
    spins = hostcal.spins()
    gc.collect()
    t0, c0 = perf_counter(), process_time()
    result = fn()
    wall, cpu = perf_counter() - t0, process_time() - c0
    f = hostcal.factor(spins + hostcal.spins())
    return result, wall * f, cpu * f, f


def traced(spec: SimWorkload, seed: int, quick: bool, spawned_at: float) -> Dict:
    """Bare, profiled and observed run of the same scenario."""
    cfg, state = ready(spec, seed, quick, spawned_at)

    bare_net = build_network(cfg, seed)
    bare, bare_s, bare_cpu, factor = _calibrated(bare_net.run)
    events = int(bare_net.sim.events_executed)

    prof_net = build_network(cfg, seed)
    profile = LayerProfile(service=False)

    def profiled_run():
        with profile:
            return prof_net.run()

    profiled, _, prof_cpu, _ = _calibrated(profiled_run)

    observers = Observers(tracing=True, telemetry=True, energy_attribution=True)
    obs_net = build_network(cfg, seed, observers)
    observed, _, obs_cpu, _ = _calibrated(obs_net.run)

    errors = []
    digest = report_digest(bare)
    for label, report in (("profiled", profiled), ("observed", observed)):
        if report_digest(report) != digest:
            errors.append(f"{label} run digest differs from the bare run's")
    # (The observed run's telemetry sampler adds events of its own.)
    if int(prof_net.sim.events_executed) != events:
        errors.append(
            f"profiled run executed {int(prof_net.sim.events_executed)} "
            f"events, bare run {events}"
        )

    seconds, calls = profile.table()
    total = sum(seconds.values())
    metrics = zeros(PER_LAYER)
    for layer in SIM_LAYERS:
        metrics[f"{layer}.self_s"] = seconds.get(layer, 0.0)
        metrics[f"{layer}.calls"] = float(calls.get(layer, 0))
    metrics.update({
        "sim.engine.events": float(events),
        "workload.requests": float(bare.requests_issued),
        "net.network.messages": float(bare.total_messages),
        "core.consistency.messages": float(bare.consistency_messages),
        "core.cache.byte_hit_ratio": float(bare.byte_hit_ratio),
        "core.cache.false_hit_ratio": float(bare.false_hit_ratio),
        "core.peer.avg_latency_ms": float(bare.average_latency) * 1e3,
        "core.peer.failed_share": bare.requests_failed / max(1, bare.requests_issued),
        "energy.model.total_uj": float(bare.energy_total_uj),
        "sim.engine.self_ns_per_event": seconds.get("sim.engine", 0.0) / events * 1e9,
        "workload.requests_per_s": bare.requests_issued / bare_s,
        "obs.overhead_ratio": obs_cpu / bare_cpu,
        "trace.overhead_ratio": prof_cpu / bare_cpu,
        "trace.unattributed_share": seconds.get(UNATTRIBUTED, 0.0) / total,
        "host.cal_factor": factor,
    })
    named = set(SIM_LAYERS) | {UNATTRIBUTED}
    return {
        **state,
        "metrics": metrics,
        "attempted": bare.requests_issued * 3,
        "failed": bare.requests_issued * len(errors),
        "errors": errors,
        "digest": digest,
        "events": events,
        "detail": {
            "profiled_wall_s": profile.wall_s,
            "profile_total_self_s": total,
            "layers_outside_table": {
                k: v for k, v in seconds.items() if k not in named
            },
            "bare_ops_per_s": events / bare_s,
        },
    }
