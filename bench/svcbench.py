"""Run one service workload: set-up probe, timed rounds, traced rounds.

The server is a real ``EdgeCacheServer`` listening on 127.0.0.1 (port
0), driven over TCP by :mod:`loadgen` from the same process and event
loop - one process, one loop, ``connections`` sockets; all traffic
crosses the loopback interface.  Rounds are short (:data:`ROUND_S`
closed, one chunk open) and each carries host-calibration units - a
closed round inside it, an open one at its edges - so a round's
throughput and latency are scaled by the host speed while it ran; the
reported value is the median (tails: the first decile) over the run.
"""

from __future__ import annotations

import asyncio
import contextlib
import gc
import json
import statistics
from time import perf_counter, process_time
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

import hostcal
import loadgen
from metrics import (
    PER_LAYER, SVC_LAYERS, peak_rss_mb, percentile, summary, zeros,
)
from trace import (
    IDLE, UNATTRIBUTED, LayerProfile, SpanRecorder, assign_request_ids,
)
from workloads import SvcWorkload

from repro.service.core import CacheService
from repro.service.origin import InMemoryOrigin
from repro.service.server import EdgeCacheServer, ServiceConfig

#: Seconds of load per closed round: short, so that a 12 s run has some
#: two dozen rounds to take a median over.
ROUND_S = 0.5
QUICK_ROUND_S = 0.25
#: Untraced closed rounds run one host-calibration unit this often (~3 %
#: of the loop's time): the sandbox changes speed within a round, so
#: units at the edges of half a second say little about it.
SPIN_INTERVAL_S = 0.010
#: An untraced open-loop round is one chunk long (a quarter of a second
#: at 4,000 req/s) and has its units at the edges, this many on each
#: side: a unit inside the round holds up the one or two requests that
#: fall due while it runs, and at one unit every 10 ms those are more
#: than a chunk's 1 % tail.
EDGE_SPINS = 5
#: A polled open loop takes a turn of the event loop longer than this
#: for a stall of the host's and leaves it out of its clock.
STALL_S = 1e-3
#: Latency percentiles are taken within chunks of this many consecutive
#: responses (ten lie beyond a chunk's p99).  A chunk lasts 50-250 ms:
#: the host's millisecond stalls hit each of a loop's ~30 requests in
#: flight, so over a whole half-second round two or three of them are
#: the 1 % tail, or just not - over ten runs the per-round p99 of
#: ``svc_cold_read`` spread 26 %, the chunks' first decile 2 %.
CHUNK = 1000
#: Percentile over a run's chunks that reads "the host left these alone".
QUIET_CHUNKS_PCT = 10
#: Fixed-count closed-loop warm-up before the first timed round.
WARMUP_REQUESTS = 20_000
QUICK_WARMUP_REQUESTS = 2_000
#: Closed rounds pre-encode this many requests per second of round -
#: several times what the server can answer, so a round never runs dry.
CLOSED_LINES_PER_S = 60_000
#: Extra open-loop rates probed (traced mode only) and the p99 limit
#: that decides ``loadgen.max_rate_ok``.
PROBE_RATES = (2000.0, 8000.0)
P99_LIMIT_MS = 10.0

SPAN_TARGETS = (
    (CacheService, "get", "service.core.get"),
    (CacheService, "put", "service.core.put"),
    (CacheService, "invalidate", "service.core.invalidate"),
    (InMemoryOrigin, "fetch", "service.origin.fetch"),
    (InMemoryOrigin, "validate", "service.origin.validate"),
    (InMemoryOrigin, "commit", "service.origin.commit"),
)


class _Rig:
    """A started server, open client connections and the request stream."""

    def __init__(self, spec: SvcWorkload, seed: int):
        self.spec = spec
        self.stream = loadgen.RequestStream(
            seed, spec.server["n_items"], spec.theta, spec.put_ratio
        )
        self.server = EdgeCacheServer(ServiceConfig(port=0, **spec.server))
        self.conns: List[loadgen.Connection] = []
        #: Requests put on the wire so far (checked against the server's
        #: own ``service.requests`` counter).
        self.sent = 0
        self.failed = 0
        #: Entered around each round proper (not around generating its
        #: requests): the traced run puts its profile here.
        self.instrument = contextlib.nullcontext()
        #: Process CPU seconds spent inside rounds.
        self.cpu_s = 0.0
        #: Calibrate inside rounds (timed mode); spins of the last round.
        self.calibrate = False
        self.unit = hostcal.IoUnit()
        self.spins: List[float] = []
        #: Host stalls the polled open loop's clock left out, and their sum.
        self.stalls = 0
        self.stall_s = 0.0

    async def start(self) -> None:
        await self.server.start()
        self.conns = await loadgen.open_connections(
            "127.0.0.1", self.server.port, self.spec.connections
        )
        await self.closed(1, None)  # first response: the tier is serving

    async def stop(self) -> None:
        for conn in self.conns:
            conn.writer.close()
        await self.server.shutdown()
        self.unit.close()

    async def _run(self, count: int, start_round):
        lines, ops = self.stream.take(count)
        gc.collect()
        self.spins = []
        spinner = (
            asyncio.ensure_future(self._spin()) if self.calibrate else None
        )
        cpu0 = process_time()
        try:
            with self.instrument:
                result = await start_round(lines)
        finally:
            self.cpu_s += process_time() - cpu0
            if spinner is not None:
                spinner.cancel()
                await asyncio.gather(spinner, return_exceptions=True)
        self.sent += result.sent
        self.failed += result.ops_failed
        return result, ops

    def edge_spins(self) -> List[float]:
        """Calibration units run back to back between two rounds."""
        return [self.unit.spin() for _ in range(EDGE_SPINS)]

    async def _spin(self) -> None:
        while True:
            await asyncio.sleep(SPIN_INTERVAL_S)
            self.spins.append(self.unit.spin())

    async def closed(self, count: int, duration_s: Optional[float],
                     keep: bool = False):
        return await self._run(count, lambda lines: loadgen.closed_round(
            self.conns, lines, self.spec.window, duration_s, keep=keep
        ))

    async def open(self, rate: float, duration_s: float, keep: bool = False,
                   poll: bool = True):
        """One open round; ``poll`` picks the timed run's generator.

        That one never sleeps and reads a clock that leaves the host's
        stalls out (see :func:`loadgen.poll`, :class:`loadgen.QuietClock`).
        """
        if not poll:
            return await self._run(int(rate * duration_s), lambda lines: (
                loadgen.open_round(self.conns, lines, rate, keep=keep)
            ))
        clock = loadgen.QuietClock(STALL_S)
        try:
            return await self._run(int(rate * duration_s), lambda lines: (
                loadgen.open_round(self.conns, lines, rate, keep=keep,
                                   clock=clock, sleep=loadgen.poll)
            ))
        finally:
            self.stalls += clock.skips
            self.stall_s += clock.skipped_s

    async def round(self, duration_s: float, keep: bool = False,
                    poll: bool = True):
        if self.spec.rate is not None:
            return await self.open(self.spec.rate, duration_s, keep, poll)
        return await self.closed(
            int(CLOSED_LINES_PER_S * duration_s), duration_s, keep
        )

    async def stats(self) -> Dict:
        """The wire ``stats`` op, over the first connection."""
        conn = self.conns[0]
        conn.writer.write(b'{"op": "stats"}\n')
        self.sent += 1
        return json.loads(await conn.reader.readline())

    async def check(self, expected: Dict) -> Tuple[List[str], Dict]:
        """Output checks on the server's own counters."""
        stats = await self.stats()
        telemetry = stats["telemetry"]
        errors = []
        if self.failed:
            errors.append(f"{self.failed} request(s) failed, were shed or unanswered")
        if telemetry.get("service.requests") != self.sent:
            errors.append(
                f"server counted {telemetry.get('service.requests')} requests, "
                f"generator sent {self.sent}"
            )
        if telemetry.get("service.shed", 0.0):
            errors.append(f"server shed {telemetry['service.shed']} request(s)")
        low, high = expected["hit_ratio"]
        hit_ratio = telemetry["request.hit_ratio"]
        if not low <= hit_ratio <= high:
            errors.append(
                f"hit ratio {hit_ratio:.4f} outside pinned band [{low}, {high}]"
            )
        return errors, stats


async def _ready(spec: SvcWorkload, seed: int, spawned_at: float) -> Tuple[_Rig, Dict]:
    rig = _Rig(spec, seed)
    await rig.start()
    ready_s = perf_counter() - spawned_at
    return rig, {"ready_s": ready_s, "ready_cal_s": ready_s * hostcal.ready_factor()}


def _chunk_percentiles(latencies_ms: np.ndarray) -> Tuple[List[float], List[float]]:
    """p50 and p99 of each chunk of :data:`CHUNK` consecutive responses."""
    n = max(1, len(latencies_ms) // CHUNK)
    size = min(CHUNK, len(latencies_ms))
    chunks = np.sort(latencies_ms[:n * size].reshape(n, size), axis=1)

    def column(q: int) -> List[float]:
        rank = -(-size * q // 100)  # nearest rank, as metrics.percentile
        return chunks[:, rank - 1].tolist()

    return column(50), column(99)


def _round_values(spec: SvcWorkload, result: loadgen.RoundResult,
                  factor: float) -> Tuple[float, List[float], List[float]]:
    """One round's throughput and its chunks' p50s and p99s, in calibrated time.

    An open loop's throughput is set by its schedule, so it stays in
    host seconds.  Its latencies are calibrated whole: the generator
    polls (:func:`loadgen.poll`), so even the lag between a request's
    due time and its send is a turn of the busy event loop.
    """
    rate_factor = 1.0 if spec.rate is not None else factor
    latencies_ms = np.asarray(result.latencies_s) * (factor * 1e3)
    return (result.ok / (result.wall_s * rate_factor),
            *_chunk_percentiles(latencies_ms))


async def _timed(spec, seed, seconds, quick, spawned_at, expected) -> Dict:
    rig, state = await _ready(spec, seed, spawned_at)
    try:
        await rig.closed(QUICK_WARMUP_REQUESTS if quick else WARMUP_REQUESTS, None)
        open_loop = spec.rate is not None
        round_s = (CHUNK / spec.rate if open_loop
                   else QUICK_ROUND_S if quick else ROUND_S)
        rates, p50s, p99s = [], [], []
        factors, raw_rates, raw_p50s, raw_p99s = [], [], [], []
        rig.calibrate = not open_loop  # closed: units inside the round
        edge = rig.edge_spins() if open_loop else []
        began = perf_counter()
        while True:
            result, _ = await rig.round(round_s)
            spins = rig.spins
            if open_loop:  # open: the units on either side of the round
                before, edge = edge, rig.edge_spins()
                spins = before + edge
            factor = hostcal.factor(spins, hostcal.IO_REF_S)
            rate, chunk_p50s, chunk_p99s = _round_values(spec, result, factor)
            raw = _chunk_percentiles(np.asarray(result.latencies_s) * 1e3)
            raw_p50s += raw[0]
            raw_p99s += raw[1]
            rates.append(rate)
            p50s += chunk_p50s
            p99s += chunk_p99s
            factors.append(factor)
            raw_rates.append(result.ok / result.wall_s)
            if (len(rates) >= 2 if quick
                    else perf_counter() - began + round_s / 2 >= seconds):
                break
        errors, stats = await rig.check(expected)
    finally:
        await rig.stop()
    # Throughput and the median latency err both ways once calibrated:
    # median.  Interference only ever adds to a tail: the chunks the
    # host left alone are the low ones, and the first decile is taken.
    metrics = {
        "peak_rss_mb": peak_rss_mb(),
        "ops_per_s": statistics.median(rates),
        "latency_p50_ms": statistics.median(p50s),
        "latency_p99_ms": percentile(p99s, QUIET_CHUNKS_PCT),
    }
    return {
        **state,
        "metrics": metrics,
        "attempted": rig.sent,
        "failed": rig.failed,
        "errors": errors,
        "detail": {
            "rounds": len(rates),
            "round_s": round_s,
            "chunk_responses": CHUNK,
            "hit_ratio": stats["telemetry"]["request.hit_ratio"],
            "spread": {
                "ops_per_s": summary(rates),
                "latency_p50_ms": summary(p50s),
                "latency_p99_ms": summary(p99s),
            },
            "per_round": {"ops_per_s": rates, "cal_factor": factors},
            "raw_ops_per_s": summary(raw_rates),
            "raw_latency_p50_ms": summary(raw_p50s),
            "raw_latency_p99_ms": summary(raw_p99s),
            "cal_factor": summary(factors),
            "host_stalls_left_out": {"count": rig.stalls, "seconds": rig.stall_s},
            "unit_of_latency": "client-side ms per request"
            + (" from its due time" if spec.rate is not None else ""),
        },
    }


def _pct(values: Sequence[float], q: float) -> float:
    """Percentile of a per-layer sample that may be empty (reads 0 then)."""
    return percentile(values, q) if len(values) else 0.0


def _client_records(round_no: int, connections: int, ops: Sequence[Tuple[str, int]],
                    result: loadgen.RoundResult):
    """(request_id, op, key, sent, received) for a traced round."""
    for (index, stamp, _line), latency in zip(
        result.responses, result.latencies_s
    ):
        op, key = ops[index]
        yield (
            f"r{round_no}-c{index % connections}-{index // connections}",
            op, key, stamp, stamp + latency,
        )


async def _traced(spec, seed, seconds, quick, spawned_at, expected, trace_out) -> Dict:
    rig, state = await _ready(spec, seed, spawned_at)
    round_s = QUICK_ROUND_S if quick else ROUND_S
    # A quarter of the budget untraced, a quarter (wall) traced.
    n_rounds = 2 if quick else max(2, int(seconds / 4 / round_s))
    try:
        await rig.closed(QUICK_WARMUP_REQUESTS if quick else WARMUP_REQUESTS, None)

        async def cpu_per_request(keep: bool) -> Tuple[float, float, list]:
            """Calibrated CPU seconds per request over ``n_rounds`` rounds.

            An open loop's generator sleeps between requests here: with a
            polling one the idle turns of the event loop would be the
            largest row of the profile and CPU per request a constant.
            """
            spins = hostcal.spins()
            cpu0 = rig.cpu_s
            requests = 0
            kept = []
            for _ in range(n_rounds):
                result, ops = await rig.round(round_s, keep=keep, poll=False)
                requests += result.sent
                kept.append((result, ops))
            factor = hostcal.factor(spins + hostcal.spins())
            return (rig.cpu_s - cpu0) * factor / requests, factor, kept

        bare_cpu, factor, _ = await cpu_per_request(keep=False)

        before = await rig.stats()
        recorder = SpanRecorder(SPAN_TARGETS)
        profile = LayerProfile(service=True)
        recorder.install()
        rig.instrument = profile
        try:
            traced_cpu, _, kept = await cpu_per_request(keep=True)
        finally:
            rig.instrument = contextlib.nullcontext()
            recorder.remove()
        after = await rig.stats()

        # Polled as in the timed run, unprofiled: the generator's figures.
        probes = {}
        if spec.rate is not None:
            for rate in sorted(PROBE_RATES + (spec.rate,)):
                probes[rate], _ = await rig.open(rate, round_s)
        errors, stats = await rig.check(expected)
    finally:
        await rig.stop()

    # -- everything below runs after the profiled region -------------------
    requests = sum(result.sent for result, _ in kept)
    reported, unaccounted = [], []
    records = []
    for round_no, (result, ops) in enumerate(kept):
        try:
            parsed = loadgen.check_echo(ops, result.responses)
        except AssertionError as exc:
            errors.append(str(exc))
            continue
        for response, latency in zip(parsed, result.latencies_s):
            reported.append(response["latency_ms"])
            unaccounted.append(latency * 1e3 - response["latency_ms"])
        records.extend(_client_records(round_no, spec.connections, ops, result))

    seconds_by_layer, calls = profile.table()
    total = sum(seconds_by_layer.values())
    metrics = zeros(PER_LAYER)
    for layer in SVC_LAYERS:
        self_s = seconds_by_layer.get(layer, 0.0)
        metrics[f"{layer}.self_s"] = self_s
        metrics[f"{layer}.calls"] = float(calls.get(layer, 0))
        metrics[f"{layer}.self_us_per_req"] = self_s / requests * 1e6

    def delta(section: str, key: str) -> float:
        return float(after[section].get(key, 0.0) - before[section].get(key, 0.0))

    core_ms = [
        ms for name in ("get", "put", "invalidate")
        for ms in recorder.durations_ms(f"service.core.{name}")
    ]
    origin_ms = [
        ms for name in ("fetch", "validate")
        for ms in recorder.durations_ms(f"service.origin.{name}")
    ]
    gets = delta("telemetry", "service.get")
    metrics.update({
        "loadgen.requests": float(requests),
        "runtime.idle.self_s": seconds_by_layer.get(IDLE, 0.0),
        "service.core.span_ms_p50": _pct(core_ms, 50),
        "service.core.span_ms_p99": _pct(core_ms, 99),
        "service.origin.wait_ms_p50": _pct(origin_ms, 50),
        "service.origin.fetches": delta("origin", "fetches"),
        "service.server.reported_ms_p50": _pct(reported, 50),
        "service.server.unaccounted_ms_p50": _pct(unaccounted, 50),
        "service.server.shed": delta("telemetry", "service.shed"),
        "core.cache.hit_ratio": (
            (delta("telemetry", "cache.hits")
             + delta("telemetry", "cache.degraded_serves")) / gets if gets else 0.0
        ),
        "core.cache.evictions": delta("telemetry", "cache.evictions"),
        "core.consistency.pushes": delta("telemetry", "consistency.pushes"),
        "core.consistency.validations": delta("telemetry", "cache.validations"),
        # The generator's own lag, as it runs in the timed rounds.
        "loadgen.late_p99_ms": (
            _pct(probes[spec.rate].late_s, 99) * 1e3 if probes else 0.0
        ),
        "trace.overhead_ratio": traced_cpu / bare_cpu,
        "trace.unattributed_share": seconds_by_layer.get(UNATTRIBUTED, 0.0) / total,
        "host.cal_factor": factor,
    })
    if probes:
        p99_at = {
            rate: percentile(result.latencies_s, 99) * 1e3
            for rate, result in probes.items()
        }
        metrics["loadgen.p99_ms_at_2k"] = p99_at[2000.0]
        metrics["loadgen.p99_ms_at_8k"] = p99_at[8000.0]
        metrics["loadgen.max_rate_ok"] = max(
            [rate for rate, result in probes.items()
             if p99_at[rate] <= P99_LIMIT_MS and not result.ops_failed],
            default=0.0,
        )

    if trace_out:
        ids = assign_request_ids(recorder.spans, records)
        with open(trace_out, "w", encoding="utf-8") as fh:
            for index, (span, request_id) in enumerate(zip(recorder.spans, ids)):
                name, key, start, end, parent = span
                fh.write(json.dumps({
                    "span": index, "name": name, "key": key, "start": start,
                    "end": end, "parent": parent, "request_id": request_id,
                }) + "\n")

    named = set(SVC_LAYERS) | {UNATTRIBUTED, IDLE}
    puts = delta("telemetry", "service.put")
    return {
        **state,
        "metrics": metrics,
        "attempted": rig.sent,
        "failed": rig.failed,
        "errors": errors,
        "detail": {
            "hit_ratio": stats["telemetry"]["request.hit_ratio"],
            "traced_rounds": n_rounds,
            "traced_requests": requests,
            "traced_puts": puts,
            "spans": len(recorder.spans),
            "profiled_wall_s": profile.wall_s,
            "profile_total_self_s": total,
            "layers_outside_table": {
                k: v for k, v in seconds_by_layer.items() if k not in named
            },
        },
    }


def setup_only(spec: SvcWorkload, seed: int, spawned_at: float) -> Dict:
    async def main() -> Dict:
        rig, state = await _ready(spec, seed, spawned_at)
        await rig.stop()
        return state

    return asyncio.run(main())


def timed(spec, seed, seconds, quick, spawned_at, expected) -> Dict:
    return asyncio.run(_timed(spec, seed, seconds, quick, spawned_at, expected))


def traced(spec, seed, seconds, quick, spawned_at, expected, trace_out) -> Dict:
    return asyncio.run(
        _traced(spec, seed, seconds, quick, spawned_at, expected, trace_out)
    )
