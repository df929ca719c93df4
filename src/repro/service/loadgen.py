"""Load generator for the edge-cache service (closed- or open-loop).

``repro loadgen`` drives a running :class:`EdgeCacheServer` the way the
simulation's workload layer drives peers: keys drawn from the same
:class:`~repro.workload.ZipfSampler` popularity model (so the cache
tier sees the paper's skewed access pattern), a configurable fraction
of writes, and two offered-load models:

* **closed loop** (default) — each client keeps exactly one request in
  flight and issues the next the moment the response lands, so offered
  load adapts to service latency instead of overrunning it;
* **open loop** (``--rate R``) — requests fire on a fixed schedule (R
  per second fleet-wide, interleaved across clients and pipelined on
  each connection) *regardless* of response latency.  This is the mode
  overload experiments need: a slow server faces undiminished demand,
  which is precisely what load shedding exists to survive.

The summary reports throughput, hit ratio (fresh + validated + degraded
stale serves over all gets), the status mix, an **outcome breakdown**
(``served / degraded / shed / timeout / error`` — distinguishing shed
traffic from failed traffic), availability, and latency percentiles;
``--expect-hit-ratio`` turns the run into a pass/fail smoke check (CI
uses it to assert the closed loop actually exercises the cache).
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.checks import check_numbers
from repro.service.clock import WallClock
from repro.workload.zipf import ZipfSampler

__all__ = ["LoadGenConfig", "LoadSummary", "run_loadgen"]

#: ``LoadGenConfig``'s numbers, in the rows of ``ServiceConfig``'s table
#: (:func:`~repro.checks.check_numbers`).
_NUMERIC_FIELDS = (
    ("port", True, False, None),
    ("clients", True, False, None),
    ("duration", False, False, None),
    ("theta", False, True, None),  # 0: uniform keys
    ("n_items", True, False, None),
    ("seed", True, True, None),
    ("put_ratio", False, True, None),
    ("timeout", False, False, None),
    ("rate", False, False, "the closed loop"),
    ("expect_hit_ratio", False, True, "no hit-ratio floor"),
)
#: Upper bounds: a port number, and the two fractions.
_AT_MOST = {"port": 65535, "put_ratio": 1.0, "expect_hit_ratio": 1.0}

#: get statuses that count as a cache hit for the summary's hit ratio.
_HIT_STATUSES = frozenset({"hit-fresh", "hit-validated", "stale-hit"})


@dataclass
class LoadGenConfig:
    host: str = "127.0.0.1"
    port: int = 7117
    clients: int = 4
    #: Wall-clock seconds to keep the loop closed.
    duration: float = 5.0
    #: Zipf skew of the key popularity (paper evaluates 0.0-1.0).
    theta: float = 0.8
    #: Size of the keyspace; must not exceed the server's n_items.
    n_items: int = 500
    seed: int = 1
    #: Fraction of operations that are puts (rest are gets).
    put_ratio: float = 0.0
    #: Client-side per-request timeout (seconds).
    timeout: float = 5.0
    #: Open-loop offered load in requests/second across all clients;
    #: None keeps the closed loop.
    rate: Optional[float] = None
    #: Optional floor the summary's hit ratio must reach (CI smoke).
    expect_hit_ratio: Optional[float] = None

    def __post_init__(self) -> None:
        check_numbers(vars(self), _NUMERIC_FIELDS, _AT_MOST)


@dataclass
class LoadSummary:
    """Aggregated outcome of one load-generation run."""

    requests: int = 0
    gets: int = 0
    puts: int = 0
    hits: int = 0
    errors: int = 0
    timeouts: int = 0
    elapsed: float = 0.0
    by_status: Dict[str, int] = field(default_factory=dict)
    by_class: Dict[str, int] = field(default_factory=dict)
    #: Outcome classes: served / degraded / shed / timeout / error.
    by_outcome: Dict[str, int] = field(default_factory=dict)
    latencies: List[float] = field(default_factory=list)

    @property
    def hit_ratio(self) -> float:
        return self.hits / self.gets if self.gets else 0.0

    @property
    def throughput(self) -> float:
        return self.requests / self.elapsed if self.elapsed > 0 else 0.0

    @property
    def availability(self) -> float:
        """Answered fraction of non-shed traffic (served + degraded).

        Shed requests are excluded from the denominator: shedding is
        the service *choosing* not to answer, and the SLO question is
        what happened to the traffic it did accept.
        """
        served = self.by_outcome.get("served", 0)
        degraded = self.by_outcome.get("degraded", 0)
        answered = sum(self.by_outcome.values()) - self.by_outcome.get(
            "shed", 0
        )
        return (served + degraded) / answered if answered else 0.0

    @property
    def shed_ratio(self) -> float:
        total = sum(self.by_outcome.values())
        return self.by_outcome.get("shed", 0) / total if total else 0.0

    def latency_percentile(self, q: float) -> float:
        if not self.latencies:
            return 0.0
        return float(np.percentile(np.asarray(self.latencies), q))

    def _outcome(self, name: str) -> None:
        self.by_outcome[name] = self.by_outcome.get(name, 0) + 1

    def record(self, response: dict) -> None:
        self.requests += 1
        op = response.get("op")
        status = str(response.get("status", "error"))
        self.by_status[status] = self.by_status.get(status, 0) + 1
        served = str(response.get("served_class", "failed"))
        self.by_class[served] = self.by_class.get(served, 0) + 1
        if served == "shed":
            self._outcome("shed")
        elif served == "degraded":
            self._outcome("degraded")
        elif response.get("ok", False):
            self._outcome("served")
        else:
            self._outcome("error")
        if op == "get":
            self.gets += 1
            if status in _HIT_STATUSES:
                self.hits += 1
        elif op == "put":
            self.puts += 1
        if not response.get("ok", False):
            self.errors += 1
        latency = response.get("latency_ms")
        if latency is not None:
            self.latencies.append(float(latency))

    def record_timeout(self) -> None:
        """A request the client gave up on (no response in time)."""
        self.timeouts += 1
        self._outcome("timeout")

    def to_dict(self) -> dict:
        return {
            "requests": self.requests,
            "gets": self.gets,
            "puts": self.puts,
            "hits": self.hits,
            "hit_ratio": round(self.hit_ratio, 4),
            "availability": round(self.availability, 4),
            "shed_ratio": round(self.shed_ratio, 4),
            "errors": self.errors,
            "timeouts": self.timeouts,
            "elapsed_s": round(self.elapsed, 3),
            "throughput_rps": round(self.throughput, 1),
            "latency_ms": {
                "p50": round(self.latency_percentile(50), 3),
                "p95": round(self.latency_percentile(95), 3),
                "p99": round(self.latency_percentile(99), 3),
            },
            "by_status": dict(sorted(self.by_status.items())),
            "by_class": dict(sorted(self.by_class.items())),
            "by_outcome": dict(sorted(self.by_outcome.items())),
        }

    def render(self) -> str:
        d = self.to_dict()
        lines = [
            f"requests: {d['requests']} in {d['elapsed_s']}s "
            f"({d['throughput_rps']} req/s)",
            f"hit ratio: {d['hit_ratio']} "
            f"({self.hits}/{self.gets} gets; {self.puts} puts)",
            f"availability: {d['availability']} "
            f"(shed ratio {d['shed_ratio']})",
            f"latency ms p50/p95/p99 = {d['latency_ms']['p50']} / "
            f"{d['latency_ms']['p95']} / {d['latency_ms']['p99']}",
            f"errors: {self.errors}, timeouts: {self.timeouts}",
        ]
        for status, count in d["by_status"].items():
            lines.append(f"  status[{status}] = {count}")
        for cls, count in d["by_class"].items():
            lines.append(f"  served[{cls}] = {count}")
        for outcome, count in d["by_outcome"].items():
            lines.append(f"  outcome[{outcome}] = {count}")
        return "\n".join(lines)


async def _client(
    index: int,
    cfg: LoadGenConfig,
    sampler: ZipfSampler,
    op_rng: np.random.Generator,
    clock: WallClock,
    stop_at: float,
    summary: LoadSummary,
) -> None:
    """One closed-loop client: requests back-to-back, one in flight.

    The protocol has no request id, so a response landing after its
    request timed out would be read as the next request's: a timeout
    abandons the connection and the loop goes on over a fresh one.
    """
    reader, writer = await asyncio.open_connection(cfg.host, cfg.port)
    try:
        while clock.now() < stop_at:
            key = sampler.sample()
            op = "put" if op_rng.random() < cfg.put_ratio else "get"
            writer.write(json.dumps({"op": op, "key": key}).encode() + b"\n")
            await writer.drain()
            try:
                line = await asyncio.wait_for(
                    reader.readline(), timeout=cfg.timeout
                )
            except asyncio.TimeoutError:
                summary.record_timeout()
                writer.close()
                reader, writer = await asyncio.open_connection(
                    cfg.host, cfg.port
                )
                continue
            if not line:
                break  # server drained mid-run; stop this client
            summary.record(json.loads(line))
    except (ConnectionResetError, BrokenPipeError, OSError):
        pass  # server went away; the summary keeps what completed
    finally:
        writer.close()


async def _open_loop_client(
    index: int,
    cfg: LoadGenConfig,
    sampler: ZipfSampler,
    op_rng: np.random.Generator,
    clock: WallClock,
    stop_at: float,
    summary: LoadSummary,
) -> None:
    """One open-loop client: requests fire on schedule, pipelined.

    The fleet rate is interleaved: client ``i`` of ``n`` sends every
    ``n / rate`` seconds, offset by ``i / rate``.  Sends never wait
    for responses (a companion reader records them as they land), so
    offered load stays fixed however slow the server gets — responses
    still outstanding ``timeout`` seconds after the last send are
    recorded as timeouts.
    """
    interval = cfg.clients / cfg.rate
    sent = 0
    received = 0
    try:
        reader, writer = await asyncio.open_connection(cfg.host, cfg.port)
    except OSError:
        return

    async def _drain_responses() -> None:
        nonlocal received
        while True:
            line = await reader.readline()
            if not line:
                return
            summary.record(json.loads(line))
            received += 1

    reader_task = asyncio.ensure_future(_drain_responses())
    try:
        next_at = clock.now() + index / cfg.rate
        while True:
            now = clock.now()
            if now >= stop_at:
                break
            if next_at > now:
                await asyncio.sleep(next_at - now)
            key = sampler.sample()
            op = "put" if op_rng.random() < cfg.put_ratio else "get"
            writer.write(json.dumps({"op": op, "key": key}).encode() + b"\n")
            await writer.drain()
            sent += 1
            next_at += interval
        # Tail: give outstanding responses one timeout budget to land.
        deadline = clock.now() + cfg.timeout
        while received < sent and clock.now() < deadline:
            if reader_task.done():
                break  # connection closed; the rest are lost
            await asyncio.sleep(0.01)
    except (ConnectionResetError, BrokenPipeError, OSError):
        pass  # server went away; the summary keeps what completed
    finally:
        reader_task.cancel()
        try:
            await reader_task
        except (asyncio.CancelledError, Exception):  # noqa: BLE001
            pass
        for _ in range(sent - received):
            summary.record_timeout()
        writer.close()


async def run_loadgen(cfg: LoadGenConfig) -> LoadSummary:
    """Run the load loop; returns the aggregated summary.

    Clients share one Zipf sampler (one popularity ranking for the
    whole fleet — the paper's workload model) but draw keys through
    per-run seeded streams, so runs are reproducible given a seed.
    ``cfg.rate`` picks the open loop; None keeps the closed loop.
    """
    rng = np.random.default_rng(cfg.seed)
    sampler = ZipfSampler(cfg.n_items, cfg.theta, rng)
    summary = LoadSummary()
    clock = WallClock()
    stop_at = clock.now() + cfg.duration
    loop_client = _client if cfg.rate is None else _open_loop_client
    clients = [
        loop_client(
            index, cfg, sampler, np.random.default_rng(cfg.seed + 1 + index),
            clock, stop_at, summary,
        )
        for index in range(cfg.clients)
    ]
    await asyncio.gather(*clients)
    summary.elapsed = clock.now()
    return summary
