"""Runtime-agnostic ports for the cooperative-caching core.

The policy core of this reproduction — the GD-LD cache
(:mod:`repro.core.cache` / :mod:`repro.core.replacement`), the
consistency schemes (:mod:`repro.core.consistency`) and the resilience
layer (:mod:`repro.resilience`) — is deployment-independent: the same
algorithms run inside the discrete-event simulator *and* inside the
:mod:`repro.service` asyncio edge-cache tier.  This module defines the
narrow protocols ("ports", in ports-and-adapters terms) that core code
is allowed to depend on.  Everything here is dependency-free: importing
:mod:`repro.ports` never pulls in the simulator, the radio network, or
asyncio.

Adapters
--------
* The **simulation** supplies virtual time (``Simulator.now``), seeded
  substreams (:class:`repro.sim.RngRegistry`), and a
  :class:`repro.sim.StatRegistry` — all of which satisfy these
  protocols structurally (no inheritance required).
* The **service** (:mod:`repro.service`) supplies a monotonic
  :class:`~repro.service.clock.WallClock`, ``numpy`` generators, a
  :class:`CounterStatSink`, and a geohash
  :class:`~repro.service.routing.ShardDirectory`.

Protocols are ``runtime_checkable`` so tests can assert adapter
conformance with ``isinstance``.
"""

from __future__ import annotations

from typing import (
    Callable,
    Dict,
    Protocol,
    Sequence,
    runtime_checkable,
)

__all__ = [
    "Clock",
    "ConsistencyTransport",
    "CounterStatSink",
    "EventHook",
    "NullStatSink",
    "PeerDirectory",
    "RngStream",
    "StatSink",
]

#: Structured-event hook: ``hook(kind, **fields)``.  The simulation
#: binds this to the event log's ``trace``; the service binds it to the
#: telemetry bus's ``publish_event``.
EventHook = Callable[..., None]


@runtime_checkable
class Clock(Protocol):
    """A source of monotone time in seconds.

    The simulator's virtual clock and the service's wall clock both
    provide it; core code never asks *which* kind of second it is.
    """

    def now(self) -> float:
        """Current time in seconds (monotone non-decreasing)."""
        ...  # pragma: no cover - protocol


@runtime_checkable
class RngStream(Protocol):
    """The slice of ``numpy.random.Generator`` the core draws from.

    Both adapter sets hand the core independent named substreams
    (``RngRegistry.get(name)`` in the sim, ``default_rng(seed)`` spawns
    in the service) so one component's draws never perturb another's.
    """

    def random(self) -> float: ...  # pragma: no cover - protocol

    def uniform(self, low: float, high: float) -> float: ...  # pragma: no cover

    def exponential(self, scale: float) -> float: ...  # pragma: no cover


@runtime_checkable
class StatSink(Protocol):
    """Where the core books counters and scalar observations.

    ``repro.sim.StatRegistry`` satisfies it; so does
    :class:`CounterStatSink` (service) and :class:`NullStatSink`
    (tests / disabled accounting).
    """

    def count(self, name: str, amount: float = 1.0) -> None: ...  # pragma: no cover

    def observe(self, name: str, value: float) -> None: ...  # pragma: no cover


@runtime_checkable
class PeerDirectory(Protocol):
    """Key-placement oracle: which region is authoritative for a key.

    The paper's geographic hash (§2.2, §2.4) supplies the canonical
    implementation; the service wraps the same hash over its shard
    table (:class:`repro.service.routing.ShardDirectory`).
    """

    def home_region(self, key: int) -> int:
        """Region id whose custodians hold the key's authoritative copy."""
        ...  # pragma: no cover - protocol

    def replica_region(self, key: int) -> int:
        """Second-closest region — the key's replica custodian (§2.4)."""
        ...  # pragma: no cover - protocol

    def region_ids(self) -> Sequence[int]:
        """All region ids currently in the table."""
        ...  # pragma: no cover - protocol

    def key_distance(self, key: int, region_id: int) -> float:
        """Distance from the key's hashed location to a region's center
        (GD-LD's reg_dst term)."""
        ...  # pragma: no cover - protocol


@runtime_checkable
class ConsistencyTransport(Protocol):
    """Messaging services a consistency scheme's write path needs.

    The simulation facade (:class:`repro.core.network.PReCinCtNetwork`)
    implements it with simulated radio traffic; the service implements
    it with in-process shard calls.
    """

    def push_update_to_regions(self, updater: int, key: int, category: str) -> None:
        """Push the new value to the key's home and replica regions."""
        ...  # pragma: no cover - protocol

    def flood_invalidation(self, updater: int, key: int, category: str) -> None:
        """Flood a Plain-Push invalidation notice network-wide."""
        ...  # pragma: no cover - protocol


class NullStatSink:
    """A :class:`StatSink` that drops everything (accounting disabled)."""

    def count(self, name: str, amount: float = 1.0) -> None:
        pass

    def observe(self, name: str, value: float) -> None:
        pass

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "NullStatSink()"


class CounterStatSink:
    """Dict-backed :class:`StatSink` for runtimes without a StatRegistry.

    Counters accumulate under their name; observations keep last value,
    running sum and count (enough for the service's gauge snapshots
    without dragging in the simulator's Welford machinery).
    """

    def __init__(self) -> None:
        self.counters: Dict[str, float] = {}
        self.observations: Dict[str, Dict[str, float]] = {}

    def count(self, name: str, amount: float = 1.0) -> None:
        self.counters[name] = self.counters.get(name, 0.0) + amount

    def observe(self, name: str, value: float) -> None:
        slot = self.observations.setdefault(
            name, {"last": 0.0, "sum": 0.0, "n": 0.0}
        )
        slot["last"] = float(value)
        slot["sum"] += float(value)
        slot["n"] += 1.0

    def value(self, name: str) -> float:
        """Current value of a counter (0.0 if never counted)."""
        return self.counters.get(name, 0.0)

    def snapshot(self) -> Dict[str, float]:
        """Flat ``{name: value}`` view: counters + last observations."""
        out = dict(self.counters)
        for name, slot in self.observations.items():
            out[name] = slot["last"]
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CounterStatSink(counters={len(self.counters)}, "
            f"observations={len(self.observations)})"
        )
