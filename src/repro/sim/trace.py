"""Statistics and trace collection.

Collectors are deliberately dependency-free and cheap: the simulation's
hot paths (message delivery, cache lookups) increment counters or feed
one-pass accumulators.  Aggregation into the paper's metrics (latency per
request, byte hit ratio, false-hit ratio, control message overhead,
energy per request) happens in :mod:`repro.analysis.metrics`.
"""

from __future__ import annotations

from typing import Dict

__all__ = ["Counter", "WelfordAccumulator", "StatRegistry"]


class Counter:
    """A named monotonically increasing counter."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0

    def add(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease (amount={amount})")
        self.value += amount

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Counter({self.name!r}, {self.value})"


class WelfordAccumulator:
    """One-pass running mean (Welford's update), O(1) memory.

    Numerically stable for long runs — suitable for accumulating
    per-request latencies across hundreds of thousands of requests
    without storing them all.
    """

    __slots__ = ("count", "_mean")

    def __init__(self) -> None:
        self.count = 0
        self._mean = 0.0

    def add(self, x: float) -> None:
        self.count += 1
        delta = x - self._mean
        self._mean += delta / self.count

    @property
    def mean(self) -> float:
        return self._mean if self.count else float("nan")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"WelfordAccumulator(n={self.count}, mean={self.mean:.6g})"


class StatRegistry:
    """Namespace of counters and accumulators for one simulation run."""

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._accumulators: Dict[str, WelfordAccumulator] = {}

    def counter(self, name: str) -> Counter:
        c = self._counters.get(name)
        if c is None:
            c = self._counters[name] = Counter(name)
        return c

    def accumulator(self, name: str) -> WelfordAccumulator:
        a = self._accumulators.get(name)
        if a is None:
            a = self._accumulators[name] = WelfordAccumulator()
        return a

    # -- convenience -----------------------------------------------------

    def count(self, name: str, amount: float = 1.0) -> None:
        # Hottest call in the simulation (every packet touches several
        # counters): one dict probe and an unguarded add.  Negative
        # amounts only ever come from direct Counter.add callers, which
        # keep the guard.
        c = self._counters.get(name)
        if c is None:
            c = self._counters[name] = Counter(name)
        if amount < 0:
            raise ValueError(f"counter {name!r} cannot decrease (amount={amount})")
        c.value += amount

    def observe(self, name: str, value: float) -> None:
        self.accumulator(name).add(value)

    def value(self, name: str) -> float:
        """Counter value by name (0 if never touched)."""
        c = self._counters.get(name)
        return c.value if c else 0.0

    def counters(self) -> Dict[str, float]:
        """Flat ``{name: value}`` view of every counter.

        A read-only snapshot for in-run samplers (telemetry); unlike
        :meth:`snapshot` it carries no ``count.`` prefix and omits
        accumulators.
        """
        return {name: c.value for name, c in self._counters.items()}

    def mean(self, name: str) -> float:
        """Accumulator mean by name (NaN if never touched)."""
        a = self._accumulators.get(name)
        return a.mean if a else float("nan")

    def reset(self) -> None:
        """Zero all counters and accumulators (end-of-warm-up hook)."""
        for c in self._counters.values():
            c.value = 0.0
        for name in list(self._accumulators):
            self._accumulators[name] = WelfordAccumulator()

    def snapshot(self) -> Dict[str, float]:
        """Flat dict of all counters and accumulator means, for reports."""
        out: Dict[str, float] = {}
        for name, c in self._counters.items():
            out[f"count.{name}"] = c.value
        for name, a in self._accumulators.items():
            out[f"mean.{name}"] = a.mean
            out[f"n.{name}"] = float(a.count)
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"StatRegistry(counters={len(self._counters)}, "
            f"accumulators={len(self._accumulators)})"
        )
