"""Telemetry-driven anomaly triggers for the flight recorder.

The :class:`~repro.obs.recorder.FlightRecorder` dumps forensic bundles
on *failures* (request failed, invariant violated, engine crash).  This
module adds **declarative threshold rules** on any telemetry series, so
a bundle is captured the moment a run goes *weird*, not only when it
goes wrong: MAC backlog climbing past 5 s, region occupancy imbalance,
joules-per-request spiking.

A rule is ``<series><op><threshold>`` with ``op`` one of ``>``/``<``,
e.g. ``mac.backlog_max_s>5`` or ``stat.requests.served<1``.  Rules are
checked against every sampled telemetry row (:meth:`AnomalyWatcher.check`
is a :class:`~repro.obs.stream.TelemetryBus` listener); a
rule that fires dumps one bundle and re-arms only after the series
returns to the safe side (hysteresis), so a persistently-breached
threshold produces one bundle per excursion instead of one per sample.

Determinism: the watcher is a pure observer — it reads the already
collected row, never touches simulation state, RNG, or stats, and its
only side effect is writing bundle files to the host filesystem.
"""

from __future__ import annotations

from typing import Dict, List, Optional

__all__ = ["AnomalyRule", "AnomalyWatcher"]

_OPS = (">", "<")


class AnomalyRule:
    """One threshold rule on a telemetry series."""

    def __init__(self, series: str, op: str, threshold: float):
        if op not in _OPS:
            raise ValueError(f"anomaly op must be one of {_OPS}, got {op!r}")
        if not series:
            raise ValueError("anomaly rule needs a series name")
        self.series = series
        self.op = op
        self.threshold = float(threshold)

    @classmethod
    def parse(cls, spec: str) -> "AnomalyRule":
        """Parse ``"<series><op><threshold>"`` (e.g. ``mac.backlog_max_s>5``).

        The first ``>`` or ``<`` splits series from threshold, so
        series names may contain dots and digits but not comparison
        operators.
        """
        spec = spec.strip()
        for i, ch in enumerate(spec):
            if ch in _OPS:
                series, raw = spec[:i].strip(), spec[i + 1:].strip()
                if not series or not raw:
                    break
                try:
                    threshold = float(raw)
                except ValueError:
                    raise ValueError(
                        f"anomaly threshold is not a number: {spec!r}"
                    ) from None
                return cls(series, ch, threshold)
        raise ValueError(
            f"anomaly rule must look like 'series>threshold' or "
            f"'series<threshold', got {spec!r}"
        )

    def breached(self, value: float) -> bool:
        if self.op == ">":
            return value > self.threshold
        return value < self.threshold

    @property
    def spec(self) -> str:
        return f"{self.series}{self.op}{self.threshold:g}"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"AnomalyRule({self.spec!r})"


class AnomalyWatcher:
    """Checks a rule set against each telemetry row; fires the recorder.

    Parameters
    ----------
    rules:
        Parsed :class:`AnomalyRule` instances (or specs to parse).
    recorder:
        Optional :class:`~repro.obs.recorder.FlightRecorder`; ``None``
        records firings without dumping bundles (still countable).
    bus:
        Optional :class:`~repro.obs.stream.TelemetryBus`; each firing
        is published as an ``anomaly`` event, so live exports carry it
        and the dashboard shows it as a banner.
    """

    def __init__(self, rules, recorder=None, bus=None):
        self.rules: List[AnomalyRule] = [
            r if isinstance(r, AnomalyRule) else AnomalyRule.parse(r)
            for r in rules
        ]
        self.recorder = recorder
        self.bus = bus
        self._armed: List[bool] = [True] * len(self.rules)
        #: ``(sim_time, rule spec, observed value)`` per firing.
        self.fired: List[tuple] = []

    @property
    def triggers(self) -> int:
        return len(self.fired)

    def check(self, t: float, values: Dict[str, float]) -> int:
        """Evaluate all rules against one row; returns firings this row.

        A series absent from the row (not yet minted by the snapshot)
        never fires its rules.  Each rule re-arms once its series is
        observed on the safe side of the threshold.
        """
        fired_now = 0
        for i, rule in enumerate(self.rules):
            value = values.get(rule.series)
            if value is None:
                continue
            if rule.breached(value):
                if self._armed[i]:
                    self._armed[i] = False
                    self.fired.append((t, rule.spec, value))
                    fired_now += 1
                    if self.bus is not None:
                        self.bus.publish_event(
                            t, "anomaly",
                            {
                                "rule": rule.spec,
                                "series": rule.series,
                                "value": value,
                                "threshold": rule.threshold,
                            },
                        )
                    if self.recorder is not None:
                        self.recorder.dump(
                            f"anomaly-{rule.series}",
                            {
                                "rule": rule.spec,
                                "series": rule.series,
                                "value": value,
                                "threshold": rule.threshold,
                            },
                            sim_time=t,
                        )
            else:
                self._armed[i] = True
        return fired_now

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"AnomalyWatcher(rules={len(self.rules)}, "
            f"triggers={self.triggers})"
        )
