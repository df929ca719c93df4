"""Determinism audit: golden traces for seeded (faulted) runs.

The reproduction's headline defence against "simulator bug or real
effect?" is exact replayability: identical seed + config + fault plan
must produce a bit-for-bit identical run.  This module makes that claim
*checkable*:

1. every audited run keeps a structured event log
   (:mod:`repro.sim.eventlog`), which is hashed into a canonical
   **event-log digest**;
2. the finished :class:`~repro.analysis.metrics.RunReport` is reduced to
   a canonical summary and hashed into a **report digest**;
3. :func:`audit_scenario` runs a named scenario twice (or more) from
   the same seed and compares digests — any divergence is a determinism
   bug;
4. digests for the canonical scenarios are checked in under
   ``tests/golden/`` and re-verified by the test suite and CI, so an
   *unintentional* behaviour change fails loudly while an intentional
   one is a one-command golden refresh
   (``python -m repro audit --refresh-golden --golden tests/golden/digests.json``).

Scenario runs also execute :func:`repro.core.invariants.check_all` at
every fault boundary and after the run, so an audited scenario is a
correctness test, not just a fingerprint.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Union

from repro.analysis.metrics import RunReport
from repro.config import SimulationConfig
from repro.faults.plan import FaultPlan, FaultSpec
from repro.sim.eventlog import EventLog

__all__ = [
    "AuditResult",
    "RunDigest",
    "SCENARIOS",
    "audit_scenario",
    "canonical_scenario_name",
    "eventlog_digest",
    "load_golden",
    "refresh_golden",
    "report_digest",
    "report_summary",
    "run_scenario",
    "write_golden",
]


# ---------------------------------------------------------------------------
# canonical digests
# ---------------------------------------------------------------------------

def _jsonable(value: Any) -> Any:
    """Coerce event/report field values to a canonical JSON-able form."""
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        return value
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in sorted(value.items())}
    item = getattr(value, "item", None)
    if callable(item):  # numpy scalar
        return _jsonable(item())
    return repr(value)


def _canonical_json(value: Any) -> bytes:
    return json.dumps(
        _jsonable(value), sort_keys=True, separators=(",", ":")
    ).encode("utf-8")


def eventlog_digest(log: EventLog) -> str:
    """SHA-256 over the canonical serialization of every logged event.

    Two runs share a digest iff they logged the same events, with the
    same fields, at the same virtual times, in the same order — the
    "golden trace" identity.
    """
    digest = hashlib.sha256()
    for event in log:
        digest.update(_canonical_json([event.time, event.kind, event.fields]))
        digest.update(b"\n")
    digest.update(f"dropped={log.dropped}".encode("utf-8"))
    return digest.hexdigest()


def report_summary(report: RunReport) -> Dict[str, Any]:
    """The canonical metric summary a report is fingerprinted by."""
    return {
        "requests_issued": report.requests_issued,
        "requests_served": report.requests_served,
        "requests_failed": report.requests_failed,
        "updates_issued": report.updates_issued,
        "average_latency": report.average_latency,
        "byte_hit_ratio": report.byte_hit_ratio,
        "false_hit_ratio": report.false_hit_ratio,
        "consistency_messages": report.consistency_messages,
        "total_messages": report.total_messages,
        "energy_total_uj": report.energy_total_uj,
        "latency_p50": report.latency_p50,
        "latency_p95": report.latency_p95,
        "latency_p99": report.latency_p99,
        "served_by_class": dict(sorted(report.served_by_class.items())),
        "extra": dict(sorted(report.extra.items())),
    }


def report_digest(report: RunReport) -> str:
    """SHA-256 of the canonical report summary (NaN-safe via repr)."""
    summary = report_summary(report)
    # json rejects NaN under allow_nan=False and emits non-standard
    # tokens otherwise; repr floats instead for an exact, portable form.
    rendered = {
        key: repr(value) if isinstance(value, float) else value
        for key, value in summary.items()
    }
    return hashlib.sha256(_canonical_json(rendered)).hexdigest()


@dataclass(frozen=True)
class RunDigest:
    """The determinism fingerprint of one finished run."""

    scenario: str
    seed: int
    eventlog: str
    report: str

    @property
    def combined(self) -> str:
        return hashlib.sha256(
            f"{self.eventlog}:{self.report}".encode("utf-8")
        ).hexdigest()

    def to_dict(self) -> Dict[str, Any]:
        return {
            "seed": self.seed,
            "eventlog": self.eventlog,
            "report": self.report,
        }


# ---------------------------------------------------------------------------
# named scenarios
# ---------------------------------------------------------------------------

def _base_config(seed: int) -> SimulationConfig:
    """Small-but-representative audited run (~100 requests, mobile,
    consistency on), sized so two runs complete in seconds."""
    return SimulationConfig(
        n_nodes=20,
        n_items=60,
        width=600.0,
        height=600.0,
        n_regions=4,
        max_speed=4.0,
        duration=80.0,
        warmup=10.0,
        t_request=15.0,
        t_update=40.0,
        consistency="push-adaptive-pull",
        cache_fraction=0.1,
        seed=seed,
        enable_event_log=True,
    )


def _scenario_baseline(seed: int) -> SimulationConfig:
    return _base_config(seed)


def _scenario_faulted(seed: int) -> SimulationConfig:
    plan = FaultPlan((
        FaultSpec("drop", start=20.0, end=60.0, probability=0.15),
        FaultSpec("delay", start=20.0, end=60.0, probability=0.3, delay_s=0.05),
        FaultSpec("duplicate", start=20.0, end=60.0, probability=0.1),
        FaultSpec("reorder", start=20.0, end=60.0, probability=0.2, delay_s=0.02),
        FaultSpec("crash", at=30.0, nodes=(3, 7)),
        FaultSpec("recover", at=55.0, nodes=(3, 7)),
        FaultSpec("partition", start=40.0, end=60.0, regions=(0,)),
    ))
    return replace(_base_config(seed), fault_plan=plan)


def _scenario_churn(seed: int) -> SimulationConfig:
    return replace(_base_config(seed), churn_uptime=30.0, churn_downtime=10.0)


def _scenario_resilient(seed: int) -> SimulationConfig:
    """The faulted scenario with the resilience layer switched on.

    Same hostile fault plan as ``faulted``, so the golden digests pin
    that retries, deadline budgets, and circuit breaking themselves
    replay bit-for-bit (the backoff jitter draws from the dedicated
    "resilience" RNG stream).
    """
    return replace(_scenario_faulted(seed), resilience=True)


#: Audited scenarios.  "default" is an alias of "baseline" so the CLI's
#: documented invocation (`repro audit --scenario default`) and the
#: golden file key ("baseline") agree.
SCENARIOS: Dict[str, Callable[[int], SimulationConfig]] = {
    "baseline": _scenario_baseline,
    "default": _scenario_baseline,
    "faulted": _scenario_faulted,
    "churn": _scenario_churn,
    "resilient": _scenario_resilient,
}

#: Scenario names digests are stored under (aliases folded).
CANONICAL_SCENARIOS = ("baseline", "faulted", "churn", "resilient")

_ALIASES = {"default": "baseline"}


def canonical_scenario_name(name: str) -> str:
    return _ALIASES.get(name, name)


def run_scenario(
    name: str,
    seed: int = 42,
    check_invariants: bool = True,
    observers=None,
):
    """Run one audited scenario; return ``(net, report, RunDigest)``.

    Invariants are checked at every fault boundary (via the installed
    :class:`~repro.faults.injectors.FaultController`) and once after the
    run, unless ``check_invariants`` is False.

    ``observers`` is a :class:`repro.obs.Observers` composition — the
    one surface for attaching tracing, telemetry, the flight recorder,
    energy attribution, and anomaly triggers.  All observers
    are digest-neutral by construction, so any combination must leave
    both digests byte-identical — the test suite verifies exactly that.
    """
    try:
        factory = SCENARIOS[name]
    except KeyError:
        raise ValueError(
            f"unknown audit scenario {name!r} (expected one of {sorted(SCENARIOS)})"
        ) from None
    from repro.core.network import PReCinCtNetwork

    net = PReCinCtNetwork(factory(seed), observers=observers)
    if net.faults is not None:
        net.faults.check_invariants = check_invariants
    report = net.run()
    if check_invariants:
        from repro.core.invariants import check_all

        check_all(net)
    digest = RunDigest(
        scenario=canonical_scenario_name(name),
        seed=seed,
        eventlog=eventlog_digest(net.log),
        report=report_digest(report),
    )
    return net, report, digest


# ---------------------------------------------------------------------------
# the audit itself
# ---------------------------------------------------------------------------

@dataclass
class AuditResult:
    """Outcome of a determinism audit of one scenario."""

    scenario: str
    seed: int
    digests: List[RunDigest] = field(default_factory=list)
    #: None = not checked (no golden entry supplied for the scenario).
    golden_match: Optional[bool] = None
    messages: List[str] = field(default_factory=list)

    @property
    def deterministic(self) -> bool:
        first = self.digests[0]
        return all(
            d.eventlog == first.eventlog and d.report == first.report
            for d in self.digests[1:]
        )

    @property
    def ok(self) -> bool:
        return self.deterministic and self.golden_match is not False


def audit_scenario(
    name: str,
    seed: int = 42,
    runs: int = 2,
    golden: Optional[Dict[str, Dict[str, Any]]] = None,
    bundle_dir: Optional[Union[str, Path]] = None,
    trace_path: Optional[Union[str, Path]] = None,
) -> AuditResult:
    """Run a scenario ``runs`` times from one seed and compare digests.

    With ``golden`` (a mapping as returned by :func:`load_golden`), the
    observed digest is also compared against the checked-in one.  With
    ``bundle_dir``, a digest divergence or golden mismatch dumps a
    flight-recorder bundle (last run's event log + telemetry) there for
    post-mortem diffing.

    ``trace_path`` exports the final run's request traces as JSONL (the
    final run is traced, which is digest-neutral, so the audit itself is
    unchanged); ``repro trace diff`` compares two such exports.
    """
    if runs < 2:
        raise ValueError(f"an audit needs at least 2 runs, got {runs}")
    canonical = canonical_scenario_name(name)
    result = AuditResult(scenario=canonical, seed=seed)
    from repro.obs.observers import Observers

    net = None
    for index in range(runs):
        options: Dict[str, Any] = {}
        if bundle_dir is not None:
            options["recorder_dir"] = str(bundle_dir)
        if trace_path is not None and index == runs - 1:
            options.update(tracing=True, telemetry=True)
        net, _, digest = run_scenario(
            name, seed, observers=Observers(**options)
        )
        result.digests.append(digest)
    if not result.deterministic:
        result.messages.append(
            f"NONDETERMINISM: scenario {canonical!r} seed {seed} produced "
            f"{len(set(d.combined for d in result.digests))} distinct digests "
            f"across {runs} runs"
        )
    if golden is not None:
        entry = golden.get(canonical)
        if entry is None:
            result.messages.append(
                f"no golden entry for scenario {canonical!r}; not compared"
            )
        elif int(entry["seed"]) != seed:
            result.golden_match = None
            result.messages.append(
                f"golden entry for {canonical!r} is for seed {entry['seed']}, "
                f"audit ran seed {seed}; not compared"
            )
        else:
            observed = result.digests[0]
            result.golden_match = (
                entry["eventlog"] == observed.eventlog
                and entry["report"] == observed.report
            )
            if not result.golden_match:
                result.messages.append(
                    f"GOLDEN MISMATCH: scenario {canonical!r} seed {seed}\n"
                    f"  golden   eventlog={entry['eventlog']} report={entry['report']}\n"
                    f"  observed eventlog={observed.eventlog} report={observed.report}"
                )
    if bundle_dir is not None and net is not None and (
        not result.deterministic or result.golden_match is False
    ):
        from repro.obs import FlightRecorder

        reason = (
            "digest-divergence" if not result.deterministic
            else "golden-mismatch"
        )
        recorder = FlightRecorder(
            bundle_dir,
            eventlog=net.log,
            tracer=net.tracer,
            telemetry=net.telemetry.rows if net.telemetry is not None else None,
        )
        bundle = recorder.dump(
            reason,
            context={
                "scenario": canonical,
                "seed": seed,
                "digests": [d.to_dict() for d in result.digests],
            },
            sim_time=net.sim.now,
        )
        if bundle is not None:
            result.messages.append(f"flight-recorder bundle: {bundle}")
    if trace_path is not None and net is not None:
        count = net.tracer.to_jsonl(trace_path)
        result.messages.append(f"wrote {count} trace(s) to {trace_path}")
    return result


# ---------------------------------------------------------------------------
# golden files
# ---------------------------------------------------------------------------

def load_golden(path: Union[str, Path]) -> Dict[str, Dict[str, Any]]:
    """Read a golden-digest file (``{scenario: {seed, eventlog, report}}``)."""
    return json.loads(Path(path).read_text(encoding="utf-8"))


def write_golden(path: Union[str, Path], entries: Dict[str, Dict[str, Any]]) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(
        json.dumps(entries, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def refresh_golden(
    path: Union[str, Path],
    scenarios: Sequence[str] = CANONICAL_SCENARIOS,
    seed: int = 42,
    runs: int = 2,
) -> Dict[str, Dict[str, Any]]:
    """Re-run every scenario, verify determinism, and rewrite the file.

    Refusing to write a nondeterministic digest keeps goldens honest.
    """
    entries: Dict[str, Dict[str, Any]] = {}
    for name in scenarios:
        result = audit_scenario(name, seed=seed, runs=runs)
        if not result.deterministic:
            raise RuntimeError(
                f"refusing to write golden for nondeterministic scenario {name!r}"
            )
        entries[result.scenario] = result.digests[0].to_dict()
    write_golden(path, entries)
    return entries
