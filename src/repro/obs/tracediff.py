"""Cross-run trace diffing: which *phase* regressed, and why.

Two runs of the same workload (same seed, different fault plan, policy,
or code revision) produce two :meth:`~repro.obs.tracer.Tracer.to_jsonl`
exports.  Eyeballing them answers "run B is slower"; this module
answers "replica failover added +2.8 s p95 at the home phase":

1. **align** the two exports by requester peer, request key, and issue
   order (ties within a ``(peer, key)`` group are paired in issue-time
   order) — a bijection on the common identities, with the leftovers
   reported as ``only_a`` / ``only_b``;
2. per aligned pair, compute the **per-phase latency delta** (the
   ``phase.local`` / ``phase.home`` / ``phase.replica`` / ``phase.poll``
   spans partition each request's latency, so the phase deltas sum to
   the end-to-end latency delta), the **span-count delta** (hops,
   floods, polls), and the **fault tags** each side's phases carry;
3. aggregate into a **ranked regression report** — phases ordered by
   p95 delta — rendered as text (:meth:`TraceDiff.render`) or JSON
   (:meth:`TraceDiff.to_json_dict`).

Everything here is plain post-processing of exported dicts: no
simulator state, no RNG, no ordering dependence beyond the documented
issue-order pairing, so a diff of two deterministic runs is itself
deterministic — which is what lets ``tests/golden/`` pin the baseline
vs. faulted golden-scenario report byte-for-byte.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = [
    "AlignedPair",
    "PhaseDelta",
    "TraceDiff",
    "align_traces",
    "diff_files",
    "diff_traces",
    "load_traces",
    "p95",
]

#: Canonical request phases, in protocol order (display order for ties).
PHASE_ORDER = ("phase.local", "phase.home", "phase.replica", "phase.poll")

#: Deltas smaller than this are noise from float accumulation, not a
#: regression; used only for regressed/improved *counts*, never to
#: discard the deltas themselves.
DELTA_EPS = 1e-9


# ---------------------------------------------------------------------------
# loading and per-trace views
# ---------------------------------------------------------------------------

def load_traces(path) -> List[Dict[str, Any]]:
    """Read a ``Tracer.to_jsonl`` export back as trace dicts.

    This is the one reader of a trace export.  Blank lines are skipped,
    and an empty file is a valid export of a run that completed no
    traces (e.g. ``trace_sample_rate=0``) and loads as an empty list.  A
    line that is not a JSON object with ``trace_id`` and ``spans``
    raises ``ValueError`` naming its ``path:lineno``.
    """
    traces: List[Dict[str, Any]] = []
    with open(Path(path).expanduser(), "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(
                    f"{path}:{lineno}: not a JSON trace record: {exc}"
                ) from None
            if not isinstance(record, dict):
                raise ValueError(
                    f"{path}:{lineno}: trace record must be an object, "
                    f"got {type(record).__name__}"
                )
            if "trace_id" not in record or "spans" not in record:
                raise ValueError(f"{path}:{lineno}: not a JSON trace record")
            traces.append(record)
    return traces


def trace_latency(trace: Dict[str, Any]) -> float:
    """End-to-end latency of one exported trace (tolerates old exports
    without the explicit ``latency`` field)."""
    latency = trace.get("latency")
    if latency is None:
        latency = float(trace.get("end", 0.0)) - float(trace.get("start", 0.0))
    return float(latency)


def phase_durations(trace: Dict[str, Any]) -> Dict[str, float]:
    """Total duration per ``phase.*`` span name (zero-span traces → {})."""
    out: Dict[str, float] = {}
    for span in trace.get("spans") or ():
        name = span.get("name", "")
        if name.startswith("phase."):
            dur = float(span.get("end", 0.0)) - float(span.get("start", 0.0))
            out[name] = out.get(name, 0.0) + dur
    return out


def span_counts(trace: Dict[str, Any]) -> Counter:
    """Span occurrences per name for one exported trace."""
    return Counter(
        span.get("name", "?") for span in trace.get("spans") or ()
    )


def phase_energy(trace: Dict[str, Any]) -> Dict[str, float]:
    """Attributed energy (uJ) per ``phase.*`` span name.

    Exports from runs without energy attribution carry no
    ``energy_uj`` keys and map to ``{}`` — diffing them yields all-zero
    energy deltas, never an error.
    """
    out: Dict[str, float] = {}
    for span in trace.get("spans") or ():
        name = span.get("name", "")
        energy = span.get("energy_uj")
        if name.startswith("phase.") and energy:
            out[name] = out.get(name, 0.0) + float(energy)
    return out


def phase_fault_tags(trace: Dict[str, Any]) -> Dict[str, Counter]:
    """Fault tags per phase span name (``{phase: Counter(kind)}``)."""
    out: Dict[str, Counter] = {}
    for span in trace.get("spans") or ():
        name = span.get("name", "")
        tags = span.get("faults")
        if name.startswith("phase.") and tags:
            out.setdefault(name, Counter()).update(tags)
    return out


# ---------------------------------------------------------------------------
# alignment
# ---------------------------------------------------------------------------

def _identity(trace: Dict[str, Any]) -> Tuple[int, int]:
    return (int(trace.get("peer", -1)), int(trace.get("key", -1)))


def _issue_order(trace: Dict[str, Any]) -> Tuple[float, int]:
    return (float(trace.get("start", 0.0)), int(trace.get("trace_id", -1)))


@dataclass
class AlignedPair:
    """One request matched across the two runs."""

    a: Dict[str, Any]
    b: Dict[str, Any]

    @property
    def latency_delta(self) -> float:
        return trace_latency(self.b) - trace_latency(self.a)

    def phase_deltas(self) -> Dict[str, float]:
        """Per-phase duration deltas (B − A) over the union of phases.

        Because phase spans partition each side's latency, these deltas
        sum to :attr:`latency_delta` — the identity the property tests
        pin down.  A request local-served in A (zero latency, no phase
        spans) but escalated in B contributes B's full phase breakdown.
        """
        pa = phase_durations(self.a)
        pb = phase_durations(self.b)
        return {
            name: pb.get(name, 0.0) - pa.get(name, 0.0)
            for name in set(pa) | set(pb)
        }

    def energy_deltas(self) -> Dict[str, float]:
        """Per-phase attributed-energy deltas in uJ (B − A), over the
        union of phases carrying energy on either side."""
        ea = phase_energy(self.a)
        eb = phase_energy(self.b)
        return {
            name: eb.get(name, 0.0) - ea.get(name, 0.0)
            for name in set(ea) | set(eb)
        }


def align_traces(
    traces_a: Sequence[Dict[str, Any]],
    traces_b: Sequence[Dict[str, Any]],
) -> Tuple[List[AlignedPair], List[Dict[str, Any]], List[Dict[str, Any]]]:
    """Pair traces across runs by ``(peer, key)`` and issue order.

    Within each ``(peer, key)`` group — one peer re-requesting a key
    produces several traces — both sides are sorted by issue time and
    zipped, so the *n*-th re-request in A meets the *n*-th in B.  The
    pairing is a bijection on the common portion of every group; the
    surplus of the longer side lands in ``only_a`` / ``only_b``.

    Returns ``(pairs, only_a, only_b)``; pairs are ordered by the A
    side's issue time for stable downstream reports.
    """
    groups_a: Dict[Tuple[int, int], List[Dict[str, Any]]] = {}
    for trace in traces_a:
        groups_a.setdefault(_identity(trace), []).append(trace)
    groups_b: Dict[Tuple[int, int], List[Dict[str, Any]]] = {}
    for trace in traces_b:
        groups_b.setdefault(_identity(trace), []).append(trace)

    pairs: List[AlignedPair] = []
    only_a: List[Dict[str, Any]] = []
    only_b: List[Dict[str, Any]] = []
    for identity, group_a in groups_a.items():
        group_a.sort(key=_issue_order)
        group_b = groups_b.pop(identity, [])
        group_b.sort(key=_issue_order)
        common = min(len(group_a), len(group_b))
        pairs.extend(
            AlignedPair(a, b) for a, b in zip(group_a[:common], group_b[:common])
        )
        only_a.extend(group_a[common:])
        only_b.extend(group_b[common:])
    for group_b in groups_b.values():
        group_b.sort(key=_issue_order)
        only_b.extend(group_b)
    pairs.sort(key=lambda p: _issue_order(p.a))
    only_a.sort(key=_issue_order)
    only_b.sort(key=_issue_order)
    return pairs, only_a, only_b


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------

def p95(deltas: Sequence[float]) -> float:
    """Deterministic nearest-rank p95 (no interpolation, no numpy);
    0.0 for an empty sample."""
    if not deltas:
        return 0.0
    ordered = sorted(deltas)
    rank = max(math.ceil(0.95 * len(ordered)), 1)
    return ordered[rank - 1]


@dataclass
class PhaseDelta:
    """Aggregate latency delta of one phase across all aligned pairs."""

    phase: str
    #: Pairs where this phase appears on at least one side.
    pairs: int = 0
    regressed: int = 0
    improved: int = 0
    total_delta: float = 0.0
    #: Averaged over *all* aligned pairs (absent phase = zero delta), so
    #: the per-phase means sum to the end-to-end mean latency delta.
    mean_delta: float = 0.0
    p95_delta: float = 0.0
    max_delta: float = 0.0
    #: Attributed-energy deltas (uJ, B − A); zero when neither export
    #: carries span energy (runs without energy attribution).
    total_energy_delta: float = 0.0
    mean_energy_delta: float = 0.0
    p95_energy_delta: float = 0.0
    #: Fault kinds tagged on this phase's spans, per side.
    faults_a: Dict[str, int] = field(default_factory=dict)
    faults_b: Dict[str, int] = field(default_factory=dict)

    @property
    def rank_key(self) -> Tuple[float, float, int, str]:
        """Sort key, worst latency regression first; protocol phase
        order breaks exact ties so the report (and its golden fixture)
        is fully deterministic."""
        return (-self.p95_delta, -self.total_delta, *self._phase_order())

    @property
    def energy_rank_key(self) -> Tuple[float, float, int, str]:
        """Sort key, worst energy regression first (uJ deltas)."""
        return (-self.p95_energy_delta, -self.total_energy_delta,
                *self._phase_order())

    def _phase_order(self) -> Tuple[int, str]:
        known = (PHASE_ORDER.index(self.phase)
                 if self.phase in PHASE_ORDER else len(PHASE_ORDER))
        return (known, self.phase)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "phase": self.phase,
            "pairs": self.pairs,
            "regressed": self.regressed,
            "improved": self.improved,
            "total_delta_s": _round(self.total_delta),
            "mean_delta_s": _round(self.mean_delta),
            "p95_delta_s": _round(self.p95_delta),
            "max_delta_s": _round(self.max_delta),
            "total_energy_delta_uj": _round(self.total_energy_delta),
            "mean_energy_delta_uj": _round(self.mean_energy_delta),
            "p95_energy_delta_uj": _round(self.p95_energy_delta),
            "faults_a": dict(sorted(self.faults_a.items())),
            "faults_b": dict(sorted(self.faults_b.items())),
        }


def _round(value: float, digits: int = 9) -> float:
    """Stable float for JSON reports (kills last-ulp noise in goldens)."""
    return round(float(value), digits)


def _fmt_faults(tags: Dict[str, int]) -> str:
    return ",".join(f"{kind}x{n}" for kind, n in sorted(tags.items()))


@dataclass
class TraceDiff:
    """The full cross-run comparison; see :func:`diff_traces`."""

    label_a: str
    label_b: str
    count_a: int
    count_b: int
    aligned: int
    only_a: int
    only_b: int
    latency_total: float
    latency_mean: float
    latency_p95: float
    latency_max: float
    #: Total attributed-energy delta (uJ, B − A) over aligned traces.
    energy_total: float
    #: Ranked worst-first by (p95 delta, total delta).
    phases: List[PhaseDelta]
    #: name → (count in A, count in B) over *aligned* traces only, so
    #: the deltas reflect behaviour change, not workload-size change.
    spans_a: Dict[str, int]
    spans_b: Dict[str, int]
    #: ``"<outcome A> -> <outcome B>"`` → count, pairs that changed class.
    outcome_shifts: Dict[str, int]
    #: Fault kinds over whole traces (trace-level tags), per side.
    faults_a: Dict[str, int]
    faults_b: Dict[str, int]

    # -- queries -----------------------------------------------------------

    def regressions(self, min_delta: float = DELTA_EPS) -> List[PhaseDelta]:
        """Phases whose p95 *or* total delta worsened beyond noise."""
        return [
            p for p in self.phases
            if p.p95_delta > min_delta or p.total_delta > min_delta
        ]

    def energy_ranked(self) -> List[PhaseDelta]:
        """Phases ranked worst energy regression first (uJ deltas)."""
        return sorted(self.phases, key=lambda stat: stat.energy_rank_key)

    def energy_regressions(
        self, min_delta: float = DELTA_EPS
    ) -> List[PhaseDelta]:
        """Phases whose attributed energy worsened beyond noise."""
        return [
            p for p in self.energy_ranked()
            if p.p95_energy_delta > min_delta
            or p.total_energy_delta > min_delta
        ]

    @property
    def is_zero(self) -> bool:
        """True iff the two runs are request-for-request identical."""
        return (
            self.only_a == 0
            and self.only_b == 0
            and not self.outcome_shifts
            and all(p.total_delta == 0.0 and p.max_delta == 0.0
                    and p.regressed == 0 and p.improved == 0
                    and p.total_energy_delta == 0.0
                    for p in self.phases)
            and self.latency_total == 0.0
            and self.energy_total == 0.0
            and self.spans_a == self.spans_b
        )

    def span_deltas(self) -> Dict[str, int]:
        names = set(self.spans_a) | set(self.spans_b)
        return {
            name: self.spans_b.get(name, 0) - self.spans_a.get(name, 0)
            for name in sorted(names)
        }

    # -- serialization -----------------------------------------------------

    def to_json_dict(self) -> Dict[str, Any]:
        return {
            "label_a": self.label_a,
            "label_b": self.label_b,
            "traces": {
                "a": self.count_a,
                "b": self.count_b,
                "aligned": self.aligned,
                "only_a": self.only_a,
                "only_b": self.only_b,
            },
            "latency": {
                "total_delta_s": _round(self.latency_total),
                "mean_delta_s": _round(self.latency_mean),
                "p95_delta_s": _round(self.latency_p95),
                "max_delta_s": _round(self.latency_max),
            },
            "energy": {
                "total_delta_uj": _round(self.energy_total),
                "ranked_phases": [
                    {
                        "phase": p.phase,
                        "total_energy_delta_uj":
                            _round(p.total_energy_delta),
                        "mean_energy_delta_uj":
                            _round(p.mean_energy_delta),
                        "p95_energy_delta_uj":
                            _round(p.p95_energy_delta),
                    }
                    for p in self.energy_ranked()
                ],
            },
            "phases": [p.to_dict() for p in self.phases],
            "spans": {
                name: {
                    "a": self.spans_a.get(name, 0),
                    "b": self.spans_b.get(name, 0),
                    "delta": delta,
                }
                for name, delta in self.span_deltas().items()
            },
            "outcome_shifts": dict(sorted(self.outcome_shifts.items())),
            "faults": {
                "a": dict(sorted(self.faults_a.items())),
                "b": dict(sorted(self.faults_b.items())),
            },
        }

    def write_json(self, path) -> None:
        from repro.obs.export import export_path

        export_path(path).write_text(
            json.dumps(self.to_json_dict(), indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )

    def render(self, top: int = 0) -> str:
        """The ranked text report (``top`` limits listed phases; 0 = all)."""
        lines: List[str] = []
        add = lines.append
        add(f"trace diff: {self.label_a} ({self.count_a} traces) -> "
            f"{self.label_b} ({self.count_b} traces)")
        add(f"aligned {self.aligned} request(s) by (peer, key, issue order); "
            f"{self.only_a} only in {self.label_a}, "
            f"{self.only_b} only in {self.label_b}")
        if not self.aligned:
            add("nothing aligned: no common (peer, key) identities")
            return "\n".join(lines)
        add(f"end-to-end latency delta: total {self.latency_total:+.4f}s, "
            f"mean {self.latency_mean:+.4f}s, p95 {self.latency_p95:+.4f}s, "
            f"max {self.latency_max:+.4f}s")

        regressions = self.regressions()
        if regressions:
            worst = regressions[0]
            blame = _fmt_faults(worst.faults_b)
            add(f"worst regression: {worst.phase} added "
                f"{worst.p95_delta:+.4f}s p95"
                + (f" (faults in {self.label_b}: {blame})" if blame else ""))
        else:
            add("no phase regressions beyond noise")

        add("")
        add("ranked phases (worst p95 delta first):")
        listed = self.phases[:top] if top > 0 else self.phases
        for rank, p in enumerate(listed, start=1):
            faults = _fmt_faults(p.faults_b)
            add(f"  {rank}. {p.phase:<15} p95 {p.p95_delta:+9.4f}s  "
                f"mean {p.mean_delta:+9.4f}s  total {p.total_delta:+9.4f}s  "
                f"regressed {p.regressed}/{p.pairs}"
                + (f"  faults[{self.label_b}]: {faults}" if faults else ""))

        energy_phases = [p for p in self.energy_ranked()
                         if p.total_energy_delta != 0.0
                         or p.p95_energy_delta != 0.0]
        if energy_phases:
            add("")
            add(f"attributed energy delta: total "
                f"{self.energy_total:+.1f} uJ")
            add("ranked phases by energy (worst p95 delta first):")
            for rank, p in enumerate(energy_phases, start=1):
                add(f"  {rank}. {p.phase:<15} "
                    f"p95 {p.p95_energy_delta:+11.1f} uJ  "
                    f"mean {p.mean_energy_delta:+11.1f} uJ  "
                    f"total {p.total_energy_delta:+11.1f} uJ")

        deltas = {n: d for n, d in self.span_deltas().items() if d != 0}
        if deltas:
            add("")
            add("span-count deltas (aligned traces):")
            for name in sorted(deltas, key=lambda n: -abs(deltas[n])):
                add(f"  {name:<20} {self.spans_a.get(name, 0):>7} -> "
                    f"{self.spans_b.get(name, 0):>7}  ({deltas[name]:+d})")

        if self.outcome_shifts:
            add("")
            total_shifted = sum(self.outcome_shifts.values())
            add(f"outcome shifts ({total_shifted} request(s) changed class):")
            for shift, count in sorted(
                self.outcome_shifts.items(), key=lambda kv: (-kv[1], kv[0])
            ):
                add(f"  {shift:<28} x{count}")
        return "\n".join(lines)


def diff_traces(
    traces_a: Iterable[Dict[str, Any]],
    traces_b: Iterable[Dict[str, Any]],
    label_a: str = "A",
    label_b: str = "B",
) -> TraceDiff:
    """Compare two trace exports (lists of ``Trace.to_dict`` dicts)."""
    traces_a = list(traces_a)
    traces_b = list(traces_b)
    pairs, only_a, only_b = align_traces(traces_a, traces_b)

    latency_deltas = [p.latency_delta for p in pairs]
    per_phase_deltas: Dict[str, List[float]] = {}
    per_phase_energy: Dict[str, List[float]] = {}
    phase_stats: Dict[str, PhaseDelta] = {}
    spans_a: Counter = Counter()
    spans_b: Counter = Counter()
    outcome_shifts: Counter = Counter()
    faults_a: Counter = Counter()
    faults_b: Counter = Counter()

    for pair in pairs:
        spans_a.update(span_counts(pair.a))
        spans_b.update(span_counts(pair.b))
        faults_a.update(pair.a.get("faults") or ())
        faults_b.update(pair.b.get("faults") or ())
        out_a = pair.a.get("outcome")
        out_b = pair.b.get("outcome")
        if out_a != out_b:
            outcome_shifts[f"{out_a} -> {out_b}"] += 1
        tags_a = phase_fault_tags(pair.a)
        tags_b = phase_fault_tags(pair.b)
        for phase, delta in pair.phase_deltas().items():
            stat = phase_stats.get(phase)
            if stat is None:
                stat = phase_stats[phase] = PhaseDelta(phase)
            stat.pairs += 1
            stat.total_delta += delta
            if delta > DELTA_EPS:
                stat.regressed += 1
            elif delta < -DELTA_EPS:
                stat.improved += 1
            per_phase_deltas.setdefault(phase, []).append(delta)
        for phase, delta in pair.energy_deltas().items():
            stat = phase_stats.setdefault(phase, PhaseDelta(phase))
            stat.total_energy_delta += delta
            per_phase_energy.setdefault(phase, []).append(delta)
        for phase, tags in tags_a.items():
            stat = phase_stats.setdefault(phase, PhaseDelta(phase))
            for kind, n in tags.items():
                stat.faults_a[kind] = stat.faults_a.get(kind, 0) + n
        for phase, tags in tags_b.items():
            stat = phase_stats.setdefault(phase, PhaseDelta(phase))
            for kind, n in tags.items():
                stat.faults_b[kind] = stat.faults_b.get(kind, 0) + n

    aligned = len(pairs)
    for phase, stat in phase_stats.items():
        deltas = per_phase_deltas.get(phase, [])
        stat.mean_delta = stat.total_delta / aligned if aligned else 0.0
        stat.p95_delta = p95(deltas)
        stat.max_delta = max(deltas, default=0.0)
        stat.mean_energy_delta = (
            stat.total_energy_delta / aligned if aligned else 0.0
        )
        stat.p95_energy_delta = p95(per_phase_energy.get(phase, []))

    ranked = sorted(phase_stats.values(), key=lambda stat: stat.rank_key)

    return TraceDiff(
        label_a=label_a,
        label_b=label_b,
        count_a=len(traces_a),
        count_b=len(traces_b),
        aligned=aligned,
        only_a=len(only_a),
        only_b=len(only_b),
        latency_total=sum(latency_deltas),
        latency_mean=sum(latency_deltas) / aligned if aligned else 0.0,
        latency_p95=p95(latency_deltas),
        latency_max=max(latency_deltas, default=0.0),
        energy_total=sum(
            stat.total_energy_delta for stat in phase_stats.values()
        ),
        phases=ranked,
        spans_a=dict(sorted(spans_a.items())),
        spans_b=dict(sorted(spans_b.items())),
        outcome_shifts=dict(outcome_shifts),
        faults_a=dict(faults_a),
        faults_b=dict(faults_b),
    )


def diff_files(
    path_a, path_b,
    label_a: Optional[str] = None,
    label_b: Optional[str] = None,
) -> TraceDiff:
    """Diff two ``Tracer.to_jsonl`` exports on disk."""
    return diff_traces(
        load_traces(path_a),
        load_traces(path_b),
        label_a=label_a or Path(path_a).name,
        label_b=label_b or Path(path_b).name,
    )
