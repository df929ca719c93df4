"""The campaign executor: journaled, resumable run-graph execution.

:func:`execute_graph` drives one pass of a campaign:

1. **Verify** — every job with a committed artifact is digest-verified
   (:func:`~repro.experiments.orchestrator.artifacts.verify_artifact`).
   Verified artifacts are *reused* (journalled as ``reuse``); stale or
   corrupted ones are journalled (``stale``) and re-queued.  Resume is
   therefore just "execute the same graph at the same root again".
2. **Run** — the pending jobs stream through the runner in graph
   order; each transition lands in the journal (``start``/``done``/
   ``fail``) the moment it happens, and completed artifacts are
   committed by the workers themselves, so a kill at any instant loses
   at most the jobs in flight.
3. **Report** — per-job progress rows and failure events go to an
   optional :class:`~repro.obs.stream.TelemetryBus` (the same bus the
   live ``--watch`` dashboard and ``repro watch`` consume), with
   ``t = resolved jobs`` against ``duration = total jobs`` so progress
   bars and ETA come for free.

``max_jobs`` truncates the pending jobs this pass runs, so the pass
stops early (journalled as an interrupted ``end``) — the deterministic
interrupt hook the crash-and-resume tests and the CI
kill-and-resume smoke are built on.

:func:`run_graph` is the one-call form every multi-run caller (figures,
examples) uses: graph in, ``{job_id: report}`` out.
"""

from __future__ import annotations

import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Union

from repro.analysis.metrics import RunReport
from repro.experiments.orchestrator.artifacts import verify_artifact
from repro.experiments.orchestrator.graph import RunGraph
from repro.experiments.orchestrator.journal import Journal
from repro.experiments.orchestrator.runtime import (
    InProcessRunner,
    PoolRunner,
    make_runner,
)
from repro.experiments.orchestrator.worker import JobResult

__all__ = ["CampaignSummary", "execute_graph", "run_graph"]

PathLike = Union[str, Path]

#: Final job statuses, by outcome.
_SUCCESS = ("done", "reused")
_FAILURE = ("failed", "crashed", "timeout")


@dataclass
class CampaignSummary:
    """Outcome of one :func:`execute_graph` pass."""

    name: str
    #: job_id -> "done" | "reused" | "failed" | "crashed" | "timeout"
    #: | "pending"
    statuses: Dict[str, str] = field(default_factory=dict)
    #: Reports of every successful job (fresh or verified-reused).
    reports: Dict[str, RunReport] = field(default_factory=dict)
    #: Report digests of every successful job.
    report_digests: Dict[str, str] = field(default_factory=dict)
    #: Error strings of failed jobs.
    errors: Dict[str, str] = field(default_factory=dict)
    #: True when this pass stopped early (``max_jobs`` reached).
    interrupted: bool = False

    def count(self, *statuses: str) -> int:
        return sum(1 for s in self.statuses.values() if s in statuses)

    @property
    def n_done(self) -> int:
        return self.count("done")

    @property
    def n_reused(self) -> int:
        return self.count("reused")

    @property
    def n_failed(self) -> int:
        return self.count(*_FAILURE)

    @property
    def n_pending(self) -> int:
        return self.count("pending")

    @property
    def ok(self) -> bool:
        """Every job succeeded (fresh or reused)."""
        return all(s in _SUCCESS for s in self.statuses.values())

    def describe(self) -> str:
        parts = [
            f"campaign {self.name!r}: {len(self.statuses)} job(s) — "
            f"{self.n_done} run, {self.n_reused} reused, "
            f"{self.n_failed} failed, {self.n_pending} pending"
        ]
        if self.interrupted:
            parts.append(" (interrupted)")
        return "".join(parts)


def execute_graph(
    graph: RunGraph,
    runner: Union[InProcessRunner, PoolRunner],
    root: PathLike,
    *,
    name: str = "campaign",
    bus=None,
    max_jobs: Optional[int] = None,
) -> CampaignSummary:
    """Run (or resume) a campaign graph at ``root``; see module docs."""
    if max_jobs is not None and max_jobs < 0:
        raise ValueError(f"max_jobs must be >= 0, got {max_jobs}")
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    summary = CampaignSummary(name=name)
    started_wall = time.monotonic()

    with Journal(root / "journal.jsonl") as journal:
        journal.begin(name, len(graph))

        # -- 1. verify committed artifacts; reuse what survives --------
        pending: List[str] = []
        for spec in graph:
            check = verify_artifact(root, spec)
            if check.ok:
                journal.reuse(spec.job_id, check.report_digest)
                summary.statuses[spec.job_id] = "reused"
                summary.reports[spec.job_id] = check.report
                summary.report_digests[spec.job_id] = check.report_digest
            else:
                if check.completed:
                    # A commit landed but no longer verifies: stale
                    # spec, tampered report, torn write.  Re-run it.
                    journal.stale(spec.job_id, f"{check.status}: {check.detail}")
                summary.statuses[spec.job_id] = "pending"
                pending.append(spec.job_id)

        def _publish(kind: Optional[str] = None, payload: Optional[dict] = None):
            if bus is None:
                return
            resolved = len(graph) - summary.count("pending")
            row = {
                "campaign.total": float(len(graph)),
                "campaign.done": float(summary.n_done),
                "campaign.reused": float(summary.n_reused),
                "campaign.failed": float(summary.n_failed),
                "campaign.pending": float(summary.count("pending")),
                "campaign.wall_s": time.monotonic() - started_wall,
            }
            bus.publish(float(resolved), row)
            if kind is not None:
                bus.publish_event(float(resolved), kind, payload or {})

        _publish()

        # -- 2. stream the pending jobs through the runner --------------
        stream = runner.run(
            [graph[jid] for jid in pending[:max_jobs]], root,
            on_start=lambda spec: journal.start(spec.job_id),
        )
        try:
            for result in stream:
                _record(result, journal, summary)
                if result.status in _FAILURE:
                    _publish(
                        "job-" + result.status,
                        {"rule": f"{result.job_id} {result.status}",
                         "error": (result.error or "")[:200]},
                    )
                else:
                    _publish()
        finally:
            stream.close()

        summary.interrupted = summary.n_pending > 0
        journal.end(
            done=summary.n_done,
            failed=summary.n_failed,
            reused=summary.n_reused,
            interrupted=summary.interrupted,
        )
        _publish()
    return summary


def _record(
    result: JobResult, journal: Journal, summary: CampaignSummary
) -> None:
    """Fold one runner result into the journal and summary."""
    if result.status == "done":
        journal.done(result.job_id, result.report_digest, result.wall_s)
        summary.reports[result.job_id] = result.report
        summary.report_digests[result.job_id] = result.report_digest
    else:
        journal.fail(result.job_id, result.status, result.error or "")
        summary.errors[result.job_id] = result.error or result.status
    summary.statuses[result.job_id] = result.status


def run_graph(
    graph: RunGraph,
    processes: Optional[int] = 1,
    root: Optional[PathLike] = None,
) -> Dict[str, RunReport]:
    """Run every job of ``graph``; return ``{job_id: report}``.

    ``processes`` picks the runner through :func:`make_runner`: 1 runs
    in-process, more through a :class:`PoolRunner` of that width
    (``None`` = CPU count), and fewer raises ``ValueError``.  With a
    ``root`` the journal and artifact tree are kept there, so calling
    again digest-verifies and reuses what is already done; without one
    they land in a throwaway directory.  A job that fails raises
    ``RuntimeError`` naming every failed job — after the surviving
    jobs' artifacts were committed.
    """
    runner = make_runner(processes)
    with tempfile.TemporaryDirectory(prefix="repro-graph-") as tmp:
        summary = execute_graph(graph, runner, tmp if root is None else root)
    if summary.errors:
        failures = "; ".join(
            f"{job}: {summary.statuses[job]} — {error.splitlines()[0]}"
            for job, error in sorted(summary.errors.items())
        )
        raise RuntimeError(f"{len(summary.errors)} job(s) failed — {failures}")
    return summary.reports
