"""Job execution: entry resolution and the in-worker commit path.

Every runner — in-process or pool worker — funnels through
:func:`execute_job`: resolve the spec's entry point, run it, and
**commit the artifact from inside the worker** the moment the report
exists.  Committing in the worker (not the orchestrator)
means a campaign killed between a job finishing and the orchestrator
noticing still finds the completed artifact on resume.

Entry points are module-level functions named ``"module.path:function"``
with the signature ``fn(config, artifact_dir) -> RunReport``.  The
string form serializes (JSON in each job's ``spec.json``,
pickle-by-reference for process pools under any start method);
``artifact_dir`` lets entries park extra artifacts (trace exports,
custom metrics) next to the committed report.
"""

from __future__ import annotations

import importlib
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional, Union

from repro.analysis.metrics import RunReport
from repro.config import SimulationConfig
from repro.experiments.orchestrator.artifacts import commit_artifact, job_dir
from repro.experiments.orchestrator.spec import JobSpec

__all__ = ["JobResult", "execute_job", "resolve_entry", "run_simulation"]


def run_simulation(cfg: SimulationConfig, artifact_dir: Path) -> RunReport:
    """The default entry: one full PReCinCt simulation."""
    from repro.core.network import PReCinCtNetwork

    return PReCinCtNetwork(cfg).run()


def resolve_entry(entry: str) -> Callable[[SimulationConfig, Path], RunReport]:
    """Import ``"module.path:function"`` and return the callable."""
    module_name, _, func_name = entry.partition(":")
    if not module_name or not func_name:
        raise ValueError(f"entry must be 'module.path:function', got {entry!r}")
    module = importlib.import_module(module_name)
    try:
        fn = getattr(module, func_name)
    except AttributeError:
        raise ValueError(
            f"entry {entry!r}: module {module_name!r} has no attribute "
            f"{func_name!r}"
        ) from None
    if not callable(fn):
        raise ValueError(f"entry {entry!r} is not callable")
    return fn


@dataclass(frozen=True)
class JobResult:
    """Outcome of one job attempt."""

    job_id: str
    #: "done" | "failed" | "crashed" | "timeout"
    status: str
    report: Optional[RunReport] = None
    report_digest: Optional[str] = None
    error: Optional[str] = None
    wall_s: float = 0.0

    @property
    def ok(self) -> bool:
        return self.status == "done"


def execute_job(spec: JobSpec, root: Union[str, Path]) -> JobResult:
    """Run one job and commit its artifact; exceptions become results.

    An entry that raises yields ``status="failed"`` (the error string
    carries the traceback tail) and commits nothing, so resume retries
    it.  Only a successful run commits ``result.json``.
    """
    started = time.monotonic()
    directory = job_dir(root, spec.job_id)
    directory.mkdir(parents=True, exist_ok=True)
    try:
        fn = resolve_entry(spec.entry)
        report = fn(spec.config, directory)
        if not isinstance(report, RunReport):
            raise TypeError(
                f"entry {spec.entry!r} returned {type(report).__name__}, "
                f"expected RunReport"
            )
        wall_s = time.monotonic() - started
        digest = commit_artifact(root, spec, report, wall_s)
        return JobResult(
            spec.job_id, "done", report=report, report_digest=digest,
            wall_s=wall_s,
        )
    except Exception as exc:  # noqa: BLE001 — containment is the point
        tail = traceback.format_exc(limit=8)
        return JobResult(
            spec.job_id, "failed",
            error=f"{type(exc).__name__}: {exc}\n{tail}",
            wall_s=time.monotonic() - started,
        )


def _pool_job_main(spec: JobSpec, root: str, queue) -> None:
    """Child-process main for :class:`PoolRunner` (one job per child)."""
    result = execute_job(spec, root)
    # The report is already durably committed by execute_job; send the
    # parent a light summary so a torn pipe can't lose work.
    queue.put(
        {
            "job_id": result.job_id,
            "status": result.status,
            "report_digest": result.report_digest,
            "error": result.error,
            "wall_s": result.wall_s,
        }
    )
