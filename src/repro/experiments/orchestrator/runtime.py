"""The two runners: who actually executes a campaign's jobs.

A runner's ``run(jobs, root, on_start)`` takes a batch of
:class:`JobSpec` s and an artifact root and lazily yields one
:class:`JobResult` per job *as jobs complete* (not in submission
order).  ``on_start`` is invoked in the orchestrator process right
before a job begins (the journal's ``start`` hook), and closing the
iterator early releases any live workers.  The orchestrator journals
transitions around that stream; the runners own process management
only.

* :class:`InProcessRunner` — sequential, same process.  Zero isolation,
  zero overhead; the debugger/profiler runtime.
* :class:`PoolRunner` — one worker **process per job**, at most
  ``processes`` alive at once.  A runner-wide wall-clock timeout and
  full crash containment: a job that raises, a worker that dies
  (OOM-kill, SIGKILL, segfault), or a job that overruns the timeout
  marks *that job* failed/crashed/timeout and the pool keeps serving
  the rest — there is no shared executor to break.  Each worker commits
  its own artifact before reporting back, so even the orchestrator
  dying right after a job finishes loses nothing.

:func:`make_runner` is the one place that chooses between them.
"""

from __future__ import annotations

import multiprocessing
import time
from pathlib import Path
from typing import Callable, Iterator, Optional, Sequence, Union

from repro.experiments.orchestrator.artifacts import load_artifact_report
from repro.experiments.orchestrator.spec import JobSpec
from repro.experiments.orchestrator.worker import (
    JobResult,
    _pool_job_main,
    execute_job,
)

__all__ = ["InProcessRunner", "PoolRunner", "make_runner"]

PathLike = Union[str, Path]
OnStart = Optional[Callable[[JobSpec], None]]

#: Seconds the pool sleeps between scans of its live workers.
POLL_INTERVAL = 0.02
#: Seconds a terminated worker gets to exit before it is killed.
TERM_GRACE = 5.0


class InProcessRunner:
    """Sequential execution in the orchestrator process."""

    def run(
        self,
        jobs: Sequence[JobSpec],
        root: PathLike,
        on_start: OnStart = None,
    ) -> Iterator[JobResult]:
        for spec in jobs:
            if on_start is not None:
                on_start(spec)
            yield execute_job(spec, root)


class PoolRunner:
    """One contained worker process per job, bounded concurrency."""

    def __init__(
        self,
        processes: Optional[int] = None,
        timeout: Optional[float] = None,
    ):
        if processes is not None and processes < 1:
            raise ValueError(f"processes must be >= 1, got {processes}")
        if timeout is not None and timeout <= 0:
            raise ValueError(f"timeout must be positive, got {timeout}")
        self.processes = processes or multiprocessing.cpu_count()
        #: Wall-clock seconds any one job may run (None = no cap).
        self.timeout = timeout

    def run(
        self,
        jobs: Sequence[JobSpec],
        root: PathLike,
        on_start: OnStart = None,
    ) -> Iterator[JobResult]:
        pending = list(jobs)
        pending.reverse()  # pop() from the front of submission order
        active = {}  # proc -> (spec, queue, started_monotonic)
        try:
            while pending or active:
                while pending and len(active) < self.processes:
                    spec = pending.pop()
                    queue = multiprocessing.SimpleQueue()
                    proc = multiprocessing.Process(
                        target=_pool_job_main,
                        args=(spec, str(root), queue),
                        name=f"repro-job-{spec.job_id}",
                    )
                    if on_start is not None:
                        on_start(spec)
                    proc.start()
                    active[proc] = (spec, queue, time.monotonic())
                result = self._poll_active(active, root)
                if result is not None:
                    yield result
                else:
                    time.sleep(POLL_INTERVAL)
        finally:
            for proc, (spec, queue, _) in active.items():
                self._reap(proc)
                queue.close()

    # -- internals --------------------------------------------------------

    def _poll_active(self, active, root: PathLike) -> Optional[JobResult]:
        """Harvest at most one finished/overrun worker from ``active``."""
        now = time.monotonic()
        for proc in list(active):
            spec, queue, started = active[proc]
            # A worker that reported is done regardless of liveness —
            # check the queue before the process to close the race
            # between its final write and its exit.
            if not queue.empty():
                payload = queue.get()
                proc.join()
                queue.close()
                del active[proc]
                return self._from_payload(spec, payload, root)
            if not proc.is_alive():
                proc.join()
                queue.close()
                del active[proc]
                return JobResult(
                    spec.job_id, "crashed",
                    error=(
                        f"worker died without reporting "
                        f"(exitcode {proc.exitcode})"
                    ),
                    wall_s=now - started,
                )
            if self.timeout is not None and now - started > self.timeout:
                self._reap(proc)
                queue.close()
                del active[proc]
                return JobResult(
                    spec.job_id, "timeout",
                    error=f"exceeded per-job timeout of {self.timeout:g}s",
                    wall_s=now - started,
                )
        return None

    def _from_payload(self, spec: JobSpec, payload, root: PathLike) -> JobResult:
        if payload["status"] == "done":
            # The worker committed the artifact; read the report back
            # rather than piping it (keeps the IPC payload tiny and the
            # artifact the single source of truth).
            report = load_artifact_report(root, spec.job_id)
            return JobResult(
                spec.job_id, "done", report=report,
                report_digest=payload["report_digest"],
                wall_s=payload["wall_s"],
            )
        return JobResult(
            spec.job_id, payload["status"], error=payload.get("error"),
            wall_s=payload.get("wall_s", 0.0),
        )

    def _reap(self, proc) -> None:
        """Terminate (then kill) one worker process."""
        if proc.is_alive():
            proc.terminate()
            proc.join(TERM_GRACE)
            if proc.is_alive():  # pragma: no cover - stuck in a syscall
                proc.kill()
                proc.join()
        else:
            proc.join()


def make_runner(
    processes: Optional[int] = None, timeout: Optional[float] = None
) -> Union[InProcessRunner, PoolRunner]:
    """The runner for ``processes`` workers (None = CPU count).

    One process and no timeout runs in-process; anything else needs a
    :class:`PoolRunner`, which rejects ``processes < 1`` and a
    non-positive ``timeout`` with ``ValueError``.
    """
    if processes == 1 and timeout is None:
        return InProcessRunner()
    return PoolRunner(processes, timeout)
