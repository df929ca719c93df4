"""The campaign journal: an append-only JSONL log of job transitions.

Every state change of a campaign — job started, finished, failed,
reused from a verified artifact, invalidated as stale — is appended to
``journal.jsonl`` in the campaign directory, flushed and fsynced per
record so a SIGKILL loses at most the line being written.  Resume
replays the journal (tolerating a torn final line) to learn where the
campaign stood; the journal is also the audit trail the resume property
tests count events in ("no job executed twice" is literally "one
``start`` record per job across all journal segments").

Record grammar (one JSON object per line)::

    {"event": "begin", "campaign": ..., "jobs": N, "wall": ...}
    {"event": "start", "job": ID, "wall": ...}
    {"event": "done",  "job": ID, "report_digest": ..., "wall_s": ...}
    {"event": "fail",  "job": ID, "status": "failed|crashed|timeout",
                       "error": ...}
    {"event": "reuse", "job": ID, "report_digest": ...}
    {"event": "stale", "job": ID, "reason": "stale-spec|corrupt-report|..."}
    {"event": "end",   "done": D, "failed": F, "reused": R,
                       "interrupted": bool, "wall": ...}

Wall-clock timestamps are operational metadata only — nothing digestable
derives from them.
"""

from __future__ import annotations

import json
import os
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

__all__ = ["Journal", "JournalState", "replay_journal"]

PathLike = Union[str, Path]

#: Events that set a job's current state (latest wins on replay).
_JOB_EVENTS = ("start", "done", "fail", "reuse", "stale")


class Journal:
    """Append-only writer over a campaign's ``journal.jsonl``."""

    def __init__(self, path: PathLike):
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._fh = open(self.path, "a", encoding="utf-8")
        self.records_written = 0

    def append(self, event: str, **fields: Any) -> None:
        """Write one record durably (flush + fsync)."""
        record = {"event": event, **fields}
        self._fh.write(json.dumps(record, sort_keys=True) + "\n")
        self._fh.flush()
        os.fsync(self._fh.fileno())
        self.records_written += 1

    # -- convenience wrappers (the full grammar in one place) -------------

    def begin(self, campaign: str, jobs: int) -> None:
        self.append("begin", campaign=campaign, jobs=jobs, wall=time.time())

    def start(self, job_id: str) -> None:
        self.append("start", job=job_id, wall=time.time())

    def done(self, job_id: str, report_digest: str, wall_s: float) -> None:
        self.append("done", job=job_id, report_digest=report_digest,
                    wall_s=wall_s)

    def fail(self, job_id: str, status: str, error: str) -> None:
        self.append("fail", job=job_id, status=status, error=error)

    def reuse(self, job_id: str, report_digest: str) -> None:
        self.append("reuse", job=job_id, report_digest=report_digest)

    def stale(self, job_id: str, reason: str) -> None:
        self.append("stale", job=job_id, reason=reason)

    def end(self, done: int, failed: int, reused: int,
            interrupted: bool) -> None:
        self.append("end", done=done, failed=failed, reused=reused,
                    interrupted=interrupted, wall=time.time())

    def close(self) -> None:
        if not self._fh.closed:
            self._fh.close()

    def __enter__(self) -> "Journal":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


@dataclass
class JournalState:
    """What a journal replay knows about a campaign."""

    #: Latest state-setting event per job (``start``/``done``/...).
    job_state: Dict[str, str] = field(default_factory=dict)
    #: Per-job count of each event kind (``counts[job]["start"]``).
    counts: Dict[str, Counter] = field(default_factory=dict)
    #: Report digest recorded by the latest ``done``/``reuse`` per job.
    report_digests: Dict[str, str] = field(default_factory=dict)
    #: Every parsed record, in order.
    records: List[Dict[str, Any]] = field(default_factory=list)
    #: Lines that failed to parse (a torn tail write is expected after
    #: a crash; more than one is suspicious).
    torn_lines: int = 0

    def event_count(self, event: str, job_id: Optional[str] = None) -> int:
        """Total occurrences of one event kind (optionally per job)."""
        if job_id is not None:
            return self.counts.get(job_id, Counter())[event]
        return sum(c[event] for c in self.counts.values())

    @property
    def started_jobs(self) -> List[str]:
        return sorted(j for j, c in self.counts.items() if c["start"])

    @property
    def ended(self) -> bool:
        return bool(self.records) and self.records[-1]["event"] == "end"


def replay_journal(path: PathLike) -> JournalState:
    """Rebuild campaign state from a journal file.

    Missing file → empty state (a fresh campaign).  A torn final line —
    the expected residue of a mid-write kill — is counted, not fatal.
    """
    state = JournalState()
    path = Path(path)
    if not path.exists():
        return state
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                state.torn_lines += 1
                continue
            if not isinstance(record, dict) or "event" not in record:
                state.torn_lines += 1
                continue
            state.records.append(record)
            event = record["event"]
            job_id = record.get("job")
            if job_id is not None:
                state.counts.setdefault(job_id, Counter())[event] += 1
                if event in _JOB_EVENTS:
                    state.job_state[job_id] = event
                if event in ("done", "reuse") and "report_digest" in record:
                    state.report_digests[job_id] = record["report_digest"]
    return state
