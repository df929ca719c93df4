"""Campaign orchestrator: a parallel, resumable run-graph runtime.

The paper's figures are sweeps — (scenario × seed × policy) grids of
independent simulations.  This package turns such a grid into a
:class:`RunGraph`, a flat, insertion-ordered list of independent
:class:`JobSpec` s, executed in-process or by a contained process pool
(:func:`make_runner` picks which), with:

* per-job artifact directories committed atomically the moment a job
  finishes (``jobs/<id>/{spec,report,result}.json``);
* a JSONL journal of every state transition, so a killed campaign
  resumes from where it stood;
* digest verification of completed artifacts on resume — stale or
  corrupted results are re-run, never silently trusted;
* live progress on the standard :class:`~repro.obs.stream.TelemetryBus`
  (``repro campaign run --watch`` / ``repro watch``).

See ``docs/EXPERIMENTS.md`` for the two runners, journal format,
artifact layout, and resume/verify semantics.
"""

from repro.experiments.orchestrator.artifacts import (
    ArtifactCheck,
    commit_artifact,
    job_dir,
    load_artifact_report,
    verify_artifact,
)
from repro.experiments.orchestrator.executor import (
    CampaignSummary,
    execute_graph,
    run_graph,
)
from repro.experiments.orchestrator.graph import RunGraph
from repro.experiments.orchestrator.journal import (
    Journal,
    JournalState,
    replay_journal,
)
from repro.experiments.orchestrator.presets import (
    PRESETS,
    build_preset,
    definition_graph,
    definition_seeds,
    load_definition,
    save_definition,
)
from repro.experiments.orchestrator.runtime import (
    InProcessRunner,
    PoolRunner,
    make_runner,
)
from repro.experiments.orchestrator.spec import (
    DEFAULT_ENTRY,
    JobSpec,
    config_from_dict,
    config_to_dict,
    slugify,
    spec_digest,
)
from repro.experiments.orchestrator.worker import (
    JobResult,
    execute_job,
    resolve_entry,
    run_simulation,
)

__all__ = [
    "ArtifactCheck",
    "CampaignSummary",
    "DEFAULT_ENTRY",
    "InProcessRunner",
    "JobResult",
    "JobSpec",
    "Journal",
    "JournalState",
    "PRESETS",
    "PoolRunner",
    "RunGraph",
    "build_preset",
    "commit_artifact",
    "config_from_dict",
    "config_to_dict",
    "definition_graph",
    "definition_seeds",
    "execute_graph",
    "execute_job",
    "job_dir",
    "load_artifact_report",
    "load_definition",
    "make_runner",
    "replay_journal",
    "save_definition",
    "resolve_entry",
    "run_graph",
    "run_simulation",
    "slugify",
    "spec_digest",
    "verify_artifact",
]
