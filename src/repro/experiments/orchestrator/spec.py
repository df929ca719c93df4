"""Job specifications: the serializable unit of campaign work.

A :class:`JobSpec` names one simulation cell of a campaign — a
:class:`~repro.config.SimulationConfig` and an *entry point* (the
module-level function that executes the config).  Specs are frozen,
picklable (so they cross into pool workers), and JSON-serializable (so
each job's artifact directory records exactly what produced it).

Two digests anchor the resume machinery:

* :func:`spec_digest` fingerprints the identity of a job (id, entry
  point and full config).  A completed artifact whose recorded spec
  digest no longer matches the graph's spec is **stale** — the campaign
  definition changed under it — and is re-run on resume rather than
  silently trusted.
* the report digest (:func:`repro.faults.audit.report_digest`) of the
  finished :class:`~repro.analysis.metrics.RunReport`, recorded next to
  the report so resume can detect a corrupted or hand-edited artifact.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import asdict, dataclass
from typing import Any, Dict, Mapping

from repro.config import SimulationConfig
from repro.faults.plan import FaultPlan

__all__ = [
    "DEFAULT_ENTRY",
    "JobSpec",
    "config_from_dict",
    "config_to_dict",
    "slugify",
    "spec_digest",
]

#: The standard entry point: build, run, and report one PReCinCt
#: simulation (``repro.experiments.orchestrator.worker.run_simulation``).
DEFAULT_ENTRY = "repro.experiments.orchestrator.worker:run_simulation"

#: Characters allowed in a job id (it names a directory).
_ID_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._+-]*$")


def slugify(label: str) -> str:
    """Collapse an arbitrary cell label into a filesystem-safe job id."""
    slug = re.sub(r"[^A-Za-z0-9._+-]+", "-", label).strip("-.")
    return slug or "job"


def config_to_dict(cfg: SimulationConfig) -> Dict[str, Any]:
    """Plain-JSON form of a config (nested fault plan included)."""
    data = asdict(cfg)
    if cfg.fault_plan is not None:
        data["fault_plan"] = cfg.fault_plan.to_dict()
    return data


def config_from_dict(data: Mapping[str, Any]) -> SimulationConfig:
    """Inverse of :func:`config_to_dict` (validates via the dataclass)."""
    kwargs = dict(data)
    unknown = set(kwargs) - set(SimulationConfig.__dataclass_fields__)
    if unknown:
        raise ValueError(
            f"unknown SimulationConfig field(s): {', '.join(sorted(unknown))}"
        )
    if kwargs.get("fault_plan") is not None:
        kwargs["fault_plan"] = FaultPlan.from_dict(kwargs["fault_plan"])
    return SimulationConfig(**kwargs)


@dataclass(frozen=True)
class JobSpec:
    """One independent job of a campaign."""

    #: Unique, filesystem-safe id (names the job's artifact directory).
    job_id: str
    #: The simulation this job runs.
    config: SimulationConfig
    #: ``"module.path:function"`` executed as ``fn(config, artifact_dir)
    #: -> RunReport``.  Must be module-level (picklable by reference).
    entry: str = DEFAULT_ENTRY

    def __post_init__(self) -> None:
        if not _ID_RE.match(self.job_id):
            raise ValueError(
                f"invalid job id {self.job_id!r} (allowed: letters, digits, "
                f"'.', '_', '+', '-'; must not start with a separator)"
            )
        if ":" not in self.entry:
            raise ValueError(
                f"entry must be 'module.path:function', got {self.entry!r}"
            )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "job_id": self.job_id,
            "entry": self.entry,
            "config": config_to_dict(self.config),
            "spec_digest": spec_digest(self),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "JobSpec":
        return cls(
            job_id=data["job_id"],
            config=config_from_dict(data["config"]),
            entry=data.get("entry", DEFAULT_ENTRY),
        )


def _canonical(value: Any) -> Any:
    """NaN-safe canonical form (floats via repr, dicts sorted)."""
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _canonical(v) for k, v in sorted(value.items())}
    return value


def spec_digest(spec: JobSpec) -> str:
    """SHA-256 over the identity of a job: id, entry point and config."""
    payload = {
        "job_id": spec.job_id,
        "entry": spec.entry,
        "config": config_to_dict(spec.config),
    }
    blob = json.dumps(
        _canonical(payload), sort_keys=True, separators=(",", ":")
    ).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()
