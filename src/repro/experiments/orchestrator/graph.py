"""The campaign run-graph: a flat, insertion-ordered list of jobs.

A :class:`RunGraph` is what every runner executes: uniquely-named,
independent :class:`JobSpec` s, run in the order they were added.
:meth:`RunGraph.grid` builds the common case — the paper's (scenario ×
seed × policy) sweeps — from a base config and axis values, one job per
Cartesian-product cell.
"""

from __future__ import annotations

import itertools
from dataclasses import replace
from typing import Dict, Iterator, List, Sequence

from repro.config import SimulationConfig
from repro.experiments.orchestrator.spec import (
    DEFAULT_ENTRY,
    JobSpec,
    slugify,
)

__all__ = ["RunGraph"]


class RunGraph:
    """An insertion-ordered set of independent jobs."""

    def __init__(self, jobs: Sequence[JobSpec] = ()):
        self._jobs: Dict[str, JobSpec] = {}
        for job in jobs:
            self.add_spec(job)

    # -- building ---------------------------------------------------------

    def add(
        self,
        job_id: str,
        config: SimulationConfig,
        *,
        entry: str = DEFAULT_ENTRY,
    ) -> JobSpec:
        """Create and register one job; returns the spec."""
        return self.add_spec(JobSpec(job_id, config, entry))

    def add_spec(self, spec: JobSpec) -> JobSpec:
        if spec.job_id in self._jobs:
            raise ValueError(f"duplicate job id {spec.job_id!r}")
        self._jobs[spec.job_id] = spec
        return spec

    @classmethod
    def grid(
        cls,
        base: SimulationConfig,
        *,
        entry: str = DEFAULT_ENTRY,
        **axes: Sequence,
    ) -> "RunGraph":
        """One job per Cartesian-product cell of the named config axes.

        ``RunGraph.grid(base, replacement_policy=["gd-ld", "gd-size"],
        seed=[1, 2])`` yields four jobs named like ``gd-ld_s1`` —
        axis values joined in sorted-axis order, ``seed`` rendered as
        ``s<seed>``.
        """
        graph = cls()
        if not axes:
            graph.add("cell", base, entry=entry)
            return graph
        names = sorted(axes)
        for combo in itertools.product(*(axes[name] for name in names)):
            cfg = replace(base, **dict(zip(names, combo)))
            parts = [
                f"s{value}" if name == "seed" else slugify(str(value))
                for name, value in zip(names, combo)
            ]
            graph.add("_".join(parts), cfg, entry=entry)
        return graph

    # -- views ------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._jobs)

    def __iter__(self) -> Iterator[JobSpec]:
        return iter(self._jobs.values())

    def __contains__(self, job_id: str) -> bool:
        return job_id in self._jobs

    def __getitem__(self, job_id: str) -> JobSpec:
        return self._jobs[job_id]

    @property
    def job_ids(self) -> List[str]:
        return list(self._jobs)

    def to_dict(self) -> Dict:
        return {"jobs": [spec.to_dict() for spec in self]}

    @classmethod
    def from_dict(cls, data: Dict) -> "RunGraph":
        return cls([JobSpec.from_dict(entry) for entry in data.get("jobs", ())])
