"""Named campaign presets and the on-disk campaign definition.

``repro campaign run`` needs a graph; presets are the built-in ones:

* ``mini`` — a 2 policies × 2 cache sizes × seeds smoke grid of
  seconds-long simulations (the CI kill-and-resume campaign);
* ``cache-study`` — the Figs. 4-5 grid (replacement policy × cache
  fraction × seeds) of ``repro.experiments.figures`` at quick scale;
* ``consistency`` — the Figs. 6-8 grid (consistency scheme × update
  ratio × seeds) of ``repro.experiments.figures`` at quick scale.

The chosen preset and its parameters are written to
``<campaign-dir>/campaign.json`` on the first ``run``, so
``repro campaign resume/status/verify`` rebuild the same graph without
re-specifying flags — and because artifacts are digest-verified against
the *rebuilt* spec, editing a preset between runs invalidates exactly
the cells it changes.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union

from repro.config import SimulationConfig
from repro.experiments.orchestrator.artifacts import atomic_write_json
from repro.experiments.orchestrator.graph import RunGraph

__all__ = [
    "PRESETS",
    "build_preset",
    "definition_graph",
    "definition_seeds",
    "load_definition",
    "save_definition",
]

PathLike = Union[str, Path]

_DEFINITION_SCHEMA = "repro.orchestrator.campaign/v1"


def _mini(seeds: Sequence[int]) -> RunGraph:
    """2 × 2 × len(seeds) grid of seconds-long smoke simulations."""
    base = SimulationConfig(
        n_nodes=12,
        width=500.0,
        height=500.0,
        n_regions=4,
        duration=60.0,
        warmup=10.0,
        n_items=40,
        t_request=5.0,
        max_speed=4.0,
        consistency="none",
    )
    return RunGraph.grid(
        base,
        replacement_policy=["gd-ld", "gd-size"],
        cache_fraction=[0.02, 0.05],
        seed=list(seeds),
    )


def _cache_study(seeds: Sequence[int]) -> RunGraph:
    """The Figs. 4-5 grid (policy × cache fraction × seed), quick scale."""
    # Imported late: figures itself runs on this package.
    from repro.experiments.figures import QUICK_SCALE, fig4_fig5_graph

    return fig4_fig5_graph(seeds=seeds, **QUICK_SCALE)


def _consistency(seeds: Sequence[int]) -> RunGraph:
    """The Figs. 6-8 grid (scheme × update ratio × seed), quick scale."""
    from repro.experiments.figures import QUICK_SCALE, fig6_fig7_fig8_graph

    return fig6_fig7_fig8_graph(seeds=seeds, **QUICK_SCALE)


PRESETS: Dict[str, object] = {
    "mini": _mini,
    "cache-study": _cache_study,
    "consistency": _consistency,
}


def build_preset(preset: str, seeds: Sequence[int]) -> RunGraph:
    """Instantiate one named preset over the given seeds."""
    try:
        builder = PRESETS[preset]
    except KeyError:
        raise ValueError(
            f"unknown preset {preset!r} (available: "
            f"{', '.join(sorted(PRESETS))})"
        ) from None
    if not seeds:
        raise ValueError("campaign needs at least one seed")
    return builder(list(seeds))


def save_definition(
    root: PathLike, *, name: str, preset: str, seeds: Sequence[int]
) -> Path:
    """Persist the campaign definition for flag-free resume."""
    path = Path(root) / "campaign.json"
    atomic_write_json(
        path,
        {
            "schema": _DEFINITION_SCHEMA,
            "name": name,
            "preset": preset,
            "seeds": list(seeds),
            "created_wall": time.time(),
        },
    )
    return path


def load_definition(root: PathLike) -> Optional[dict]:
    """Load ``campaign.json`` from a campaign dir (None when absent)."""
    path = Path(root) / "campaign.json"
    if not path.exists():
        return None
    data = json.loads(path.read_text(encoding="utf-8"))
    if data.get("schema") != _DEFINITION_SCHEMA:
        raise ValueError(
            f"{path}: unknown campaign schema {data.get('schema')!r}"
        )
    return data


def definition_graph(definition: dict) -> RunGraph:
    """Rebuild the run-graph a stored definition describes."""
    return build_preset(definition["preset"], definition["seeds"])


def definition_seeds(seeds: Optional[Sequence[int]]) -> List[int]:
    """Default seed list for new campaigns."""
    return list(seeds) if seeds else [1, 2]
