"""Experiment drivers reproducing every figure of the paper's evaluation.

Each driver returns plain data structures (lists of result rows) and a
``format_*`` helper that prints them in the same series the paper plots:

========  ================================================  =============
driver    paper figure                                      sweep
========  ================================================  =============
fig4      latency vs cache size (GD-LD vs GD-Size)          cache fraction
fig5      byte hit ratio vs cache size                      cache fraction
fig6      consistency control message overhead              Tupd/Treq
fig7      false hit ratio                                   Tupd/Treq
fig8      latency per request (consistency schemes)         Tupd/Treq
fig9a     energy/request vs node count (theory + sim,       n_nodes
          flooding vs PReCinCt; static 600 m plane)
fig9b     energy/request vs region count (theory + sim)     n_regions
========  ================================================  =============
"""

from repro.experiments.figures import (
    run_fig4_fig5,
    run_fig6_fig7_fig8,
    run_fig9a,
    run_fig9b,
)

__all__ = [
    "run_fig4_fig5",
    "run_fig6_fig7_fig8",
    "run_fig9a",
    "run_fig9b",
]
