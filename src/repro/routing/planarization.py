"""Local graph planarization for GPSR perimeter mode.

GPSR's perimeter (face-routing) mode only terminates on a *planar*
subgraph of the radio connectivity graph.  Karp & Kung propose two local
planarizations a node can compute from its one-hop neighbor positions:

* the **Relative Neighborhood Graph** (RNG): keep edge (u, v) unless some
  witness w is strictly closer to both u and v than they are to each
  other, and
* the **Gabriel Graph** (GG): keep edge (u, v) unless some witness w lies
  strictly inside the circle whose diameter is uv.

GG keeps more edges (RNG is a subgraph of GG), giving shorter perimeter
detours; GPSR works with either.  The router planarizes with Gabriel,
through :func:`repro.routing.gpsr.gabriel_planar`, a scalar loop on
Python floats; :func:`gabriel_neighbors`, vectorized over the candidate
neighbor set, is the reference it is tested against, operation for
operation.
"""

from __future__ import annotations

import numpy as np

__all__ = ["gabriel_neighbors"]


def gabriel_neighbors(
    self_pos: np.ndarray, neighbor_pos: np.ndarray, neighbor_ids: np.ndarray
) -> np.ndarray:
    """Gabriel-graph filter of a node's one-hop neighbors.

    Parameters
    ----------
    self_pos:
        ``(2,)`` position of the deciding node *u*.
    neighbor_pos:
        ``(K, 2)`` positions of its one-hop neighbors.
    neighbor_ids:
        ``(K,)`` node ids aligned with ``neighbor_pos``.

    Returns the subset of ``neighbor_ids`` kept by the GG criterion:
    edge (u, v) survives iff no other neighbor w lies strictly inside the
    circle with diameter uv.
    """
    k = neighbor_ids.shape[0]
    if k <= 1:
        return neighbor_ids
    self_pos = np.asarray(self_pos, dtype=float)
    midpoints = (neighbor_pos + self_pos) / 2.0  # (K, 2)
    radii_sq = np.sum((neighbor_pos - self_pos) ** 2, axis=1) / 4.0  # (K,)
    # dist_sq[i, j] = |w_j - midpoint_i|^2 for neighbor w_j vs edge i.
    diff = neighbor_pos[None, :, :] - midpoints[:, None, :]  # (K, K, 2)
    dist_sq = np.sum(diff * diff, axis=2)
    inside = dist_sq < radii_sq[:, None] * (1.0 - 1e-12)
    np.fill_diagonal(inside, False)  # v itself is on the circle, not a witness
    keep = ~inside.any(axis=1)
    return neighbor_ids[keep]
