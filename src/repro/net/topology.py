"""Spatial neighbor index.

Neighbor queries ("who is within radio range of node i?") dominate the
simulation's hot path — every broadcast and every routing decision needs
one.  :class:`SpatialGrid` provides them in O(occupants of 9 cells) by
bucketing nodes into square cells whose side equals the radio range, so
all in-range nodes of a point lie in its 3x3 cell neighborhood.

The index is rebuilt from a full ``(N, 2)`` position array (a single
vectorized pass); the owning :class:`~repro.net.network.WirelessNetwork`
refreshes it lazily as simulation time advances.

Each rebuild starts a new *topology generation* (monotone counter).
Positions are frozen within a generation, so per-node query results are
pure functions of (generation, node) — the grid memoizes
:meth:`neighbors_of` per (generation, radius), filling a whole cell's
occupants in one vectorized pass the first time any of them asks.
Each answer is memoized as a plain ``list[int]``: the radio walks it
once per transmission, which Python does faster than numpy can on
neighborhoods of a dozen nodes.
The cached lists are built by exactly the same candidate-ordering and
distance arithmetic as the :meth:`within_range` cell walk (3x3 cell
block in row-major order, ascending node id within each cell, float64
ops elementwise identical), so memoized and walked answers are
bit-identical — the golden-digest suite depends on this.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from repro.geom import Point

__all__ = ["SpatialGrid"]


class SpatialGrid:
    """Uniform-grid spatial index over node positions.

    Parameters
    ----------
    width, height:
        Plane dimensions (metres).  Positions slightly outside the plane
        (mobility float error) are clamped into the boundary cells.
    cell_size:
        Cell side; use the radio range so a 3x3 cell block covers it.
    """

    def __init__(self, width: float, height: float, cell_size: float):
        if cell_size <= 0:
            raise ValueError(f"cell_size must be positive, got {cell_size}")
        self.width = float(width)
        self.height = float(height)
        self.cell_size = float(cell_size)
        self.n_cols = max(1, int(np.ceil(width / cell_size)))
        self.n_rows = max(1, int(np.ceil(height / cell_size)))
        self._positions: Optional[np.ndarray] = None
        self._alive: Optional[np.ndarray] = None
        # cell id -> array of node ids in that cell (live nodes only)
        self._cells: Dict[int, np.ndarray] = {}
        #: Monotone rebuild counter; consumers key per-topology caches on it.
        self.generation = 0
        self._cell_of: Optional[np.ndarray] = None  # per-node clamped cell id
        self._rows: Optional[np.ndarray] = None
        self._cols: Optional[np.ndarray] = None
        self._neighbor_cache: Dict[int, List[int]] = {}
        self._cache_radius: Optional[float] = None
        #: Above this many live nodes the one-shot all-pairs fill would
        #: need O(L^2) memory; larger populations fill cell by cell.
        self.bulk_fill_limit = 1500

    # -- building --------------------------------------------------------

    def rebuild(self, positions: np.ndarray, alive: Optional[np.ndarray] = None) -> None:
        """Re-index all nodes from a fresh ``(N, 2)`` position array.

        ``alive`` is an optional boolean mask; dead nodes are excluded
        from all queries (they neither receive nor forward).
        """
        positions = np.asarray(positions, dtype=float)
        n = positions.shape[0]
        if alive is None:
            alive = np.ones(n, dtype=bool)
        self._positions = positions
        self._alive = alive
        cols = np.clip((positions[:, 0] / self.cell_size).astype(np.intp), 0, self.n_cols - 1)
        rows = np.clip((positions[:, 1] / self.cell_size).astype(np.intp), 0, self.n_rows - 1)
        cell_ids = rows * self.n_cols + cols
        live_ids = np.flatnonzero(alive)
        self._cells = {}
        self.generation += 1
        self._cell_of = cell_ids
        self._rows = rows
        self._cols = cols
        self._neighbor_cache = {}
        self._cache_radius = None
        if live_ids.size == 0:
            return
        live_cells = cell_ids[live_ids]
        order = np.argsort(live_cells, kind="stable")
        sorted_cells = live_cells[order]
        sorted_ids = live_ids[order]
        boundaries = np.flatnonzero(np.diff(sorted_cells)) + 1
        starts = np.concatenate([[0], boundaries])
        ends = np.concatenate([boundaries, [sorted_cells.size]])
        for s, e in zip(starts, ends):
            self._cells[int(sorted_cells[s])] = sorted_ids[s:e]

    # -- queries ---------------------------------------------------------

    def _candidates_near(self, point: Point) -> np.ndarray:
        """Node ids in the 3x3 cell block around ``point``."""
        col = min(max(int(point[0] / self.cell_size), 0), self.n_cols - 1)
        row = min(max(int(point[1] / self.cell_size), 0), self.n_rows - 1)
        chunks: List[np.ndarray] = []
        for dr in (-1, 0, 1):
            r = row + dr
            if r < 0 or r >= self.n_rows:
                continue
            base = r * self.n_cols
            for dc in (-1, 0, 1):
                c = col + dc
                if c < 0 or c >= self.n_cols:
                    continue
                bucket = self._cells.get(base + c)
                if bucket is not None:
                    chunks.append(bucket)
        if not chunks:
            return np.empty(0, dtype=np.intp)
        return np.concatenate(chunks)

    def within_range(self, point: Point, radius: float) -> np.ndarray:
        """Live node ids within ``radius`` of ``point`` (inclusive).

        ``radius`` must not exceed ``cell_size`` or the 3x3 block would
        under-cover the disk.
        """
        if self._positions is None:
            raise RuntimeError("SpatialGrid.rebuild() must be called before querying")
        if radius > self.cell_size * (1 + 1e-9):
            raise ValueError(
                f"radius {radius} exceeds cell_size {self.cell_size}; "
                "the 3x3 block would miss neighbors"
            )
        cand = self._candidates_near(point)
        if cand.size == 0:
            return cand
        diff = self._positions[cand] - np.asarray(point, dtype=float)
        dist_sq = diff[:, 0] ** 2 + diff[:, 1] ** 2
        return cand[dist_sq <= radius * radius]

    def neighbors_of(self, node_id: int, radius: float) -> List[int]:
        """Live nodes within ``radius`` of ``node_id``, excluding itself.

        Results are memoized per (topology generation, radius); the
        returned list is shared across calls and must not be mutated by
        callers.  Dead nodes are not memoized and take the cell walk.
        """
        if self._positions is None:
            raise RuntimeError("SpatialGrid.rebuild() must be called before querying")
        if radius != self._cache_radius:
            # Single-radius memo: the owning network always queries at
            # radio range.  An off-radius query flushes and re-keys.
            self._neighbor_cache = {}
            self._cache_radius = radius
            self._bulk_fill_neighbor_cache(radius)
        cached = self._neighbor_cache.get(node_id)
        if cached is None:
            cached = self._fill_neighbor_cache(node_id, radius)
        if cached is not None:
            return cached
        point = (float(self._positions[node_id, 0]), float(self._positions[node_id, 1]))
        ids = self.within_range(point, radius)
        return ids[ids != node_id].tolist()

    def _bulk_fill_neighbor_cache(self, radius: float) -> None:
        """Memoize every live node's neighbor set in one vectorized pass.

        Runs once per (generation, radius), on the first query.
        The per-node candidate *order* of the cell-walk path — 3x3 block
        row-major, ascending id within each cell — is reproduced by
        sorting each node's in-range pairs on (relative-cell block
        index, node id); in-range pairs always lie in adjacent cells
        (``radius <= cell_size``), so the block index is well defined.
        Distance arithmetic is the same elementwise float64 subtract/
        square/compare as :meth:`within_range`, keeping cached answers
        bit-identical.  Populations above :attr:`bulk_fill_limit` skip
        this (O(live^2) memory) and fill cell by cell instead.
        """
        if radius > self.cell_size * (1 + 1e-9):
            return
        live_ids = np.flatnonzero(self._alive)
        n_live = live_ids.size
        if n_live == 0 or n_live > self.bulk_fill_limit:
            return
        pos = self._positions[live_ids]
        diff = pos[None, :, :] - pos[:, None, :]
        dist_sq = diff[:, :, 0] ** 2 + diff[:, :, 1] ** 2
        mask = dist_sq <= radius * radius
        np.fill_diagonal(mask, False)
        rows = self._rows[live_ids]
        cols = self._cols[live_ids]
        ii, jj = np.nonzero(mask)
        cache = self._neighbor_cache
        for nid in live_ids.tolist():
            cache[nid] = []
        if ii.size == 0:
            return
        block = (rows[jj] - rows[ii] + 1) * 3 + (cols[jj] - cols[ii] + 1)
        order = np.lexsort((jj, block, ii))
        ii = ii[order]
        neighbors_sorted = live_ids[jj[order]].tolist()
        starts = np.concatenate([[0], np.flatnonzero(np.diff(ii)) + 1])
        bounds = starts.tolist() + [ii.size]
        owners = live_ids[ii[starts]].tolist()
        for k, owner in enumerate(owners):
            cache[owner] = neighbors_sorted[bounds[k] : bounds[k + 1]]

    def _fill_neighbor_cache(self, node_id: int, radius: float) -> Optional[List[int]]:
        """Memoize neighbor sets for every live occupant of ``node_id``'s cell.

        All occupants of a cell share the same 3x3 candidate block, so
        one broadcasted (occupants x candidates) distance pass fills the
        whole cell.  Returns ``node_id``'s entry, or ``None`` when the
        node is not cacheable (dead, or an oversize radius) — the caller
        then falls back to the cell walk.
        """
        if radius > self.cell_size * (1 + 1e-9):
            return None
        cell = int(self._cell_of[node_id])
        bucket = self._cells.get(cell)
        if bucket is None or node_id not in bucket:
            return None  # dead node: not memoized
        row, col = divmod(cell, self.n_cols)
        chunks: List[np.ndarray] = []
        for dr in (-1, 0, 1):
            r = row + dr
            if r < 0 or r >= self.n_rows:
                continue
            base = r * self.n_cols
            for dc in (-1, 0, 1):
                c = col + dc
                if c < 0 or c >= self.n_cols:
                    continue
                blk = self._cells.get(base + c)
                if blk is not None:
                    chunks.append(blk)
        cand = np.concatenate(chunks) if chunks else np.empty(0, dtype=np.intp)
        diff = self._positions[cand][None, :, :] - self._positions[bucket][:, None, :]
        dist_sq = diff[:, :, 0] ** 2 + diff[:, :, 1] ** 2
        mask = dist_sq <= radius * radius
        cache = self._neighbor_cache
        for k, occupant in enumerate(bucket.tolist()):
            ids = cand[mask[k]]
            cache[occupant] = ids[ids != occupant].tolist()
        return cache[node_id]

    def position_of(self, node_id: int) -> Point:
        if self._positions is None:
            raise RuntimeError("SpatialGrid.rebuild() must be called before querying")
        p = self._positions[node_id]
        return (float(p[0]), float(p[1]))

    @property
    def positions(self) -> np.ndarray:
        if self._positions is None:
            raise RuntimeError("SpatialGrid.rebuild() must be called before querying")
        return self._positions
