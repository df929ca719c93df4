"""Spatial neighbor index.

Neighbor queries ("who is within radio range of node i?") dominate the
simulation's hot path — every broadcast and every routing decision needs
one.  :class:`SpatialGrid` provides them in O(occupants of 9 cells) by
bucketing nodes into square cells whose side equals the radio range, so
all in-range nodes of a point lie in its 3x3 cell neighborhood.

The index is rebuilt from a full ``(N, 2)`` position array (a single
vectorized pass); the owning :class:`~repro.net.network.WirelessNetwork`
refreshes it lazily as simulation time advances.  It is one cell-sorted
table: live node ids sorted by cell (ascending id within a cell) plus
per-cell start offsets, so the three cells of one block row are one
contiguous slice.

Each rebuild starts a new *topology generation* (monotone counter).
Positions are frozen within a generation, so per-node query results are
pure functions of (generation, node) — the grid memoizes
:meth:`neighbors_of` per (generation, radius), computing every live
node's list in one vectorized pass over the table the first time any
node asks.  That pass costs O(live nodes x block occupancy); nothing in
it is N x N.  It slices every live node's ``list[int]`` out of one flat
list into the memo at once (almost every list is read in a
generation): the radio walks a list once per transmission, which
Python does faster than numpy can on neighborhoods of a dozen nodes.
For the same reason :meth:`position_of` answers from one
per-generation list of ``(x, y)`` tuples of Python floats.
The cached lists are built by exactly the same candidate ordering and
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

_BLOCK_ROWS = np.array([-1, 0, 1])


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
        # The x and y columns of _positions, contiguous.
        self._xs: Optional[np.ndarray] = None
        self._ys: Optional[np.ndarray] = None
        # The same positions as (x, y) tuples of Python floats, built on
        # the generation's first position_of() and dropped by rebuild().
        self._points: Optional[List[Point]] = None
        #: Monotone rebuild counter; consumers key per-topology caches on it.
        self.generation = 0
        self._cell_of: Optional[np.ndarray] = None  # per-node clamped cell id
        # Live node ids sorted by cell; cell c holds _ids[_offsets[c]:_offsets[c + 1]].
        self._ids: Optional[np.ndarray] = None
        self._offsets: Optional[np.ndarray] = None
        self._neighbor_cache: Dict[int, List[int]] = {}
        self._cache_radius: Optional[float] = None

    # -- building --------------------------------------------------------

    def rebuild(self, positions: np.ndarray, alive: Optional[np.ndarray] = None) -> None:
        """Re-index all nodes from a fresh ``(N, 2)`` position array.

        ``alive`` is an optional boolean mask; dead nodes are excluded
        from all queries (they neither receive nor forward).
        """
        positions = np.asarray(positions, dtype=float)
        xs = np.ascontiguousarray(positions[:, 0])
        ys = np.ascontiguousarray(positions[:, 1])
        # np.clip(..., 0, n - 1), as two ufuncs (clip's wrapper costs more
        # than the work on a few hundred cells).
        cols = np.minimum(np.maximum((xs / self.cell_size).astype(np.intp), 0),
                          self.n_cols - 1)
        rows = np.minimum(np.maximum((ys / self.cell_size).astype(np.intp), 0),
                          self.n_rows - 1)
        cell_of = rows * self.n_cols + cols
        live = np.arange(positions.shape[0]) if alive is None else np.flatnonzero(alive)
        live_cells = cell_of[live]
        self._positions = positions
        self._xs = xs
        self._ys = ys
        self._points = None
        self._cell_of = cell_of
        self._ids = live[np.argsort(live_cells, kind="stable")]
        counts = np.bincount(live_cells, minlength=self.n_rows * self.n_cols)
        self._offsets = np.concatenate(([0], np.cumsum(counts)))
        self.generation += 1
        self._neighbor_cache = {}
        self._cache_radius = None

    # -- queries ---------------------------------------------------------

    def _check_radius(self, radius: float) -> None:
        if self._positions is None:
            raise RuntimeError("SpatialGrid.rebuild() must be called before querying")
        if radius > self.cell_size * (1 + 1e-9):
            raise ValueError(
                f"radius {radius} exceeds cell_size {self.cell_size}; "
                "the 3x3 block would miss neighbors"
            )

    def within_range(self, point: Point, radius: float) -> np.ndarray:
        """Live node ids within ``radius`` of ``point`` (inclusive).

        ``radius`` must not exceed ``cell_size`` or the 3x3 block would
        under-cover the disk.
        """
        self._check_radius(radius)
        col = min(max(int(point[0] / self.cell_size), 0), self.n_cols - 1)
        row = min(max(int(point[1] / self.cell_size), 0), self.n_rows - 1)
        first = max(col - 1, 0)
        end = min(col + 1, self.n_cols - 1) + 1
        offsets = self._offsets
        cand = np.concatenate([
            self._ids[offsets[r * self.n_cols + first]:offsets[r * self.n_cols + end]]
            for r in range(max(row - 1, 0), min(row + 2, self.n_rows))
        ])
        diff = self._positions[cand] - np.asarray(point, dtype=float)
        dist_sq = diff[:, 0] ** 2 + diff[:, 1] ** 2
        return cand[dist_sq <= radius * radius]

    def neighbors_of(self, node_id: int, radius: float) -> List[int]:
        """Live nodes within ``radius`` of ``node_id``, excluding itself.

        Results are memoized per (topology generation, radius); the
        returned list is shared across calls and must not be mutated by
        callers.  Dead nodes are not memoized and take the cell walk.
        """
        if radius != self._cache_radius:
            # Single-radius memo: the owning network always queries at
            # radio range.  An off-radius query flushes and re-keys.
            self._check_radius(radius)
            self._fill_neighbor_cache(radius)
            self._cache_radius = radius
        cached = self._neighbor_cache.get(node_id)
        if cached is not None:
            return cached
        ids = self.within_range(self.position_of(node_id), radius)
        return ids[ids != node_id].tolist()

    def _fill_neighbor_cache(self, radius: float) -> None:
        """Every live node's neighbor list, in one pass over the cell table.

        Each node's candidates are its 3x3 block's three row slices of
        the cell-sorted table, enumerated node-major and block-row by
        block-row — already the walk's order (block row-major, ascending
        id within each cell), so nothing is sorted.  The distance filter
        is the walk's elementwise float64 subtract/square/compare.  Each
        live node's list is a slice of one flat list of the kept ids.
        """
        ids, offsets = self._ids, self._offsets
        rows, cols = np.divmod(self._cell_of[ids], self.n_cols)
        block_rows = rows[:, None] + _BLOCK_ROWS
        in_plane = (block_rows >= 0) & (block_rows < self.n_rows)
        bases = np.minimum(np.maximum(block_rows, 0), self.n_rows - 1) * self.n_cols
        starts = offsets[bases + np.maximum(cols - 1, 0)[:, None]]
        ends = offsets[bases + np.minimum(cols + 1, self.n_cols - 1)[:, None] + 1]
        lengths = np.where(in_plane, ends - starts, 0).ravel()
        # Concatenate the slices [start, start + length) in order.
        slots = np.arange(lengths.sum())
        slots += np.repeat(starts.ravel() - (np.cumsum(lengths) - lengths), lengths)
        cand = ids[slots]
        per_node = lengths.reshape(-1, 3).sum(axis=1)
        owner = np.repeat(ids, per_node)
        xs, ys = self._xs, self._ys
        dx = xs[cand] - xs[owner]
        dy = ys[cand] - ys[owner]
        keep = (dx ** 2 + dy ** 2 <= radius * radius) & (cand != owner)
        kept_before = np.concatenate(([0], np.cumsum(keep)))
        bounds = kept_before[np.concatenate(([0], np.cumsum(per_node)))].tolist()
        flat = cand[keep].tolist()
        self._neighbor_cache = {
            node: flat[start:end]
            for node, start, end in zip(ids.tolist(), bounds, bounds[1:])
        }

    def position_of(self, node_id: int) -> Point:
        """``node_id``'s position as a tuple of Python floats.

        The generation's tuples come from one ``tolist()`` (the same
        doubles numpy holds), so a query is a list index.
        """
        points = self._points
        if points is None:
            points = self.points()
        return points[node_id]

    def points(self) -> List[Point]:
        """Every node's position as a tuple of Python floats, indexed by
        node id: the generation's list, shared (do not mutate)."""
        points = self._points
        if points is None:
            points = self._points = list(map(tuple, self.positions.tolist()))
        return points

    @property
    def positions(self) -> np.ndarray:
        if self._positions is None:
            raise RuntimeError("SpatialGrid.rebuild() must be called before querying")
        return self._positions
