"""Geographic regions and the region table (paper §2.1).

The plane is tiled into a ``rows x cols`` grid of equal rectangles, each
represented — exactly as the paper specifies — "by the location
information of its center point and all vertices in perimeter".  Of the
four §2.1 management operations the table implements **Delete**: a
static run deletes its empty regions at start-up.  Add, Merge and
Separate are the paper's §7 future work (DESIGN.md §9).  Delete clears
a cell of the grid and bumps the table version, which keys every memo
built from the table.

Home-region selection (§2.2): given a hashed location ``L``, the home
region is the region whose *center* is closest to ``L``; the replica
region (§2.4) is the second closest.  :meth:`RegionTable.home_and_replica`
is the one place that rule is computed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from repro.geom import Point

__all__ = ["Region", "RegionTable"]

#: (location, region centre) distances per chunk of a home/replica
#: pass: its two float temporaries stay under 2 MiB each.
KEY_TABLE_CHUNK_CELLS = 1 << 18


@dataclass(frozen=True)
class Region:
    """One geographic region: id, perimeter vertices, and center."""

    region_id: int
    vertices: Tuple[Point, ...]
    center: Point

    @staticmethod
    def rectangle(region_id: int, x0: float, y0: float, x1: float, y1: float) -> "Region":
        """Axis-aligned rectangular region (one cell of the grid)."""
        if x1 <= x0 or y1 <= y0:
            raise ValueError(f"degenerate rectangle ({x0},{y0})-({x1},{y1})")
        vertices = ((x0, y0), (x1, y0), (x1, y1), (x0, y1))
        return Region(region_id, vertices, ((x0 + x1) / 2.0, (y0 + y1) / 2.0))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Region({self.region_id}, center={self.center})"


class RegionTable:
    """The per-peer table of all regions: a grid with a deleted-cell mask.

    Cell ``(row, col)`` is region ``row * cols + col``.  In the real
    system each peer holds its own copy and learns updates through
    dissemination; the simulation shares one table object among peers
    while the ``version`` counter preserves the paper's consistency
    semantics: every Delete bumps it, signalling that keys must be
    relocated.
    """

    def __init__(self, rows: int, cols: int, width: float, height: float):
        if rows <= 0 or cols <= 0:
            raise ValueError(f"grid must have positive rows and cols, got {rows}x{cols}")
        self.rows = rows
        self.cols = cols
        self.width = float(width)
        self.height = float(height)
        self.version = 0
        #: Live regions by id, in id order; Delete removes a cell here
        #: and clears it in ``_live``, the deleted-cell mask.
        self._regions: Dict[int, Region] = {}
        for r in range(rows):
            for c in range(cols):
                rid = r * cols + c
                self._regions[rid] = Region.rectangle(
                    rid,
                    c * width / cols,
                    r * height / rows,
                    (c + 1) * width / cols,
                    (r + 1) * height / rows,
                )
        self._live = np.ones(rows * cols, dtype=bool)
        self._index()

    @staticmethod
    def grid(width: float, height: float, n_regions: int) -> "RegionTable":
        """Tile the plane into an ``r x c`` grid of equal rectangles.

        ``n_regions`` is factored into the most-square ``rows x cols``
        decomposition (9 -> 3x3, 12 -> 3x4, 7 -> 1x7).  The paper's
        default is 9 equal regions on the 1200 m square plane.
        """
        if n_regions <= 0:
            raise ValueError(f"n_regions must be positive, got {n_regions}")
        rows = int(np.sqrt(n_regions))
        while n_regions % rows != 0:
            rows -= 1
        return RegionTable(rows, n_regions // rows, width, height)

    def _index(self) -> None:
        """Live ids and their centres as arrays, aligned, in id order."""
        self._ids = np.array(list(self._regions), dtype=np.intp)
        self._centers = np.array(
            [region.center for region in self._regions.values()], dtype=float
        )

    # -- management (§2.1) ---------------------------------------------------

    def delete(self, region_id: int) -> Region:
        """Remove a region no longer in the network."""
        if len(self._regions) <= 1:
            raise ValueError("cannot delete the last region")
        region = self._regions.pop(region_id, None)
        if region is None:
            raise KeyError(f"no region {region_id}")
        self._live[region_id] = False
        self._index()
        self.version += 1
        return region

    # -- queries -------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._regions)

    def __iter__(self):
        return iter(self._regions.values())

    def get(self, region_id: int) -> Region:
        return self._regions[region_id]

    def region_ids(self) -> List[int]:
        return list(self._regions)

    def regions_of_points(self, points: np.ndarray) -> np.ndarray:
        """Vectorized region lookup: ``(N, 2)`` points -> ``(N,)`` region ids.

        The cell is ``floor(x * cols / width)`` (rows likewise), clipped
        to the grid.  A point off the plane (NaN included) or in a
        deleted cell maps to -1.
        """
        points = np.asarray(points, dtype=float)
        rows, cols, width, height = self.rows, self.cols, self.width, self.height
        x = points[:, 0]
        y = points[:, 1]
        inside = (x >= 0) & (x <= width) & (y >= 0) & (y <= height)
        # Off-plane points are zeroed first: NaN or huge ones warn in the cast.
        x = np.where(inside, x, 0.0)
        y = np.where(inside, y, 0.0)
        col = np.minimum((x * cols / width).astype(np.intp), cols - 1)
        row = np.minimum((y * rows / height).astype(np.intp), rows - 1)
        ids = row * cols + col
        if len(self._regions) < rows * cols:
            inside &= self._live[ids]
        return np.where(inside, ids, -1)

    def home_and_replica(self, locations) -> Tuple[np.ndarray, np.ndarray]:
        """Home and replica region ids of ``(N, 2)`` hashed locations.

        The home is the live region whose centre is nearest (``np.hypot``
        of ``centre - location``), the replica the nearest one after it
        (§2.2, §2.4: ``dist(L-Lh) <= dist(L-Lr) <= dist(L-Li)``).  A tie
        goes to the lower region id: the home is the first minimum, the
        replica the first minimum with the home masked out.  With one
        region the home doubles as the replica.
        """
        points = np.asarray(locations, dtype=float)
        centers = self._centers
        n_regions = len(centers)
        n_points = len(points)
        homes = np.empty(n_points, dtype=np.intp)
        replicas = np.empty(n_points, dtype=np.intp) if n_regions > 1 else homes
        chunk = max(1, KEY_TABLE_CHUNK_CELLS // n_regions)
        rows = np.arange(min(chunk, n_points))
        for start in range(0, n_points, chunk):
            block = points[start:start + chunk]
            dx = centers[:, 0] - block[:, 0:1]
            dists = np.hypot(dx, centers[:, 1] - block[:, 1:2], out=dx)
            home = homes[start:start + chunk]
            dists.argmin(axis=1, out=home)
            if n_regions > 1:
                dists[rows[:len(block)], home] = np.inf
                dists.argmin(axis=1, out=replicas[start:start + chunk])
        return self._ids[homes], self._ids[replicas]

    def center_distance(self, region_a: int, region_b: int) -> float:
        """Distance between two regions' centers (GD-LD's ``reg_dst``)."""
        ca = self._regions[region_a].center
        cb = self._regions[region_b].center
        return float(np.hypot(ca[0] - cb[0], ca[1] - cb[1]))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RegionTable(n={len(self)}, version={self.version})"
