"""Geographic regions and the region table (paper §2.1).

The plane is divided into regions, each represented — exactly as the
paper specifies — "by the location information of its center point and
all vertices in perimeter".  Every peer keeps a *region table* with this
information for all regions; the table supports the four management
operations **Add**, **Delete**, **Merge** and **Separate**, each of which
bumps the table version (peers must re-disseminate the table after a
change, and keys must be relocated — :meth:`RegionTable.version` lets
the peer layer detect this).

Home-region selection (§2.2): given a hashed location ``L``, the home
region is the region whose *center* is closest to ``L``; the replica
region (§2.4) is the second closest.  Center distances are computed
vectorized over a cached ``(R, 2)`` center matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.geom import Point, point_in_polygon, polygon_centroid

__all__ = ["Region", "RegionTable"]


@dataclass(frozen=True)
class Region:
    """One geographic region: id, perimeter vertices, and center."""

    region_id: int
    vertices: Tuple[Point, ...]
    center: Point

    @staticmethod
    def rectangle(region_id: int, x0: float, y0: float, x1: float, y1: float) -> "Region":
        """Axis-aligned rectangular region (the default grid tiling)."""
        if x1 <= x0 or y1 <= y0:
            raise ValueError(f"degenerate rectangle ({x0},{y0})-({x1},{y1})")
        vertices = ((x0, y0), (x1, y0), (x1, y1), (x0, y1))
        return Region(region_id, vertices, ((x0 + x1) / 2.0, (y0 + y1) / 2.0))

    @staticmethod
    def from_vertices(region_id: int, vertices: Sequence[Point]) -> "Region":
        """Region with an arbitrary simple-polygon perimeter."""
        verts = tuple((float(x), float(y)) for x, y in vertices)
        if len(verts) < 3:
            raise ValueError("a region needs at least 3 perimeter vertices")
        return Region(region_id, verts, polygon_centroid(verts))

    def contains(self, point: Point) -> bool:
        return point_in_polygon(point, self.vertices)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Region({self.region_id}, center={self.center})"


class RegionTable:
    """The per-peer table of all regions in the network.

    In the real system each peer holds its own copy and learns updates
    through dissemination; the simulation shares one table object among
    peers (the dissemination *cost* can be charged separately) while the
    ``version`` counter preserves the paper's consistency semantics:
    every Add/Delete/Merge/Separate bumps it, signalling that keys must
    be relocated.
    """

    def __init__(self, regions: Sequence[Region]):
        if not regions:
            raise ValueError("region table cannot be empty")
        self._regions: Dict[int, Region] = {}
        self._next_id = 0
        self.version = 0
        self._centers: Optional[np.ndarray] = None  # cache, aligned with _ids
        self._ids: List[int] = []
        # Grid fast path: (rows, cols, width, height) when the table is an
        # unmodified grid tiling, enabling O(1) vectorized point lookup.
        self._grid_shape: Optional[Tuple[int, int, float, float]] = None
        for region in regions:
            self._insert(region)

    # -- construction ------------------------------------------------------

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
        cols = n_regions // rows
        regions = []
        rid = 0
        for r in range(rows):
            for c in range(cols):
                regions.append(
                    Region.rectangle(
                        rid,
                        c * width / cols,
                        r * height / rows,
                        (c + 1) * width / cols,
                        (r + 1) * height / rows,
                    )
                )
                rid += 1
        table = RegionTable(regions)
        table._grid_shape = (rows, cols, float(width), float(height))
        return table

    # -- internal bookkeeping ----------------------------------------------

    def _insert(self, region: Region) -> None:
        if region.region_id in self._regions:
            raise ValueError(f"duplicate region id {region.region_id}")
        self._regions[region.region_id] = region
        self._next_id = max(self._next_id, region.region_id + 1)
        self._invalidate_cache()

    def _invalidate_cache(self) -> None:
        self._centers = None
        self._grid_shape = None

    def _ensure_cache(self) -> None:
        if self._centers is None:
            self._ids = sorted(self._regions)
            self._centers = np.array(
                [self._regions[rid].center for rid in self._ids], dtype=float
            )

    # -- management operations (§2.1) ---------------------------------------

    def add(self, vertices: Sequence[Point]) -> Region:
        """Add a new region (network topology expansion).

        A ring may be given closed (the first vertex repeated last) or
        with a vertex repeated back to back: the repeats are dropped,
        since a zero-length edge would put every point on the boundary.
        """
        ring: List[Point] = []
        for vertex in vertices:
            if not ring or tuple(vertex) != ring[-1]:
                ring.append(tuple(vertex))
        if len(ring) > 1 and ring[-1] == ring[0]:
            ring.pop()
        region = Region.from_vertices(self._next_id, ring)
        self._insert(region)
        self.version += 1
        return region

    def delete(self, region_id: int) -> Region:
        """Remove a region no longer in the network."""
        if len(self._regions) <= 1:
            raise ValueError("cannot delete the last region")
        region = self._regions.pop(region_id, None)
        if region is None:
            raise KeyError(f"no region {region_id}")
        self._invalidate_cache()
        self.version += 1
        return region

    def merge(self, id_a: int, id_b: int) -> Region:
        """Replace two neighboring regions with their union.

        The merged perimeter is the convex hull of both vertex sets — a
        faithful simplification for the grid tilings the paper uses
        (merging two adjacent rectangles yields their bounding convex
        polygon).
        """
        if id_a == id_b:
            raise ValueError("cannot merge a region with itself")
        a = self._regions.pop(id_a, None)
        b = self._regions.pop(id_b, None)
        if a is None or b is None:
            raise KeyError(f"regions {id_a}, {id_b} must both exist")
        points = np.array(a.vertices + b.vertices, dtype=float)
        hull = _convex_hull(points)
        merged = Region.from_vertices(self._next_id, hull)
        self._insert(merged)
        self.version += 1
        return merged

    def separate(self, region_id: int, axis: str = "x") -> Tuple[Region, Region]:
        """Divide one region into two new regions along its bounding-box
        midline (``axis`` 'x' splits left/right, 'y' top/bottom)."""
        region = self._regions.pop(region_id, None)
        if region is None:
            raise KeyError(f"no region {region_id}")
        xs = [v[0] for v in region.vertices]
        ys = [v[1] for v in region.vertices]
        x0, x1, y0, y1 = min(xs), max(xs), min(ys), max(ys)
        if axis == "x":
            mid = (x0 + x1) / 2.0
            first = Region.rectangle(self._next_id, x0, y0, mid, y1)
            self._insert(first)
            second = Region.rectangle(self._next_id, mid, y0, x1, y1)
            self._insert(second)
        elif axis == "y":
            mid = (y0 + y1) / 2.0
            first = Region.rectangle(self._next_id, x0, y0, x1, mid)
            self._insert(first)
            second = Region.rectangle(self._next_id, x0, mid, x1, y1)
            self._insert(second)
        else:
            raise ValueError(f"axis must be 'x' or 'y', got {axis!r}")
        self.version += 1
        return first, second

    # -- queries -------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._regions)

    def __iter__(self):
        return iter(self._regions.values())

    def get(self, region_id: int) -> Region:
        return self._regions[region_id]

    def region_ids(self) -> List[int]:
        return sorted(self._regions)

    def region_of_point(self, point: Point) -> Optional[Region]:
        """The region containing ``point`` (None if outside all regions).

        Grid tilings share boundary edges; ties resolve to the lowest
        region id, deterministically.
        """
        for rid in sorted(self._regions):
            if self._regions[rid].contains(point):
                return self._regions[rid]
        return None

    def regions_of_points(self, points: np.ndarray) -> np.ndarray:
        """Vectorized region lookup: ``(N, 2)`` points -> ``(N,)`` region ids.

        Points outside every region map to -1.  Grid tables use O(1)
        arithmetic per point (the hot path of the per-second mobility
        sweep); modified tables fall back to polygon tests.
        """
        points = np.asarray(points, dtype=float)
        if self._grid_shape is not None:
            rows, cols, width, height = self._grid_shape
            inside = (
                (points[:, 0] >= 0)
                & (points[:, 0] <= width)
                & (points[:, 1] >= 0)
                & (points[:, 1] <= height)
            )
            col = np.clip((points[:, 0] * cols / width).astype(np.intp), 0, cols - 1)
            row = np.clip((points[:, 1] * rows / height).astype(np.intp), 0, rows - 1)
            ids = row * cols + col
            return np.where(inside, ids, -1)
        out = np.full(points.shape[0], -1, dtype=np.intp)
        for i in range(points.shape[0]):
            region = self.region_of_point((float(points[i, 0]), float(points[i, 1])))
            if region is not None:
                out[i] = region.region_id
        return out

    def regions_by_center_distance(self, location: Point) -> List[Region]:
        """All regions sorted by center distance to ``location``.

        Index 0 is the home region for a key hashing to ``location``;
        index 1 the replica region (paper §2.4: ``dist(L-Lh) <=
        dist(L-Lr) <= dist(L-Li)``).
        """
        self._ensure_cache()
        assert self._centers is not None
        diff = self._centers - np.asarray(location, dtype=float)
        dists = np.hypot(diff[:, 0], diff[:, 1])
        order = np.argsort(dists, kind="stable")
        return [self._regions[self._ids[i]] for i in order]

    def closest_region(self, location: Point) -> Region:
        """Home region: the region whose center is closest to ``location``."""
        return self.regions_by_center_distance(location)[0]

    def are_adjacent(self, region_a: int, region_b: int) -> bool:
        """Do two regions share boundary (an edge segment or corner)?

        Uses bounding boxes, which is exact for the axis-aligned
        rectangles produced by grid tilings and Separate, and a safe
        over-approximation for Merge's convex hulls.
        """
        if region_a == region_b:
            return False
        a = self._regions[region_a]
        b = self._regions[region_b]

        def bbox(region: Region):
            xs = [v[0] for v in region.vertices]
            ys = [v[1] for v in region.vertices]
            return min(xs), max(xs), min(ys), max(ys)

        ax0, ax1, ay0, ay1 = bbox(a)
        bx0, bx1, by0, by1 = bbox(b)
        eps = 1e-9
        overlap_x = ax0 <= bx1 + eps and bx0 <= ax1 + eps
        overlap_y = ay0 <= by1 + eps and by0 <= ay1 + eps
        return overlap_x and overlap_y

    def neighbors_of_region(self, region_id: int) -> List[Region]:
        """All regions adjacent to ``region_id``."""
        return [
            r for r in self if r.region_id != region_id
            and self.are_adjacent(region_id, r.region_id)
        ]

    def center_distance(self, region_a: int, region_b: int) -> float:
        """Distance between two regions' centers (GD-LD's ``reg_dst``)."""
        ca = self._regions[region_a].center
        cb = self._regions[region_b].center
        return float(np.hypot(ca[0] - cb[0], ca[1] - cb[1]))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RegionTable(n={len(self)}, version={self.version})"


def _convex_hull(points: np.ndarray) -> List[Point]:
    """Andrew's monotone-chain convex hull (no scipy dependency needed)."""
    pts = sorted({(float(x), float(y)) for x, y in points})
    if len(pts) <= 2:
        raise ValueError("hull needs at least 3 distinct points")

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    lower: List[Point] = []
    for p in pts:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper: List[Point] = []
    for p in reversed(pts):
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return lower[:-1] + upper[:-1]
