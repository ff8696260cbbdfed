"""Volumetric mapping: depth-image backprojection, incremental normals, and a
fixed-resolution voxel map of running centroids (position, color, normal),
kept as a flat table sorted by packed 63-bit cell key (``OctreeMap``, named
for the octree it replaced), so every map operation is an array kernel.

Keyframe clouds arrive through a bounded FIFO and are integrated N at a
time; the whole map is rebuilt from the archived clouds whenever keyframe
poses change under a global adjustment.
"""

from __future__ import annotations

import hashlib
from collections import deque
from dataclasses import dataclass

import numpy as np

from .errors import MapperQueueFullError, PointlineError
from .geometry import CameraIntrinsics, Se3Pose


@dataclass
class DepthImage:
    """Row-major depth map in meters; NaN marks missing readings."""

    depths: np.ndarray  # (H, W) float
    color: np.ndarray | None = None  # (H, W, 3) uint8

    def __post_init__(self):
        d = np.asarray(self.depths, dtype=float)
        if d.ndim != 2:
            raise ValueError("depths must be a 2D array")
        valid = np.isfinite(d)
        if np.any(d[valid] <= 0):
            raise ValueError("depths must be positive where present")
        self.depths = d
        if self.color is not None:
            c = np.asarray(self.color)
            if c.shape != d.shape + (3,):
                raise ValueError("color must be (H, W, 3)")
            self.color = c

    @property
    def height(self) -> int:
        return self.depths.shape[0]

    @property
    def width(self) -> int:
        return self.depths.shape[1]


@dataclass
class PointCloud:
    points: np.ndarray  # (N, 3)
    colors: np.ndarray | None = None  # (N, 3) uint8
    normals: np.ndarray | None = None  # (N, 3) unit vectors

    def __post_init__(self):
        p = np.asarray(self.points, dtype=float).reshape(-1, 3)
        self.points = p
        if self.colors is not None:
            c = np.asarray(self.colors)
            if len(c) != len(p):
                raise ValueError("colors length mismatch")
            self.colors = c.reshape(-1, 3)
        if self.normals is not None:
            n = np.asarray(self.normals, dtype=float).reshape(-1, 3)
            if len(n) != len(p):
                raise ValueError("normals length mismatch")
            present = np.all(np.isfinite(n), axis=1)
            norms = np.linalg.norm(n[present], axis=1)
            if np.any(np.abs(norms - 1.0) > 1e-6):
                raise ValueError("normals must be unit length where present")
            self.normals = n

    def __len__(self) -> int:
        return len(self.points)


def backproject_depth_image(
    image: DepthImage, intrinsics: CameraIntrinsics, with_normals: bool = True
) -> PointCloud:
    """One camera-frame point per valid pixel; colors and normals ride along.

    Normal rows are NaN where the 4-neighborhood is incomplete.
    """
    h, w = image.depths.shape
    u, v = np.meshgrid(np.arange(w, dtype=float), np.arange(h, dtype=float))
    valid = np.isfinite(image.depths)
    d = image.depths[valid]
    x = (u[valid] - intrinsics.cx) / intrinsics.fx * d
    y = (v[valid] - intrinsics.cy) / intrinsics.fy * d
    points = np.stack([x, y, d], axis=-1)
    colors = image.color[valid] if image.color is not None else None
    normals = estimate_normals(image, intrinsics)[valid] if with_normals else None
    return PointCloud(points, colors, normals)


def estimate_normals(image: DepthImage, intrinsics: CameraIntrinsics) -> np.ndarray:
    """Per-pixel surface normals from central differences on the 4-neighborhood.

    The four triangles spanned by cyclically adjacent neighbor pairs
    (right-up, up-left, left-down, down-right) contribute their cross
    products; since each cross product carries twice the triangle area this
    is the area-weighted average. Normals are oriented toward the camera
    (n . p < 0). Border pixels and pixels with incomplete neighborhoods get
    NaN rows.
    """
    h, w = image.depths.shape
    u, v = np.meshgrid(np.arange(w, dtype=float), np.arange(h, dtype=float))
    d = image.depths
    pts = np.stack(
        [(u - intrinsics.cx) / intrinsics.fx * d, (v - intrinsics.cy) / intrinsics.fy * d, d],
        axis=-1,
    )
    out = np.full((h, w, 3), np.nan)
    if h < 3 or w < 3:
        return out
    center = pts[1:-1, 1:-1]
    right = pts[1:-1, 2:]
    left = pts[1:-1, :-2]
    up = pts[:-2, 1:-1]
    down = pts[2:, 1:-1]
    ok = (
        np.isfinite(center[..., 2])
        & np.isfinite(right[..., 2])
        & np.isfinite(left[..., 2])
        & np.isfinite(up[..., 2])
        & np.isfinite(down[..., 2])
    )
    acc = np.zeros_like(center)
    for a, b in ((right, up), (up, left), (left, down), (down, right)):
        acc += np.cross(a - center, b - center)
    norm = np.linalg.norm(acc, axis=-1)
    ok &= norm > 0
    normals = np.where(ok[..., None], acc / np.where(norm[..., None] == 0, 1.0, norm[..., None]), np.nan)
    # orient toward the camera
    flip = np.einsum("ijk,ijk->ij", normals, center) > 0
    normals = np.where((ok & flip)[..., None], -normals, normals)
    out[1:-1, 1:-1] = normals
    return out


def _table_field(name: str) -> property:
    def get(self):
        return getattr(self._map, name)[np.searchsorted(self._map.keys, self._key)]

    def put(self, value):
        getattr(self._map, name)[np.searchsorted(self._map.keys, self._key)] = value

    return property(get, put)


class _CellView:
    """One stored cell of an ``OctreeMap``: its fields read from and write to
    the map's table, wherever later insertions move the cell's row."""

    __slots__ = ("_map", "_key")

    def __init__(self, octree: OctreeMap, key: int):
        self._map = octree
        self._key = key

    count = _table_field("count")
    position_sum = _table_field("position_sum")
    color_sum = _table_field("color_sum")
    normal_sum = _table_field("normal_sum")


class OctreeMap:
    """Sparse map over a world-origin-anchored grid of half-open cells.

    Cell (i, j, k) covers [i*res, (i+1)*res) x ... ; each stored cell keeps
    running sums of the integrated world positions, colors, and normals. The
    cells live in a flat table: ``keys`` holds the packed cell indices in
    ascending order, and row ``r`` of ``count``, ``position_sum``,
    ``color_sum`` and ``normal_sum`` belongs to ``keys[r]``. A key packs
    ``(i+h, j+h, k+h)`` into ``depth`` bits per axis, so key order is the
    lexicographic index order and ``3*depth`` may not exceed 63 bits.
    """

    SUMS = ("position_sum", "color_sum", "normal_sum")

    def __init__(self, resolution: float, max_extent: float = 64.0):
        if resolution <= 0 or max_extent <= resolution:
            raise ValueError("need resolution > 0 and max_extent > resolution")
        self.resolution = resolution
        self.depth = int(np.ceil(np.log2(2.0 * max_extent / resolution)))
        if 3 * self.depth > 63:
            raise ValueError(
                f"max_extent/resolution needs {self.depth} bits per axis; a 63-bit cell key holds 21"
            )
        self.half_cells = 1 << (self.depth - 1)
        self.keys = np.zeros(0, dtype=np.int64)
        self.count = np.zeros(0, dtype=np.int64)
        self.position_sum = np.zeros((0, 3))
        self.color_sum = np.zeros((0, 3))
        self.normal_sum = np.zeros((0, 3))

    @property
    def n_cells(self) -> int:
        return len(self.keys)

    @property
    def root_half_extent(self) -> float:
        """Root cube spans [-h, h) per axis."""
        return self.half_cells * self.resolution

    def cell_index(self, points: np.ndarray) -> np.ndarray:
        idx = np.floor(np.asarray(points, dtype=float) / self.resolution).astype(np.int64)
        if np.any(idx < -self.half_cells) or np.any(idx >= self.half_cells):
            raise PointlineError("point outside the octree root region")
        return idx

    def _pack(self, index: np.ndarray) -> np.ndarray:
        """Cell keys of ``(n, 3)`` in-range cell indices."""
        o = index + self.half_cells
        return (o[:, 0] << (2 * self.depth)) | (o[:, 1] << self.depth) | o[:, 2]

    def indices(self) -> np.ndarray:
        """``(n_cells, 3)`` cell indices of the stored cells, in key order."""
        mask = (1 << self.depth) - 1
        k = self.keys[:, None] >> np.array([2 * self.depth, self.depth, 0])
        return (k & mask) - self.half_cells

    def _rows(self, keys: np.ndarray) -> tuple[np.ndarray, int]:
        """Table rows of sorted unique ``keys``, inserting the missing ones as
        empty cells; returns the rows and the number of inserted cells."""
        at = np.searchsorted(self.keys, keys)
        inside = at < len(self.keys)
        new = np.ones(len(keys), dtype=bool)
        new[inside] = self.keys[at[inside]] != keys[inside]
        rows = at + np.cumsum(new) - new  # shifted by the new keys sorting before
        n_new = int(new.sum())
        if n_new:
            # each row of the grown table gathers its old row; new rows
            # gather an appended zero row
            source = np.full(len(self.keys) + n_new, len(self.keys))
            kept = np.ones(len(source), dtype=bool)
            kept[rows[new]] = False
            source[kept] = np.arange(len(self.keys))
            for name in ("keys", "count") + self.SUMS:
                table = getattr(self, name)
                zero = np.zeros((1,) + table.shape[1:], dtype=table.dtype)
                setattr(self, name, np.concatenate([table, zero]).take(source, axis=0))
            self.keys[rows[new]] = keys[new]
        return rows, n_new

    def cells(self):
        """(index triple, cell view) over stored cells, in index order."""
        return [
            (tuple(index), _CellView(self, key))
            for index, key in zip(self.indices().tolist(), self.keys.tolist())
        ]

    def content_key(self) -> bytes:
        """Digest of the stored cells; unchanged by read-only operations.

        Per cell, in index order: the index as three int64, the position,
        color and normal sums as float64, and the count as int64.
        """
        sums = [getattr(self, name).view(np.int64) for name in self.SUMS]
        table = np.concatenate([self.indices(), *sums, self.count[:, None]], axis=1)
        return hashlib.sha256(table.tobytes()).digest()


def integrate_cloud(octree: OctreeMap, cloud: PointCloud, pose: Se3Pose) -> dict[str, int]:
    """Fold a camera-frame cloud into the octree under the keyframe pose.

    ``pose`` is the world->camera transform of the source keyframe; points go
    to the world frame through its inverse. The cloud is summed per cell in
    point order first and each cell sum is then added to the table once, so
    centroids are exact means of all integrated points regardless of
    batching. Missing (NaN) normals contribute nothing to the normal sums.
    """
    if len(cloud) == 0:
        return {"new_cells": 0, "updated_cells": 0}
    inv = pose.inverse()
    world = cloud.points @ inv.rotation.T + inv.translation
    keys, inverse = np.unique(octree._pack(octree.cell_index(world)), return_inverse=True)
    rows, new_cells = octree._rows(keys)

    def add(table: np.ndarray, values: np.ndarray):
        sums = [np.bincount(inverse, weights=values[:, a], minlength=len(keys)) for a in range(3)]
        table[rows] += np.stack(sums, axis=1)

    octree.count[rows] += np.bincount(inverse, minlength=len(keys))
    add(octree.position_sum, world)
    if cloud.colors is not None:
        add(octree.color_sum, cloud.colors.astype(float))
    if cloud.normals is not None:
        normals = np.where(np.isfinite(cloud.normals), cloud.normals, 0.0)
        add(octree.normal_sum, normals @ inv.rotation.T)
    return {"new_cells": new_cells, "updated_cells": len(keys) - new_cells}


def extract_global_cloud(octree: OctreeMap) -> PointCloud:
    """Read-only snapshot: per-cell centroid, mean color (rounded half-up),
    renormalized mean normal."""
    count = octree.count[:, None]
    # a dot product per row, the reduction np.linalg.norm applies to one vector
    norm = np.sqrt(octree.normal_sum[:, None, :] @ octree.normal_sum[:, :, None])[:, 0]
    normals = np.where(
        norm > 0, octree.normal_sum / np.where(norm > 0, norm, 1.0), np.array([0.0, 0.0, -1.0])
    )
    colors = np.floor(octree.color_sum / count + 0.5).astype(np.uint8)
    return PointCloud(octree.position_sum / count, colors, normals)


@dataclass
class ArchivedKeyframe:
    """Retained integration input, enough to rebuild the map under new poses."""

    keyframe_id: int
    cloud: PointCloud | None
    pose: Se3Pose


def rebuild_on_adjustment(octree: OctreeMap, archive: list[ArchivedKeyframe]) -> OctreeMap:
    """Fresh octree from the archived clouds under their (possibly updated) poses."""
    rebuilt = OctreeMap(octree.resolution, octree.root_half_extent)
    for entry in archive:
        if entry.cloud is None:
            raise PointlineError(f"keyframe {entry.keyframe_id} has no archived cloud")
        integrate_cloud(rebuilt, entry.cloud, entry.pose)
    return rebuilt


def maps_equal(a: OctreeMap, b: OctreeMap, tol: float = 1e-12) -> bool:
    """Cell-by-cell comparison of indices, counts, and running sums; each sum
    row may differ by ``tol`` times its largest magnitude in ``a`` (at least 1)."""
    if not (np.array_equal(a.indices(), b.indices()) and np.array_equal(a.count, b.count)):
        return False
    for name in OctreeMap.SUMS:
        x, y = getattr(a, name), getattr(b, name)
        scale = np.maximum(1.0, np.abs(x).max(axis=1, keepdims=True))
        if np.any(np.abs(x - y) > tol * scale):
            return False
    return True


class VolumetricMapper:
    """FIFO consumer integrating keyframes into the octree N at a time.

    The bounded queue is the only channel between the producer (SLAM side)
    and this consumer; the archive keeps everything needed for
    ``rebuild_on_adjustment``. Producer and consumer share one thread, so a
    full queue rejects the keyframe instead of waiting for a consumer.
    """

    def __init__(self, octree: OctreeMap, batch_size: int = 1, queue_capacity: int = 256):
        if batch_size < 1 or queue_capacity < 1:
            raise ValueError("batch size and queue capacity must be >= 1")
        self.octree = octree
        self.batch_size = batch_size
        self.queue_capacity = queue_capacity
        self._queue: deque[ArchivedKeyframe] = deque()
        self.archive: list[ArchivedKeyframe] = []

    def submit(self, keyframe_id: int, cloud: PointCloud, pose: Se3Pose):
        """Queue a keyframe; raises ``MapperQueueFullError`` (queueing and
        archiving nothing) when ``queue_capacity`` keyframes are pending."""
        if len(self._queue) >= self.queue_capacity:
            raise MapperQueueFullError(
                f"mapper queue full ({self.queue_capacity} keyframes); "
                f"process a batch before submitting keyframe {keyframe_id}"
            )
        self._queue.append(ArchivedKeyframe(keyframe_id, cloud, pose))

    def pending(self) -> int:
        return len(self._queue)

    def process_batches(self, drain: bool = False) -> list[dict[str, int]]:
        """Integrate full batches from the queue (all remaining when draining)."""
        reports = []
        while len(self._queue) >= self.batch_size or (drain and self._queue):
            for _ in range(min(self.batch_size, len(self._queue))):
                entry = self._queue.popleft()
                reports.append(integrate_cloud(self.octree, entry.cloud, entry.pose))
                self.archive.append(entry)
        return reports

    def rebuild(self, updated_poses: dict[int, Se3Pose]) -> OctreeMap:
        """Swap in adjusted poses and rebuild; the result replaces the map."""
        for entry in self.archive:
            if entry.keyframe_id in updated_poses:
                entry.pose = updated_poses[entry.keyframe_id]
        self.octree = rebuild_on_adjustment(self.octree, self.archive)
        return self.octree


# ---------------------------------------------------------------------------
# Export formats: ASCII PLY and CSV, columns x y z r g b nx ny nz


_ROW_FORMAT = "%.9g %.9g %.9g %d %d %d %.9g %.9g %.9g"


def _format_rows(cloud: PointCloud, sep: str) -> list[str]:
    colors = cloud.colors if cloud.colors is not None else np.zeros((len(cloud), 3), int)
    normals = cloud.normals if cloud.normals is not None else np.zeros((len(cloud), 3))
    fmt = _ROW_FORMAT.replace(" ", sep)
    columns = cloud.points.T.tolist() + colors.T.tolist() + normals.T.tolist()
    return [fmt % row for row in zip(*columns)]


def export_ply(cloud: PointCloud) -> str:
    header = [
        "ply",
        "format ascii 1.0",
        f"element vertex {len(cloud)}",
        "property float x",
        "property float y",
        "property float z",
        "property uchar red",
        "property uchar green",
        "property uchar blue",
        "property float nx",
        "property float ny",
        "property float nz",
        "end_header",
    ]
    return "\n".join(header + _format_rows(cloud, " ")) + "\n"


def export_csv(cloud: PointCloud) -> str:
    return "\n".join(["x,y,z,r,g,b,nx,ny,nz"] + _format_rows(cloud, ",")) + "\n"
