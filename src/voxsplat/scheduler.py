"""Per-tile voxel ordering: exact grid traversal and dependency-driven sort.

For every pixel of a tile the ray is walked through the voxel grid with an
incremental 3D DDA (all 256 rays advance in lockstep), yielding the non-empty
voxels front-to-back.  Consecutive voxels of each per-pixel list become edges
of a dependency graph; a deterministic Kahn pass (nearest voxel first) emits
one global order per tile.  Conflicting per-pixel orders are geometrically
possible, so cycles are broken by releasing the nearest remaining voxel and
counted instead of treated as fatal.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from .scene import Camera, TILE_EDGE
from .voxelstore import VoxelGrid

VoxelOrderingTable = list[list[int]]  # per-pixel renamed voxel ids, front-to-back


@dataclass
class ScheduleMeta:
    cycles_broken: int = 0


def tile_pixel_coords(tx: int, ty: int) -> tuple[np.ndarray, np.ndarray]:
    """Row-major pixel coordinates of a tile (y rows, then x)."""
    ys, xs = np.mgrid[0:TILE_EDGE, 0:TILE_EDGE]
    return (tx * TILE_EDGE + xs).ravel(), (ty * TILE_EDGE + ys).ravel()


def traverse(tile: tuple[int, int], camera: Camera, grid: VoxelGrid) -> VoxelOrderingTable:
    """Ordered non-empty voxels along each pixel ray of the tile.

    Exact traversal: every voxel whose box the ray crosses inside the grid is
    visited, in strictly increasing ray-parameter order, truncated at grid
    exit.  Rays that miss the grid get empty lists.
    """
    tx, ty = tile
    ntx, nty = camera.tile_counts
    if not (0 <= tx < ntx and 0 <= ty < nty):
        raise ValueError(f"tile {tile} outside a {ntx}x{nty} tile grid")
    px, py = tile_pixel_coords(tx, ty)
    dirs = camera.ray_directions(px, py)
    origin = camera.position
    return _walk_rays(origin, dirs, grid)


def _walk_rays(origin: np.ndarray, dirs: np.ndarray, grid: VoxelGrid) -> VoxelOrderingTable:
    """Per-ray lists read off the (rays, steps) visit array: one boolean
    gather keeps each ray's visits in step order, a cumsum splits them."""
    visits = _ray_visits(origin, dirs, grid)
    hit = visits >= 0
    flat = visits[hit].tolist()
    ends = np.cumsum(hit.sum(axis=1)).tolist()
    return [flat[b:e] for b, e in zip([0] + ends[:-1], ends)]


def _ray_visits(origin: np.ndarray, dirs: np.ndarray, grid: VoxelGrid) -> np.ndarray:
    """(rays, steps) renamed ids of the non-empty voxel each ray is in at each
    DDA step, -1 where the ray is in an empty voxel or has left the grid."""
    n = len(dirs)
    rename = grid.dense_renaming()
    lo = grid.origin
    hi = grid.origin + grid.dims * grid.edge

    d = np.where(np.abs(dirs) < 1e-300, 1e-300, dirs)
    t_lo = (lo[None, :] - origin[None, :]) / d
    t_hi = (hi[None, :] - origin[None, :]) / d
    t_enter = np.maximum(np.minimum(t_lo, t_hi).max(axis=1), 0.0)
    t_exit = np.maximum(t_lo, t_hi).min(axis=1)
    active = t_enter < t_exit

    # nudge inside the box so the start cell is unambiguous
    start = origin[None, :] + (t_enter * (1.0 + 1e-12) + 1e-12)[:, None] * d
    cell = np.floor((start - lo[None, :]) / grid.edge).astype(np.int64)
    cell = np.clip(cell, 0, np.asarray(grid.dims) - 1)

    step = np.where(d > 0, 1, -1).astype(np.int64)
    next_face = lo[None, :] + (cell + (step > 0)) * grid.edge
    t_next = (next_face - origin[None, :]) / d
    t_delta = grid.edge / np.abs(d)

    steps = []
    rows = np.arange(n)
    max_steps = int(np.asarray(grid.dims).sum()) + 3
    for _ in range(max_steps):
        if not active.any():
            break
        vids = grid.vid_of_cell(cell)
        steps.append(np.where(active, rename[np.clip(vids, 0, len(rename) - 1)], -1))
        axis = np.argmin(t_next, axis=1)
        t_hit = t_next[rows, axis]
        cell[rows, axis] += step[rows, axis]
        t_next[rows, axis] += t_delta[rows, axis]
        inside = (cell[rows, axis] >= 0) & (cell[rows, axis] < np.asarray(grid.dims)[axis])
        active = active & inside & (t_hit < t_exit)
    return np.stack(steps, axis=1) if steps else np.full((n, 0), -1, dtype=np.int64)


def build_dependency_tables(
    table: VoxelOrderingTable,
) -> tuple[dict[int, set[int]], dict[int, int]]:
    """Adjacency (source -> destinations) and in-degree over distinct edges
    between consecutive voxels of each per-pixel list."""
    adjacency: dict[int, set[int]] = {}
    indegree: dict[int, int] = {}
    for row in table:
        for v in row:
            indegree.setdefault(v, 0)
            adjacency.setdefault(v, set())
        for a, b in zip(row, row[1:]):
            if b not in adjacency[a]:
                adjacency[a].add(b)
                indegree[b] += 1
    return adjacency, indegree


def schedule(
    table: VoxelOrderingTable, depths: dict[int, float]
) -> tuple[list[int], ScheduleMeta]:
    """Kahn's algorithm over the per-pixel order constraints.

    The ready queue pops the voxel with the smallest centroid depth (ties by
    renamed id), so the output is deterministic.  If the ready queue drains
    while nodes remain, the nearest remaining voxel is released and the event
    counted in the metadata.
    """
    adjacency, indegree = build_dependency_tables(table)
    meta = ScheduleMeta()
    remaining = dict(indegree)
    ready = [(depths[v], v) for v, deg in sorted(remaining.items()) if deg == 0]
    heapq.heapify(ready)
    emitted: list[int] = []
    done: set[int] = set()
    while len(emitted) < len(remaining):
        if not ready:
            meta.cycles_broken += 1
            pending = [(depths[v], v) for v in sorted(remaining) if v not in done]
            forced = min(pending)[1]
            remaining[forced] = 0
            heapq.heappush(ready, (depths[forced], forced))
            continue
        _, v = heapq.heappop(ready)
        if v in done:
            continue
        done.add(v)
        emitted.append(v)
        for succ in sorted(adjacency[v]):
            if succ in done:
                continue
            remaining[succ] -= 1
            if remaining[succ] == 0:
                heapq.heappush(ready, (depths[succ], succ))
    return emitted, meta


def voxel_depths(vid_rs, camera: Camera, grid: VoxelGrid) -> dict[int, float]:
    """Camera-space z of voxel centers, keyed by renamed id."""
    vid_rs = sorted(vid_rs)
    if not vid_rs:
        return {}
    centers = grid.centers(np.asarray(vid_rs, dtype=np.int64))
    z = camera.to_camera(centers)[:, 2]
    return {v: float(z[i]) for i, v in enumerate(vid_rs)}


def dump_edges(table: VoxelOrderingTable) -> str:
    """Dependency edges as 'src dst' lines, for graph debugging."""
    adjacency, _ = build_dependency_tables(table)
    lines = []
    for src in sorted(adjacency):
        for dst in sorted(adjacency[src]):
            lines.append(f"{src} {dst}")
    return "\n".join(lines)
