"""Per-tile voxel ordering: exact grid traversal and dependency-driven sort.

The pixel rays of a list of tiles are walked through the voxel grid together
with an incremental 3D DDA.  Every ray advances in lockstep but
independently of the others, so a ray's visits do not depend on which rays
share its walk; each yields the non-empty voxels it crosses, front-to-back.
Consecutive voxels of each ray become edges of a dependency graph; a
deterministic Kahn pass (nearest voxel first) emits one global order per
tile.  Conflicting per-pixel orders are geometrically possible, so cycles
are broken by releasing the nearest remaining voxel and counted instead of
treated as fatal.
"""

from __future__ import annotations

import heapq
from typing import NamedTuple

import numpy as np

from .scene import Camera, TILE_EDGE, tile_pixels
from .voxelstore import VoxelGrid


class TileVisits(NamedTuple):
    """One tile's ray walk: the renamed ids of the non-empty voxels each ray
    crosses, ray after ray and front to back along each ray, and how many of
    them belong to each ray (row-major pixel order)."""

    ids: np.ndarray
    counts: np.ndarray


def traverse(tiles, camera: Camera, grid: VoxelGrid) -> list[TileVisits]:
    """Ordered non-empty voxels along each pixel ray of every tile, in one walk.

    Exact traversal: every voxel whose box the ray crosses inside the grid is
    visited, in strictly increasing ray-parameter order, truncated at grid
    exit.  Rays that miss the grid have no visits.
    """
    ntx, nty = camera.tile_counts
    for tx, ty in tiles:
        if not (0 <= tx < ntx and 0 <= ty < nty):
            raise ValueError(f"tile {(tx, ty)} outside a {ntx}x{nty} tile grid")
    pixels = tile_pixels(tiles).reshape(-1, 2)
    visits = _ray_visits(camera.position, camera.ray_directions(pixels[:, 0], pixels[:, 1]), grid)
    hit = visits >= 0
    ids = visits[hit]  # row-major: ray after ray, each in step order
    counts = np.count_nonzero(hit, axis=1).reshape(len(pixels) // TILE_EDGE**2, TILE_EDGE**2)
    bounds = np.concatenate([[0], np.cumsum(counts.sum(axis=1))]).tolist()
    return [TileVisits(ids[b:e], c) for b, e, c in zip(bounds, bounds[1:], counts)]


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


def dependency_graph(visits: TileVisits) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The distinct voxels of a ray walk and the distinct edges between
    consecutive voxels of each ray.

    Returns (nodes, src, dst): ``nodes`` ascending renamed ids, ``src`` and
    ``dst`` indices into ``nodes``, one entry per edge, sorted by (src, dst).
    """
    ids, counts = visits
    nodes, local = np.unique(ids, return_inverse=True)
    # ids[i] -> ids[i + 1] is an edge unless a new ray starts at i + 1
    starts = np.cumsum(counts)[:-1]
    follows = np.ones(max(len(ids) - 1, 0), dtype=bool)
    follows[starts[(starts > 0) & (starts < len(ids))] - 1] = False
    codes = np.unique(local[:-1][follows] * len(nodes) + local[1:][follows])
    return nodes, codes // len(nodes), codes % len(nodes)


def schedule(visits: TileVisits, depth: np.ndarray) -> tuple[list[int], int]:
    """Kahn's algorithm over the per-pixel order constraints; returns (order,
    cycles broken).

    The ready queue pops the voxel with the smallest centroid depth (ties by
    renamed id), so the output is deterministic.  If the ready queue drains
    while nodes remain, the nearest remaining voxel is released and the event
    counted.  ``depth`` is indexed by renamed id
    (``voxel_depths``).  Nodes are ascending renamed ids, so the heap key
    (depth, node index) orders exactly like (depth, renamed id).
    """
    nodes, src, dst = dependency_graph(visits)
    n = len(nodes)
    ids = nodes.tolist()
    depth = depth[nodes].tolist()
    remaining = np.bincount(dst, minlength=n).tolist()
    bounds = np.searchsorted(src, np.arange(n + 1)).tolist()
    successors = dst.tolist()
    broken = 0
    ready = [(depth[i], i) for i in range(n) if remaining[i] == 0]
    heapq.heapify(ready)
    emitted: list[int] = []
    done = [False] * n
    while len(emitted) < n:
        if not ready:
            broken += 1
            forced = min((depth[i], i) for i in range(n) if not done[i])[1]
            remaining[forced] = 0
            heapq.heappush(ready, (depth[forced], forced))
            continue
        _, v = heapq.heappop(ready)
        if done[v]:
            continue
        done[v] = True
        emitted.append(v)
        for succ in successors[bounds[v] : bounds[v + 1]]:
            if done[succ]:
                continue
            remaining[succ] -= 1
            if remaining[succ] == 0:
                heapq.heappush(ready, (depth[succ], succ))
    return [ids[i] for i in emitted], broken


def voxel_depths(camera: Camera, grid: VoxelGrid) -> np.ndarray:
    """Camera-space z of every non-empty voxel's center, indexed by renamed id."""
    return camera.to_camera(grid.centers(np.arange(grid.nonempty_count)))[:, 2]


def dump_edges(visits: TileVisits) -> str:
    """Dependency edges as sorted 'src dst' lines, for graph debugging.

    Rays are independent, so the walk may hold the rays of many tiles: the
    dump is then the union of their edges.
    """
    nodes, src, dst = dependency_graph(visits)
    return "\n".join(f"{a} {b}" for a, b in zip(nodes[src].tolist(), nodes[dst].tolist()))
