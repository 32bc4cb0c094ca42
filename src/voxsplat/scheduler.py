"""Per-tile voxel ordering: exact grid traversal and dependency-driven sort.

The pixel rays of a list of tiles are walked through the voxel grid together
with an incremental 3D DDA on one array per axis.  Every ray still inside
the grid advances one cell per step, independently of the others, so a
ray's visits do not depend on which rays share its walk; each yields the
non-empty voxels it crosses, front-to-back, put in ray order by counting.
Consecutive voxels of each ray become edges of a dependency graph, deduped
in dense key masks; a deterministic Kahn pass (nearest voxel first) emits
one global order per tile.  Conflicting per-pixel orders are geometrically
possible, so cycles are broken by releasing the nearest remaining voxel and
counted instead of treated as fatal.
"""

from __future__ import annotations

import heapq
from typing import NamedTuple

import numpy as np

from .scene import Camera, TILE_EDGE
from .voxelstore import VoxelGrid


class TileVisits(NamedTuple):
    """The ray walk of a list of tiles: the renamed ids of the non-empty
    voxels each ray crosses, ray after ray and front to back along each ray,
    and how many of them belong to each ray, one row of ``counts`` per tile
    (row-major pixel order)."""

    ids: np.ndarray
    counts: np.ndarray


class RowSchedule(NamedTuple):
    """The voxel orders of a list of tiles and the graph they come from: tile
    t visits ``ids[offsets[t]:offsets[t + 1]]`` in that order, and breaking
    its cycles released ``broken[t]`` voxels.  Its graph's nodes are
    ``nodes[offsets[t]:offsets[t + 1]]``, the renamed ids it visits in
    ascending order, and its edges the (``src``, ``dst``) node indices,
    distinct and sorted by (src, dst), between consecutive voxels of a ray."""

    ids: np.ndarray
    offsets: np.ndarray
    broken: np.ndarray
    nodes: np.ndarray
    src: np.ndarray
    dst: np.ndarray


def traverse(tiles, camera: Camera, grid: VoxelGrid) -> TileVisits:
    """Ordered non-empty voxels along each pixel ray of every tile, in one walk.

    Exact traversal: every voxel whose box the ray crosses inside the grid is
    visited, in strictly increasing ray-parameter order, truncated at grid
    exit.  Rays that miss the grid have no visits.
    """
    ntx, nty = camera.tile_counts
    for tx, ty in tiles:
        if not (0 <= tx < ntx and 0 <= ty < nty):
            raise ValueError(f"tile {(tx, ty)} outside a {ntx}x{nty} tile grid")
    # one x per column and one y per row, broadcast to (tiles, rows, columns)
    corners = np.asarray(tiles, dtype=np.int64).reshape(-1, 1, 1, 2) * TILE_EDGE
    ramp = np.arange(TILE_EDGE)
    dirs = camera.ray_directions(corners[..., 0] + ramp, corners[..., 1] + ramp[:, None])
    ids, counts = _walk(camera.position, dirs.reshape(-1, 3), grid)
    return TileVisits(ids, counts.reshape(-1, TILE_EDGE**2))


def _walk(origin: np.ndarray, dirs: np.ndarray, grid: VoxelGrid) -> tuple[np.ndarray, np.ndarray]:
    """3D DDA (Amanatides & Woo) of the rays with (rays, 3) directions ``dirs``:
    the renamed id of every non-empty voxel visit, ray after ray and front to
    back along each ray, and the number of visits of each ray.

    Each axis is one array row, so the step axis, the first smallest face
    distance as ``np.argmin`` picks it, takes two compares, and a ray leaves
    the arrays once it leaves the grid.  A ray parallel to a face far from
    the grid has slab distances that overflow to +-inf, which is the right
    answer: it misses.

    A ray is live from step 0 until it leaves the grid, so its k-th entry is
    its step k: counting each ray's steps puts the step-major entries in ray order.
    """
    lo, hi = grid.origin[:, None], (grid.origin + grid.dims * grid.edge)[:, None]
    o, dims = origin[:, None], grid.dims[:, None]
    d = dirs.T.copy()
    d[np.abs(d) < 1e-300] = 1e-300
    with np.errstate(over="ignore"):
        t_lo, t_hi = (lo - o) / d, (hi - o) / d
        near, far = np.minimum(t_lo, t_hi), np.maximum(t_lo, t_hi)
        t_enter = np.maximum(np.maximum(np.maximum(near[0], near[1]), near[2]), 0.0)
        t_exit = np.minimum(np.minimum(far[0], far[1]), far[2])
        hits = t_enter < t_exit
        rays = np.flatnonzero(hits)
        if len(rays) < len(dirs):
            d, t_enter, t_exit = np.compress(hits, d, axis=1), t_enter[rays], t_exit[rays]
        # nudge inside the box so the start cell is unambiguous
        start = o + (t_enter * (1.0 + 1e-12) + 1e-12) * d
        cell = np.minimum(np.maximum(np.floor((start - lo) / grid.edge).astype(np.int64), 0), dims - 1)
        ahead = d > 0
        # per axis: ray parameter of the next face and between faces
        times = np.concatenate([(lo + (cell + ahead) * grid.edge - o) / d,
                                grid.edge / np.abs(d), t_exit[None]])
    # per axis: steps left inside the grid and the signed stride of the flat cell index
    strides = grid.strides[:, None]
    state = np.concatenate([np.where(ahead, dims - 1 - cell, cell),
                            np.where(ahead, strides, -strides),
                            grid.vid_of_cell(cell.T)[None], rays[None]])
    rename = grid.dense_renaming()
    empty = np.empty(0, dtype=np.int64)
    out_rays, out_ids = [empty], [empty]
    while state.shape[1]:
        tx, ty, tz, dx, dy, dz, t_exit = times
        lx, ly, lz, sx, sy, sz, flat, rays = state
        out_rays.append(rays.copy())  # not a view, which would keep this state alive
        out_ids.append(rename[flat])
        x = (tx <= ty) & (tx <= tz)
        y = (ty <= tz) & ~x
        z = ~(x | y)
        live = np.minimum(np.minimum(tx, ty), tz) < t_exit
        with np.errstate(over="ignore"):  # on an axis a ray runs parallel to
            np.putmask(tx, x, tx + dx)
            np.putmask(ty, y, ty + dy)
            np.putmask(tz, z, tz + dz)
        flat += sx * x + sy * y + sz * z
        lx -= x
        ly -= y
        lz -= z
        live &= (lx | ly | lz) >= 0
        if not live.all():
            times, state = np.compress(live, times, axis=1), np.compress(live, state, axis=1)
    rays = np.concatenate(out_rays)
    steps = np.bincount(rays, minlength=len(dirs))
    slot = np.cumsum(steps) - steps  # each ray's first entry, in ray order
    ids = np.empty(len(rays), dtype=np.int64)
    for k, (r, i) in enumerate(zip(out_rays[1:], out_ids[1:])):
        ids[slot[r] + k] = i
    misses = np.bincount(rays[np.concatenate(out_ids) < 0], minlength=len(dirs))
    return ids[ids >= 0], steps - misses


def _distinct(keys: np.ndarray, space: int) -> tuple[np.ndarray, np.ndarray]:
    """``np.unique(keys, return_inverse=True)`` of int64 ``keys`` in [0, ``space``).

    Without a sort while ``space`` is at most ``8 * len(keys) + 4096``: a bool
    mask marks the keys, ``np.flatnonzero`` reads them back and the mask's
    int64 ``cumsum`` ranks them, 9 bytes per entry of ``space``.  A wider key
    space falls back to ``np.unique``.
    """
    if space > 8 * len(keys) + 4096:
        return np.unique(keys, return_inverse=True)
    mask = np.zeros(space, dtype=bool)
    mask[keys] = True
    return np.flatnonzero(mask), (np.cumsum(mask) - 1)[keys]


def _edges(local, counts, first, width: int) -> tuple[np.ndarray, np.ndarray]:
    """The distinct edges between consecutive visits of each ray, as (src, dst)
    node indices sorted by (src, dst); ``local`` is each visit's node and
    ``counts`` the visits of each ray.  Every ``dst`` lies in [``first[src]``,
    ``first[src] + width``), so the key src * width + that offset is unique."""
    # local[i] -> local[i + 1] is an edge unless a new ray starts at i + 1
    starts = np.cumsum(counts)[:-1]
    follows = np.ones(max(len(local) - 1, 0), dtype=bool)
    follows[starts[(starts > 0) & (starts < len(local))] - 1] = False
    src, dst = local[:-1][follows], local[1:][follows]
    codes = _distinct(src * width + (dst - first[src]), len(first) * width)[0]
    src = codes // width
    return src, codes % width + first[src]


def schedule(visits: TileVisits, depth: np.ndarray) -> RowSchedule:
    """One voxel order per tile of a walk, from Kahn's algorithm over that
    tile's per-pixel order constraints.

    The ready queue pops the voxel with the smallest centroid depth (ties by
    renamed id), so the output is deterministic.  If the ready queue drains
    while nodes remain, the nearest remaining voxel is released and the event
    counted.  ``depth`` is indexed by renamed id (``voxel_depths``).

    The graph of the whole walk is built once, ``_distinct`` deduping its
    (tile, renamed id) nodes and (src node, dst position in the tile) edges,
    and returned with the orders.
    When every edge of a tile runs forward in (depth, id), the heap pops the
    nodes in exactly that order: the smallest remaining node then has every
    predecessor emitted, so it is ready and the least of the ready heap.
    Such a tile takes its order from one ``np.lexsort`` and has no cycles;
    only the others run the heap.
    """
    counts = visits.counts
    tiles = len(counts)
    stride = len(depth)
    tile_of_visit = np.repeat(np.arange(tiles), counts.sum(axis=1))
    nodes, local = _distinct(tile_of_visit * stride + visits.ids, tiles * stride)
    node_tile, node_id = np.divmod(nodes, max(stride, 1))
    offsets = np.searchsorted(node_tile, np.arange(tiles + 1))
    src, dst = _edges(local, counts, offsets[node_tile], int(np.diff(offsets).max(initial=0)))
    node_depth = depth[node_id]
    ds, dd = node_depth[src], node_depth[dst]
    forward = (ds < dd) | ((ds == dd) & (node_id[src] < node_id[dst]))
    order = np.lexsort((node_id, node_depth, node_tile))
    broken = np.zeros(tiles, dtype=np.int64)
    for t in _distinct(node_tile[src[~forward]], tiles)[0].tolist():
        a, b = offsets[t], offsets[t + 1]
        lo, hi = np.searchsorted(src, [a, b])
        order[a:b], broken[t] = _kahn(node_depth[a:b].tolist(), src[lo:hi] - a, dst[lo:hi] - a)
        order[a:b] += a
    return RowSchedule(node_id[order], offsets, broken, node_id, src, dst)


def _kahn(depth: list, src: np.ndarray, dst: np.ndarray) -> tuple[list[int], int]:
    """Heap Kahn over one tile's nodes, which ascend by renamed id, so the heap
    key (depth, node index) orders exactly like (depth, renamed id); returns
    (node indices in emitted order, cycles broken)."""
    n = len(depth)
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
    return emitted, broken


def voxel_depths(camera: Camera, grid: VoxelGrid) -> np.ndarray:
    """Camera-space z of every non-empty voxel's center, indexed by renamed id."""
    return camera.to_camera(grid.centers(np.arange(grid.nonempty_count)))[:, 2]
