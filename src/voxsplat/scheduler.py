"""Per-tile voxel ordering: exact grid traversal and one visibility key per frame.

The pixel rays of a list of tiles are walked through the voxel grid together
with an incremental 3D DDA on one array per axis.  Every ray still inside
the grid advances one cell per step, independently of the others, so a
ray's visits do not depend on which rays share its walk; each yields the
non-empty voxels it crosses, front-to-back, put in ray order by counting.

Each tile streams the distinct voxels its rays visit in the order of one
per-frame key, ``visibility_key``: the Manhattan distance in cells from the
eye's cell, then voxel depth, then renamed id, a viewpoint-only order of the
grid (Frieder, Gordon & Reynolds, IEEE CG&A 1985).  That order is a linear
extension of every ray's visits, for any pinhole camera, because the
distance rises by exactly one at every DDA step of ``_walk``:

* Let e be the eye's cell, ``floor((o - origin) / edge)`` per axis as
  ``VoxelGrid.cell_of`` computes it from the eye o, and d the walk's
  direction once it has replaced every component smaller than 1e-300 in
  magnitude with +1e-300.  The nudged start o + s d has s > 0, so on each
  axis it rounds to a coordinate on d's side of o, or to o; subtracting the
  origin, dividing by the edge and flooring are monotone, so the start's
  cell c has (c - e) d >= 0.  Clamping c into [0, dims - 1] moves it with d,
  or against d onto the grid's last cell in d's direction, from which a step
  on that axis leaves the grid: such an axis never steps inside the grid.
* A step moves one axis one cell in the sign of d on that axis, so (c - e) d
  >= 0 still holds on it and |c - e| grows by one on it and by none on the
  others.  The distance therefore rises strictly along each ray and
  between its consecutive non-empty visits, no two voxels of one ray share
  it, and the depth and id ties never reorder a ray.
* A component the walk replaced with +1e-300 takes the same argument with
  the + sign, and in practice it never steps: its next face lies
  (face - o) / 1e-300 along the ray, beyond the grid exit of any ray that
  meets the grid unless the eye sits within about 1e-300 exit lengths of
  that face, where a step it took would still be a + step.

So no per-pixel orders of one eye and an axis-aligned grid conflict, and a
tile's order needs no dependency graph: one ``_distinct`` over (tile, key)
pairs gives every tile of a row its order.
"""

from __future__ import annotations

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
    """The voxel orders of a list of tiles: tile t visits
    ``ids[offsets[t]:offsets[t + 1]]`` in that order."""

    ids: np.ndarray
    offsets: np.ndarray


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


def _distinct(keys: np.ndarray, space: int) -> np.ndarray:
    """``np.unique(keys)`` of int64 ``keys`` in [0, ``space``).

    Without a sort while ``space`` is at most ``8 * len(keys) + 4096``: a bool
    mask marks the keys and ``np.flatnonzero`` reads them back, 1 byte per
    entry of ``space``.  A wider key space falls back to ``np.unique``.
    """
    if space > 8 * len(keys) + 4096:
        return np.unique(keys)
    mask = np.zeros(space, dtype=bool)
    mask[keys] = True
    return np.flatnonzero(mask)


def schedule(visits: TileVisits, key: np.ndarray) -> RowSchedule:
    """One voxel order per tile of a walk: the distinct voxels the tile's rays
    visit, ascending in ``key``, a permutation of the renamed ids
    (``visibility_key``).  ``_distinct`` dedupes the walk's (tile, key)
    pairs in ascending order, which is every tile's order at once."""
    tiles, n = len(visits.counts), len(key)
    tile_of_visit = np.repeat(np.arange(tiles), visits.counts.sum(axis=1))
    node_tile, rank = np.divmod(_distinct(tile_of_visit * n + key[visits.ids], tiles * n),
                                max(n, 1))
    by_rank = np.empty_like(key)
    by_rank[key] = np.arange(n)
    return RowSchedule(by_rank[rank], np.searchsorted(node_tile, np.arange(tiles + 1)))


def voxel_depths(camera: Camera, grid: VoxelGrid) -> np.ndarray:
    """Camera-space z of every non-empty voxel's center, indexed by renamed id."""
    return camera.to_camera(grid.centers(np.arange(grid.nonempty_count)))[:, 2]


def visibility_key(camera: Camera, grid: VoxelGrid, depth: np.ndarray) -> np.ndarray:
    """Every non-empty voxel's place in the frame's visibility order, indexed
    by renamed id: by Manhattan distance in cells from the eye's cell, then
    by ``depth`` (``voxel_depths``), then by renamed id.

    The eye's cell is clipped to one cell past the grid, so a far eye cannot
    overflow int64.  Every voxel lies on one side of a clipped axis, whose
    distance the clip then shifts by the same amount for all of them: the
    order is that of the unclipped cell.
    """
    eye = np.clip(np.floor((camera.position - grid.origin) / grid.edge), -1, grid.dims)
    distance = np.abs(grid.cell_of_vid(grid.vids) - eye.astype(np.int64)).sum(axis=1)
    key = np.empty(len(depth), dtype=np.int64)
    key[np.lexsort((depth, distance))] = np.arange(len(depth))
    return key
