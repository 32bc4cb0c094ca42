"""Test-only reference implementations of the vectorized hot loops.

These are the straightforward per-splat and per-visit forms that the
production code must match bit for bit.  They live here, not in the
package, so there is exactly one blend, one ray-table builder, one
scheduler and one filter chain to ship.

``encode_per_voxel``, ``cbp_loss_loop`` and ``per_voxel_crossings_loop``
are the per-voxel and per-element forms of the store encoder and the two
metrics.

The filter-chain oracles take the per-tile signatures of ``coarse_filter``,
``stream_fine`` and ``fine_filter`` but ignore the frame's projection cache:
every visit projects its voxel again, and ``stream_fine_per_visit`` decodes
the survivors only (``survivor_rows``), so ``fine_filter_per_visit``
projects just those and sorts them with ``sorted_by_depth``.  The two fine
oracles must be patched in together.
"""

from __future__ import annotations

import heapq

import numpy as np

from voxsplat.blending import ALPHA_CAP, ALPHA_MIN, T_FREEZE
from voxsplat.filtering import (
    COARSE_MACS,
    FINE_MACS,
    coarse_screen_radius,
    disc_overlaps_rect,
    project_means,
    project_splats,
)
from voxsplat.metrics import extent_boxes
from voxsplat.scene import TILE_EDGE
from voxsplat.scheduler import TileVisits, _ray_visits
from voxsplat.voxelstore import ENCODED_FINE_BYTES, RAW_FINE_STREAM_BYTES
from voxsplat.vq import ATTRIBUTES, nearest_indices


def blend_per_splat(batch, centers, color, transmittance, trace=None, pixel_trace=None) -> int:
    """One splat at a time over all 256 pixels; same contract as ``blend``."""
    n = 0
    for i in range(len(batch)):
        active = transmittance >= T_FREEZE
        if not active.any():
            break
        n += 1
        if trace is not None:
            trace.append((float(batch.depth[i]), float(batch.max_scale[i])))
        d = centers - batch.mean2d[i]
        a, b, c = batch.conic[i]
        power = -0.5 * (a * d[:, 0] ** 2 + c * d[:, 1] ** 2) - b * d[:, 0] * d[:, 1]
        alpha = np.minimum(ALPHA_CAP, batch.opacity[i] * np.exp(power))
        hit = active & (alpha >= ALPHA_MIN)
        if pixel_trace is not None and hit[pixel_trace[0]]:
            pixel_trace[1].append((float(batch.depth[i]), float(batch.max_scale[i])))
        if not hit.any():
            continue
        w = transmittance[hit] * alpha[hit]
        color[hit] += w[:, None] * batch.rgb[i]
        transmittance[hit] *= 1.0 - alpha[hit]
    return n


def walk_rays_per_visit(origin, dirs, grid) -> list[list[int]]:
    """Ray table built by appending every (ray, step, voxel) visit, then sorting."""
    visits = []
    for step_idx, vr in enumerate(_ray_visits(origin, dirs, grid).T):
        for ray in np.flatnonzero(vr >= 0):
            visits.append((int(ray), step_idx, int(vr[ray])))
    table = [[] for _ in range(len(dirs))]
    for ray, _, vid_r in sorted(visits):
        table[ray].append(vid_r)
    return table


def visits_of(rows) -> TileVisits:
    """The array form of a walk given as one list of renamed ids per ray."""
    ids = np.array([v for row in rows for v in row], dtype=np.int64)
    return TileVisits(ids, np.array([len(row) for row in rows], dtype=np.int64))


def rows_of(visits) -> list[list[int]]:
    """One list of renamed ids per ray, read off a walk's arrays."""
    ids = visits.ids.tolist()
    ends = np.cumsum(visits.counts).tolist()
    return [ids[b:e] for b, e in zip([0] + ends[:-1], ends)]


def depth_table(depths) -> np.ndarray:
    """A {renamed id: depth} dict as the renamed-id-indexed array ``schedule`` reads."""
    table = np.full(max(depths, default=-1) + 1, np.nan)
    for v, z in depths.items():
        table[v] = z
    return table


def traverse_per_visit(tiles, camera, grid) -> list[TileVisits]:
    """``traverse`` one tile at a time, with pixel coordinates from np.mgrid
    and each ray table from ``walk_rays_per_visit``."""
    ys, xs = np.mgrid[0:TILE_EDGE, 0:TILE_EDGE]
    out = []
    for tx, ty in tiles:
        dirs = camera.ray_directions(tx * TILE_EDGE + xs.ravel(), ty * TILE_EDGE + ys.ravel())
        out.append(visits_of(walk_rays_per_visit(camera.position, dirs, grid)))
    return out


def schedule_dict_based(visits, depth):
    """Kahn's algorithm over dict/set adjacency; same contract as ``schedule``."""
    table = rows_of(visits)
    depths = {v: float(depth[v]) for row in table for v in row}
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
    broken = 0
    remaining = dict(indegree)
    ready = [(depths[v], v) for v, deg in sorted(remaining.items()) if deg == 0]
    heapq.heapify(ready)
    emitted: list[int] = []
    done: set[int] = set()
    while len(emitted) < len(remaining):
        if not ready:
            broken += 1
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
    return emitted, broken


def coarse_filter_per_visit(cache, rect, vid_r, positions, max_scales, stats):
    """Coarse test that projects the voxel on every visit."""
    camera = cache.camera
    n = len(positions)
    cam, depth, mean2d = project_means(camera, positions)
    radius = coarse_screen_radius(camera, cam, max_scales)
    mask = (depth > camera.near) & disc_overlaps_rect(mean2d, radius, rect)
    stats.loaded += n
    stats.macs_coarse += COARSE_MACS * n
    stats.coarse_survivors += int(mask.sum())
    return mask


def survivor_rows(survivors, count):
    """The rows of a ``count``-splat voxel that the per-visit oracles decode
    and project for ``survivors``.

    ``fine_filter`` projects the whole voxel.  On one row,
    ``Camera.to_camera`` takes BLAS's matrix-vector path, on more the
    matrix-matrix path, and under an oblique camera the two can differ in
    the last bit.  So a lone survivor of a larger voxel is projected beside
    a copy of itself, and ``fine_filter_per_visit`` keeps the first row.
    """
    if len(survivors) == 1 and count > 1:
        return np.concatenate([survivors, survivors])
    return survivors


def stream_fine_per_visit(records, vid_r, survivors, books, ledger, *, decode):
    """Charges like ``stream_fine`` but always decodes, and only the survivors
    (``survivor_rows``), each gathered on its own from the voxel's rows."""
    survivors = np.asarray(survivors, dtype=np.int64)
    n = len(survivors)
    start, stop = records.offsets[vid_r], records.offsets[vid_r + 1]
    rows = start + survivor_rows(survivors, stop - start)
    if records.encoded:
        ledger.charge("fine-load", ENCODED_FINE_BYTES * n, n)
        scales = books["scale"].entries[records.scale_idx[rows]].astype(np.float64)
        rots = books["rotation"].entries[records.rot_idx[rows]].astype(np.float64)
        norms = np.linalg.norm(rots, axis=1, keepdims=True)
        norms[norms == 0.0] = 1.0
        rots = rots / norms
        dc = books["dc"].entries[records.dc_idx[rows]].astype(np.float64)
        rest = books["sh_rest"].entries[records.sh_idx[rows]].astype(np.float64)
        sh = np.concatenate([dc[:, None, :], rest.reshape(len(rows), 15, 3)], axis=1)
    else:
        ledger.charge("fine-load", RAW_FINE_STREAM_BYTES * n, n)
        scales, rots, sh = records.scales[rows], records.rotations[rows], records.sh[rows]
    return (records.positions[rows], scales, rots, records.opacities[rows], sh, records.ids[rows])


def fine_filter_per_visit(cache, rect, vid_r, survivors, splats, stats):
    """Projects the survivors ``stream_fine_per_visit`` decoded, then sorts."""
    n = len(survivors)
    stats.macs_fine += FINE_MACS * n
    valid, batch, _ = project_splats(cache.camera, *splats)
    valid, batch = valid[:n], batch.take(np.arange(n))  # drop survivor_rows's copy
    stats.degenerate += int(np.count_nonzero((batch.depth > cache.camera.near) & ~valid))
    mask = valid & disc_overlaps_rect(batch.mean2d, batch.radius, rect)
    stats.fine_survivors += int(mask.sum())
    return batch.take(np.flatnonzero(mask)).sorted_by_depth()


def encode_per_voxel(records, books) -> list[np.ndarray]:
    """The index arrays of ``encode_records`` in ``ATTRIBUTES`` order, from
    one ``nearest_indices`` call per voxel and attribute."""
    parts = {name: [np.empty(0, dtype=np.int64)] for name in ATTRIBUTES}
    for r in range(len(records)):
        rows = records.rows(r)
        sh = records.sh[rows]
        vectors = {
            "scale": records.scales[rows].copy(),
            "rotation": records.rotations[rows].copy(),
            "dc": sh[:, 0, :].copy(),
            "sh_rest": sh[:, 1:, :].reshape(len(sh), 45),
        }
        for name in ATTRIBUTES:
            parts[name].append(nearest_indices(vectors[name], books[name]))
    return [np.concatenate(parts[name]) for name in ATTRIBUTES]


def cbp_loss_loop(render_order) -> float:
    """``cbp_loss`` one trace entry at a time."""
    order = list(render_order)
    if not order:
        return 0.0
    total = 0.0
    running_max = -np.inf
    for depth, s in order:
        if depth < running_max:
            total += s
        running_max = max(running_max, depth)
    return total / len(order)


def per_voxel_crossings_loop(scene, grid) -> dict:
    """``cross_boundary_stats(...)["per_voxel"]`` counted one splat at a time."""
    lo, hi = extent_boxes(scene)
    cells = grid.cell_of(scene.positions)
    vox_lo = grid.origin + cells * grid.edge
    crossing = np.any((lo < vox_lo) | (hi > vox_lo + grid.edge), axis=1)
    rename = grid.dense_renaming()
    vids = grid.vid_of_cell(cells)
    per_voxel: dict[int, int] = {}
    for i in np.flatnonzero(crossing):
        vid_r = int(rename[vids[i]])
        per_voxel[vid_r] = per_voxel.get(vid_r, 0) + 1
    return per_voxel
