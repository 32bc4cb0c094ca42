"""Test-only reference implementations of the vectorized hot loops.

These are the straightforward per-splat and per-visit forms that the
production code must match bit for bit.  They live here, not in the
package, so there is exactly one blend, one ray walk, one ray-table
builder, one scheduler and one filter chain to ship.

``blend_per_splat`` reads the projection by row, as ``blend`` does, and can
also collect each tile's processed rows; ``take`` copies rows of a
projection, as the renderers did before ``blend`` read it by row.

``ray_visits_dense`` is the DDA ray walk on dense (rays, steps) arrays, every
ray advanced every step, as it stood before the walk stepped per axis over
live rays only; ``dda_start`` is its state before the first step.

``encode_per_voxel``, ``cbp_loss_loop`` and ``per_voxel_crossings_loop``
are the per-voxel and per-element forms of the store encoder and the two
metrics.

``traverse_argsort`` is the row walk as it stood before it went sort-free:
the walk's step-major visits put in ray order by a stable ``np.argsort``,
its directions built from a ``tile_pixels`` array.
``dependency_graph_unique`` is the graph of consecutive visits along each
ray of a walk, its nodes and edges deduplicated by ``np.unique`` over all
its tiles at once, one tile's graph when the walk holds one.
``visibility_sorted`` orders a walk's voxels with a plain ``sorted`` on the
visibility key, computed voxel by voxel from the grid's cells.

``render_tile_per_visit`` is the streaming renderer's tile loop one (tile,
voxel) visit at a time, as it stood before tiles were batched by row: the
``visibility_sorted`` order, then per scheduled voxel a coarse test, a fine
test and one ``blend`` call per sorting-buffer chunk, with the walk cut at
the first voxel that finds every pixel frozen, or with ``early_exit=False``
never cut: the exhaustive render that early exit must equal pixel for
pixel.  The ledger charges each visit's halves through one on-chip buffer
of ``traffic.BUFFER_BYTES``: a deque of each earlier tile's held sets, one
Python set of voxel ids and one of coarse-surviving record rows, with the
tile's footprint in bytes; a tile drops the oldest tiles until the
footprints fit with its own and reads from DRAM only the halves none of the
rest holds.  ``render_frame_per_visit`` assembles a frame from its tiles,
all streamed in raster order through one deque, and sums their
counters with ``add_counters``.  Its filter oracles keep no projection
cache: every visit projects its voxel again, and ``stream_fine_per_visit``
decodes the survivors only, so ``fine_filter_per_visit`` projects just
those and sorts them by (depth, id) on its own.

``render_frame_reference_per_tile`` is the reference renderer as it stood
before it binned a tile row's splats in one sort: per tile, the disc test
over every valid splat, then a (depth, id) lexsort of the members and one
``blend`` call for that one tile.

``quat_to_rotmat_row_major``, ``projected_covariance_einsum``,
``sh_basis_row_major``, ``evaluate_sh_row_major`` and ``extent_half_einsum``
are the projection's small-matrix math as it stood before it was written out
entry by entry: row-major (n, rows, cols) matrices multiplied by
``np.einsum``, whose summation order the entry-wise forms reproduce.
``einsum`` picks that order from the operands' memory layout, so these
oracles must keep the row-major layout they were written for.

``frobenius_coarse_radius`` is the coarse screen radius as it stood before
it followed the Jacobian's spectral norm: the Frobenius norm, which is
sqrt(2) too large on the optical axis, with the low-pass dilation added
outside the square root as an additive margin.  Every fine survivor passes
both, so swapping it in may change the coarse survivors and nothing the
fine test keeps.

``scene_from_ply_per_column`` is the PLY loader's colour block filled one
column at a time, as it stood before one cast filled it.

``scene_fingerprint`` is the hash of a scene's values in id order that the
package stamped on ledgers before a store's ``scene_hash`` became its file
digest; tests use it for a hash string and to pin ``generate_scene``.
``save_store_v1`` writes store version 1, one block per voxel, and
``store_v1_blocks`` splits such a file into its parts.
"""

from __future__ import annotations

import hashlib
import struct
from collections import deque
from dataclasses import fields, is_dataclass
from typing import NamedTuple

import numpy as np

import voxsplat.streaming as streaming_mod
import voxsplat.traffic as traffic_mod
from voxsplat.blending import ALPHA_CAP, ALPHA_MIN, T_FREEZE, blend, composite_background
from voxsplat.filtering import (
    COARSE_MACS,
    COARSE_SAFETY,
    COVARIANCE_DILATION,
    FINE_MACS,
    RADIUS_SIGMAS,
    ProjectedBatch,
    coarse_screen_radius,
    disc_overlaps_rect,
    project_means,
    project_splats,
    tile_rects,
)
from voxsplat.errors import PlySchemaError
from voxsplat.metrics import EXTENT_SIGMAS, extent_boxes
from voxsplat.scene import TILE_EDGE, Scene, tile_pixels
from voxsplat.scheduler import TileVisits, voxel_depths
from voxsplat.sh import C0, C1, C2, C3, SH_COEFFS
from voxsplat.streaming import StreamStats
from voxsplat.traffic import (
    PIXEL_BYTES,
    PROJECTED_RECORD_BYTES,
    PROJECTION_LOAD_BYTES,
    TrafficLedger,
    merge_sort_pass_bytes,
)
from voxsplat.voxelstore import (
    COARSE_BYTES_PER_GAUSSIAN,
    ENCODED_FINE_BYTES,
    RAW_FINE_STREAM_BYTES,
)
from voxsplat.vq import ATTRIBUTES, nearest_indices


def take(batch, idx):
    """A copy of rows ``idx`` of every field of a ``ProjectedBatch``."""
    return ProjectedBatch(*[getattr(batch, f)[idx] for f in ProjectedBatch.__dataclass_fields__])


def blend_per_splat(batch, rows, bounds, centers, color, transmittance, pixel_trace=None,
                    trace=None) -> np.ndarray:
    """One tile after another, one splat at a time over all 256 pixels; same
    contract as ``blend``.  ``trace`` holds one list per tile, which collects
    the row of every splat processed, in blend order."""
    processed = np.zeros(len(centers), dtype=np.int64)
    for t in range(len(centers)):
        for i in rows[bounds[t] : bounds[t + 1]].tolist():
            active = transmittance[t] >= T_FREEZE
            if not active.any():
                break
            processed[t] += 1
            if trace is not None:
                trace[t].append(i)
            d = centers[t] - batch.mean2d[i]
            a, b, c = batch.conic[i]
            power = -0.5 * (a * d[:, 0] ** 2 + c * d[:, 1] ** 2) - b * d[:, 0] * d[:, 1]
            alpha = np.minimum(ALPHA_CAP, batch.opacity[i] * np.exp(power))
            hit = active & (alpha >= ALPHA_MIN)
            if pixel_trace is not None and hit[pixel_trace[0]]:
                pixel_trace[1][t].append(i)
            if not hit.any():
                continue
            w = transmittance[t, hit] * alpha[hit]
            color[t, hit] += w[:, None] * batch.rgb[i]
            transmittance[t, hit] *= 1.0 - alpha[hit]
    return processed


class DdaStart(NamedTuple):
    """The dense walk's per-ray state before its first step; rows are rays,
    columns axes."""

    t_enter: np.ndarray
    t_exit: np.ndarray
    cell: np.ndarray
    step: np.ndarray
    t_next: np.ndarray
    t_delta: np.ndarray


def dda_start(origin, dirs, grid) -> DdaStart:
    """Slab entry and exit, start cell and face distances of each ray.  The
    slab distances of a ray parallel to a face far from the grid overflow
    to +-inf, which is the right answer: it misses."""
    lo = grid.origin
    hi = grid.origin + grid.dims * grid.edge

    d = np.where(np.abs(dirs) < 1e-300, 1e-300, dirs)
    with np.errstate(over="ignore"):
        t_lo = (lo[None, :] - origin[None, :]) / d
        t_hi = (hi[None, :] - origin[None, :]) / d
    t_enter = np.maximum(np.minimum(t_lo, t_hi).max(axis=1), 0.0)
    t_exit = np.maximum(t_lo, t_hi).min(axis=1)

    # nudge inside the box so the start cell is unambiguous; a ray that
    # misses may start past the int64 range, and its cell is never read
    start = origin[None, :] + (t_enter * (1.0 + 1e-12) + 1e-12)[:, None] * d
    with np.errstate(invalid="ignore"):
        cell = np.floor((start - lo[None, :]) / grid.edge).astype(np.int64)
    cell = np.clip(cell, 0, np.asarray(grid.dims) - 1)

    step = np.where(d > 0, 1, -1).astype(np.int64)
    next_face = lo[None, :] + (cell + (step > 0)) * grid.edge
    with np.errstate(over="ignore"):
        t_next = (next_face - origin[None, :]) / d
        t_delta = grid.edge / np.abs(d)
    return DdaStart(t_enter, t_exit, cell, step, t_next, t_delta)


def ray_visits_dense(origin, dirs, grid) -> np.ndarray:
    """(rays, steps) renamed ids of the non-empty voxel each ray is in at each
    DDA step, -1 where the ray is in an empty voxel or has left the grid.

    The walk as it stood before ``scheduler.traverse`` stepped per axis over
    live rays only: every ray advances every step, on (rays, 3) arrays.
    """
    n = len(dirs)
    rename = grid.dense_renaming()
    t_enter, t_exit, cell, step, t_next, t_delta = dda_start(origin, dirs, grid)
    active = t_enter < t_exit

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


def walk_rays_per_visit(origin, dirs, grid) -> list[list[int]]:
    """Ray table built by appending every (ray, step, voxel) visit of
    ``ray_visits_dense``, then sorting."""
    visits = []
    for step_idx, vr in enumerate(ray_visits_dense(origin, dirs, grid).T):
        for ray in np.flatnonzero(vr >= 0):
            visits.append((int(ray), step_idx, int(vr[ray])))
    table = [[] for _ in range(len(dirs))]
    for ray, _, vid_r in sorted(visits):
        table[ray].append(vid_r)
    return table


def visits_of(rows) -> TileVisits:
    """The array form of a one-tile walk given as one list of renamed ids per
    ray: ``counts`` is one (1, rays) row."""
    ids = np.array([v for row in rows for v in row], dtype=np.int64)
    return TileVisits(ids, np.array([[len(row) for row in rows]], dtype=np.int64))


def tiles_of(visits) -> list[TileVisits]:
    """A many-tile walk split into one walk per tile."""
    counts = visits.counts.reshape(-1, visits.counts.shape[-1])
    bounds = np.concatenate([[0], np.cumsum(counts.sum(axis=1))]).tolist()
    return [TileVisits(visits.ids[b:e], c) for b, e, c in zip(bounds, bounds[1:], counts)]


def rows_of(visits) -> list[list[int]]:
    """One list of renamed ids per ray, read off a walk's arrays."""
    ids = visits.ids.tolist()
    ends = np.cumsum(visits.counts).tolist()
    return [ids[b:e] for b, e in zip([0] + ends[:-1], ends)]


def key_table(depths) -> np.ndarray:
    """A {renamed id: depth} dict as the key ``schedule`` reads: every id up to
    the largest ranked by (depth, id), the ids without a depth last."""
    table = np.full(max(depths, default=-1) + 1, np.inf)
    for v, z in depths.items():
        table[v] = z
    key = np.empty(len(table), dtype=np.int64)
    key[np.argsort(table, kind="stable")] = np.arange(len(table))
    return key


def visibility_sorted(visits, camera, grid) -> list[int]:
    """The distinct renamed ids of a walk, put in order by ``sorted`` on
    (Manhattan distance in cells of the voxel from the eye's cell, the
    voxel's depth, renamed id)."""
    eye = grid.cell_of(camera.position)
    depth = voxel_depths(camera, grid).tolist()

    def key(v):
        return int(np.abs(grid.cell_of_vid(grid.vids[v]) - eye).sum()), depth[v], v

    return sorted(set(visits.ids.tolist()), key=key)


def traverse_per_visit(tiles, camera, grid) -> TileVisits:
    """``traverse`` one tile at a time, with pixel coordinates from np.mgrid
    and each ray table from ``walk_rays_per_visit``."""
    ys, xs = np.mgrid[0:TILE_EDGE, 0:TILE_EDGE]
    table = []
    for tx, ty in tiles:
        dirs = camera.ray_directions(tx * TILE_EDGE + xs.ravel(), ty * TILE_EDGE + ys.ravel())
        table += walk_rays_per_visit(camera.position, dirs, grid)
    ids, counts = visits_of(table)
    return TileVisits(ids, counts.reshape(len(tiles), TILE_EDGE * TILE_EDGE))


def walk_argsort(origin, dirs, grid) -> tuple[np.ndarray, np.ndarray]:
    """The ray and renamed id of every non-empty voxel visit of the rays
    ``dirs``, emitted step after step by the per-axis DDA, then put in ray
    order by a stable sort."""
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
        d, t_enter, t_exit = np.compress(hits, d, axis=1), t_enter[rays], t_exit[rays]
        start = o + (t_enter * (1.0 + 1e-12) + 1e-12) * d
        cell = np.clip(np.floor((start - lo) / grid.edge).astype(np.int64), 0, dims - 1)
        ahead = d > 0
        times = np.concatenate([(lo + (cell + ahead) * grid.edge - o) / d,
                                grid.edge / np.abs(d), t_exit[None]])
    strides = np.array([1, grid.dims[0], grid.dims[0] * grid.dims[1]])[:, None]
    state = np.concatenate([np.where(ahead, dims - 1 - cell, cell),
                            np.where(ahead, strides, -strides),
                            grid.vid_of_cell(cell.T)[None], rays[None]])
    rename = grid.dense_renaming()
    empty = np.empty(0, dtype=np.int64)
    out_rays, out_ids = [empty], [empty]
    while state.shape[1]:
        tx, ty, tz, dx, dy, dz, t_exit = times
        lx, ly, lz, sx, sy, sz, flat, rays = state
        out_rays.append(rays.copy())
        out_ids.append(rename[flat])
        x = (tx <= ty) & (tx <= tz)
        y = (ty <= tz) & ~x
        z = ~(x | y)
        live = np.minimum(np.minimum(tx, ty), tz) < t_exit
        with np.errstate(over="ignore"):
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
    rays, ids = np.concatenate(out_rays), np.concatenate(out_ids)
    hit = ids >= 0
    rays, ids = rays[hit], ids[hit]
    order = np.argsort(rays, kind="stable")
    return rays[order], ids[order]


def traverse_argsort(tiles, camera, grid) -> TileVisits:
    """``traverse`` on ``walk_argsort``, with one direction per ``tile_pixels`` pixel."""
    pixels = tile_pixels(tiles).reshape(-1, 2)
    dirs = camera.ray_directions(pixels[:, 0], pixels[:, 1])
    rays, ids = walk_argsort(camera.position, dirs, grid)
    counts = np.bincount(rays, minlength=len(pixels))
    return TileVisits(ids, counts.reshape(len(pixels) // TILE_EDGE**2, TILE_EDGE**2))


def edges_unique(local, counts, n) -> tuple[np.ndarray, np.ndarray]:
    """The distinct (src, dst) edges between consecutive visits of each ray,
    from ``np.unique`` over src * n + dst."""
    starts = np.cumsum(counts)[:-1]
    follows = np.ones(max(len(local) - 1, 0), dtype=bool)
    follows[starts[(starts > 0) & (starts < len(local))] - 1] = False
    codes = np.unique(local[:-1][follows] * n + local[1:][follows])
    return codes // max(n, 1), codes % max(n, 1)


def dependency_graph_unique(visits) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The graph of a walk over all its tiles as (nodes, src, dst): ``nodes``
    the ascending renamed ids from ``np.unique`` and ``src``, ``dst`` indices
    into them from ``edges_unique``."""
    nodes, local = np.unique(visits.ids, return_inverse=True)
    return (nodes, *edges_unique(local, visits.counts, len(nodes)))


def render_tile_per_visit(tile, camera, grid, records, books, background=(0.0, 0.0, 0.0),
                          early_exit=True, held=None):
    """One tile, visit by visit; returns (color, ledger, stats).  The sorting
    buffer is ``streaming.VOXEL_BATCH_CAPACITY`` and the on-chip buffer
    ``traffic.BUFFER_BYTES`` as they read at call time.  ``held`` is the
    deque of (voxel ids, record rows, footprint) of the tiles streamed
    before this one, oldest first, each footprint the bytes of that tile's
    voxels' first halves and its coarse survivors' second halves.  Once the
    tile has streamed, it drops the oldest tiles until their footprints fit
    in the buffer with its own, charges every visit's halves that none of
    the rest used, and appends its own; with ``held`` None or empty it
    charges every visit."""
    held = deque() if held is None else held
    voxels, rows_held = [], []
    per_splat = ENCODED_FINE_BYTES if records.encoded else RAW_FINE_STREAM_BYTES
    ledger, stats = TrafficLedger(), StreamStats()
    rect = tile_rects([tile])
    centers = tile_pixels([tile]) + 0.5
    color = np.zeros((1, TILE_EDGE * TILE_EDGE, 3))
    transmittance = np.ones((1, TILE_EDGE * TILE_EDGE))
    capacity = streaming_mod.VOXEL_BATCH_CAPACITY
    order = visibility_sorted(traverse_per_visit([tile], camera, grid), camera, grid)
    stats.voxels_scheduled = len(order)
    for k, vid_r in enumerate(order):
        if early_exit and np.all(transmittance < T_FREEZE):
            stats.voxels_skipped_early += len(order) - k
            break
        rows = slice(records.offsets[vid_r], records.offsets[vid_r + 1])
        voxels.append(vid_r)
        mask = coarse_filter_per_visit(camera, rect, records.positions[rows],
                                       records.max_scales[rows], stats.filter)
        survivors = np.flatnonzero(mask)
        if not len(survivors):
            continue
        rows_held.extend((rows.start + survivors).tolist())
        splats = stream_fine_per_visit(records, vid_r, survivors, books)
        batch = fine_filter_per_visit(camera, rect, survivors, splats, stats.filter)
        for start in range(0, len(batch.ids), capacity):
            if start:
                stats.batch_splits += 1
            chunk = np.arange(start, min(start + capacity, len(batch.ids)))
            stats.blended += int(blend(batch, chunk, [0, len(chunk)], centers, color,
                                       transmittance)[0])
    composite_background(color, transmittance, background)
    footprint = (COARSE_BYTES_PER_GAUSSIAN * stats.filter.loaded
                 + per_splat * stats.filter.coarse_survivors)
    while held and sum(f for _, _, f in held) + footprint > traffic_mod.BUFFER_BYTES:
        held.popleft()
    for vid_r in voxels:
        if not any(vid_r in ids for ids, _, _ in held):
            n = int(records.offsets[vid_r + 1] - records.offsets[vid_r])
            ledger.charge("coarse-load", COARSE_BYTES_PER_GAUSSIAN * n, n)
    for row in rows_held:
        if not any(row in theirs for _, theirs, _ in held):
            ledger.charge("fine-load", per_splat, 1)
    stats.buffer_peak_bytes = sum(f for _, _, f in held) + footprint
    stats.buffer_capacity_bytes = traffic_mod.BUFFER_BYTES
    held.append((set(voxels), set(rows_held), footprint))
    ledger.charge("pixel-writeback", PIXEL_BYTES * TILE_EDGE**2, TILE_EDGE**2)
    ledger.macs = {"coarse": stats.filter.macs_coarse, "fine": stats.filter.macs_fine}
    return color[0], ledger, stats


def add_counters(total, part) -> None:
    """Add ``part``'s counters into ``total``, two ledgers or two stats: every
    int field, every dict of ints key by key and every nested dataclass;
    ``buffer_peak_bytes`` and ``buffer_capacity_bytes`` take the larger, and
    any other field, such as a ledger's scene hash, stays unchanged."""
    for f in fields(total):
        mine, theirs = getattr(total, f.name), getattr(part, f.name)
        if f.name.startswith("buffer_"):
            setattr(total, f.name, max(mine, theirs))
        elif isinstance(mine, int):
            setattr(total, f.name, mine + theirs)
        elif isinstance(mine, dict):
            for key, value in theirs.items():
                mine[key] += value
        elif is_dataclass(mine):
            add_counters(mine, theirs)


def render_frame_per_visit(camera, grid, records, books, early_exit=True):
    """A frame assembled from ``render_tile_per_visit`` tiles, streamed in
    raster order through one held deque; returns (frame float32, ledger,
    stats) like ``render_frame_streaming``."""
    ntx, nty = camera.tile_counts
    image = np.zeros((camera.height, camera.width, 3))
    ledger, stats = TrafficLedger(), StreamStats()
    held = deque()
    for ty in range(nty):
        for tx in range(ntx):
            color, tile_ledger, tile_stats = render_tile_per_visit(
                (tx, ty), camera, grid, records, books, early_exit=early_exit, held=held)
            image[ty * TILE_EDGE : (ty + 1) * TILE_EDGE,
                  tx * TILE_EDGE : (tx + 1) * TILE_EDGE] = color.reshape(TILE_EDGE, TILE_EDGE, 3)
            add_counters(ledger, tile_ledger)
            add_counters(stats, tile_stats)
    return image.astype(np.float32), ledger, stats


def frobenius_coarse_radius(camera, cam, max_scales):
    """``coarse_screen_radius`` bounding |J|_2 by |J|_F, with the dilation's
    3 sqrt(0.3) px added after the square root."""
    z = np.where(np.abs(cam[:, 2]) < 1e-12, 1e-12, cam[:, 2])
    j_frob = (
        np.sqrt(
            camera.fx**2 * (z * z + cam[:, 0] ** 2) + camera.fy**2 * (z * z + cam[:, 1] ** 2)
        )
        / (z * z)
    )
    margin = RADIUS_SIGMAS * np.sqrt(COVARIANCE_DILATION)
    return COARSE_SAFETY * RADIUS_SIGMAS * max_scales * np.abs(j_frob) + margin


def coarse_filter_per_visit(camera, rect, positions, max_scales, stats):
    """Coarse test of one voxel's first halves, projected on every visit."""
    n = len(positions)
    cam, depth, mean2d = project_means(camera, positions)
    radius = coarse_screen_radius(camera, cam, max_scales)
    mask = (depth > camera.near) & disc_overlaps_rect(mean2d, radius, rect)
    stats.loaded += n
    stats.macs_coarse += COARSE_MACS * n
    stats.coarse_survivors += int(mask.sum())
    return mask


def stream_fine_per_visit(records, vid_r, survivors, books):
    """Decodes only the survivors' second halves, each gathered on its own
    from the voxel's rows."""
    survivors = np.asarray(survivors, dtype=np.int64)
    rows = records.offsets[vid_r] + survivors
    if records.encoded:
        scales = books["scale"].entries[records.scale_idx[rows]].astype(np.float64)
        rots = books["rotation"].entries[records.rot_idx[rows]].astype(np.float64)
        norms = np.linalg.norm(rots, axis=1, keepdims=True)
        norms[norms == 0.0] = 1.0
        rots = rots / norms
        dc = books["dc"].entries[records.dc_idx[rows]].astype(np.float64)
        rest = books["sh_rest"].entries[records.sh_idx[rows]].astype(np.float64)
        sh = np.concatenate([dc[:, None, :], rest.reshape(len(rows), 15, 3)], axis=1)
    else:
        scales, rots, sh = records.scales[rows], records.rotations[rows], records.sh[rows]
    return (records.positions[rows], scales, rots, records.opacities[rows], sh, records.ids[rows])


def fine_filter_per_visit(camera, rect, survivors, splats, stats):
    """Projects the survivors ``stream_fine_per_visit`` decoded, then sorts."""
    n = len(survivors)
    stats.macs_fine += FINE_MACS * n
    valid, batch, _ = project_splats(camera, *splats)
    stats.degenerate += int(np.count_nonzero((batch.depth > camera.near) & ~valid))
    kept = np.flatnonzero(valid & disc_overlaps_rect(batch.mean2d, batch.radius, rect))
    stats.fine_survivors += len(kept)
    return take(batch, kept[np.lexsort((batch.ids[kept], batch.depth[kept]))])


def render_frame_reference_per_tile(camera, scene, background=(0.0, 0.0, 0.0), scene_hash=""):
    """``render_frame_reference`` one tile at a time; returns (frame float32, ledger)."""
    ledger = TrafficLedger(scene_hash=scene_hash)
    n = len(scene)
    ledger.charge("projection", PROJECTION_LOAD_BYTES * n, n)
    valid, batch, _ = project_splats(camera, scene.positions, scene.scales, scene.rotations,
                                     scene.opacities, scene.sh, scene.ids)
    keep = np.flatnonzero(valid)
    ledger.charge("projection-writeback", PROJECTED_RECORD_BYTES * len(keep), len(keep))
    image = np.zeros((camera.height, camera.width, 3))
    ntx, nty = camera.tile_counts
    for ty in range(nty):
        for tx in range(ntx):
            members = keep[disc_overlaps_rect(batch.mean2d[keep], batch.radius[keep],
                                              tile_rects([(tx, ty)]))]
            ledger.charge("sort-spill", merge_sort_pass_bytes(len(members)), len(members))
            ledger.charge("render-load", PROJECTED_RECORD_BYTES * len(members), len(members))
            members = members[np.lexsort((batch.ids[members], batch.depth[members]))]
            color = np.zeros((1, TILE_EDGE * TILE_EDGE, 3))
            transmittance = np.ones((1, TILE_EDGE * TILE_EDGE))
            blend(batch, members, [0, len(members)], tile_pixels([(tx, ty)]) + 0.5, color,
                  transmittance)
            composite_background(color, transmittance, background)
            ledger.charge("pixel-writeback", PIXEL_BYTES * TILE_EDGE**2, TILE_EDGE**2)
            image[ty * TILE_EDGE : (ty + 1) * TILE_EDGE,
                  tx * TILE_EDGE : (tx + 1) * TILE_EDGE] = color.reshape(TILE_EDGE, TILE_EDGE, 3)
    return image.astype(np.float32), ledger


def encode_per_voxel(records, books) -> list[np.ndarray]:
    """The index arrays of ``encode_records`` in ``ATTRIBUTES`` order, from
    one ``nearest_indices`` call per voxel and attribute."""
    parts = {name: [np.empty(0, dtype=np.int64)] for name in ATTRIBUTES}
    for r in range(len(records.offsets) - 1):
        rows = slice(records.offsets[r], records.offsets[r + 1])
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
    """``cross_boundary_stats(...)["per_voxel"]`` counted one splat at a time,
    each in the cell its position falls in: the voxel holding its record in a
    store built from ``scene``."""
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


def quat_to_rotmat_row_major(q: np.ndarray) -> np.ndarray:
    """(n, 4) quaternions (w, x, y, z) -> C-contiguous (n, 3, 3) matrices."""
    q = np.asarray(q, dtype=np.float64)
    w, x, y, z = q[:, 0], q[:, 1], q[:, 2], q[:, 3]
    out = np.empty((len(q), 3, 3))
    out[:, 0, 0] = 1 - 2 * (y * y + z * z)
    out[:, 0, 1] = 2 * (x * y - w * z)
    out[:, 0, 2] = 2 * (x * z + w * y)
    out[:, 1, 0] = 2 * (x * y + w * z)
    out[:, 1, 1] = 1 - 2 * (x * x + z * z)
    out[:, 1, 2] = 2 * (y * z - w * x)
    out[:, 2, 0] = 2 * (x * z - w * y)
    out[:, 2, 1] = 2 * (y * z + w * x)
    out[:, 2, 2] = 1 - 2 * (x * x + y * y)
    return out


def projected_covariance_einsum(camera, cam, scales, rotations) -> np.ndarray:
    """``projected_covariance`` as three ``einsum`` products of row-major
    matrices."""
    rot = quat_to_rotmat_row_major(rotations)
    m = rot * scales[:, None, :]  # R @ diag(s)
    a = np.einsum("ij,njk->nik", camera.rotation, m)  # W @ R @ diag(s)
    z = np.where(np.abs(cam[:, 2]) < 1e-12, 1e-12, cam[:, 2])
    jac = np.zeros((len(cam), 2, 3))
    jac[:, 0, 0] = camera.fx / z
    jac[:, 0, 2] = -camera.fx * cam[:, 0] / (z * z)
    jac[:, 1, 1] = camera.fy / z
    jac[:, 1, 2] = -camera.fy * cam[:, 1] / (z * z)
    b = np.einsum("nij,njk->nik", jac, a)
    cov = np.einsum("nij,nkj->nik", b, b)
    return np.stack(
        [cov[:, 0, 0] + COVARIANCE_DILATION, cov[:, 0, 1], cov[:, 1, 1] + COVARIANCE_DILATION],
        axis=1,
    )


def sh_basis_row_major(dirs: np.ndarray) -> np.ndarray:
    """``sh_basis`` filled into a C-contiguous (..., 16) array."""
    dirs = np.asarray(dirs, dtype=np.float64)
    x, y, z = dirs[..., 0], dirs[..., 1], dirs[..., 2]
    xx, yy, zz = x * x, y * y, z * z
    xy, yz, xz = x * y, y * z, x * z
    out = np.empty(dirs.shape[:-1] + (SH_COEFFS,), dtype=np.float64)
    out[..., 0] = C0
    out[..., 1] = -C1 * y
    out[..., 2] = C1 * z
    out[..., 3] = -C1 * x
    out[..., 4] = C2[0] * xy
    out[..., 5] = C2[1] * yz
    out[..., 6] = C2[2] * (2.0 * zz - xx - yy)
    out[..., 7] = C2[3] * xz
    out[..., 8] = C2[4] * (xx - yy)
    out[..., 9] = C3[0] * y * (3.0 * xx - yy)
    out[..., 10] = C3[1] * xy * z
    out[..., 11] = C3[2] * y * (4.0 * zz - xx - yy)
    out[..., 12] = C3[3] * z * (2.0 * zz - 3.0 * xx - 3.0 * yy)
    out[..., 13] = C3[4] * x * (4.0 * zz - xx - yy)
    out[..., 14] = C3[5] * z * (xx - yy)
    out[..., 15] = C3[6] * x * (xx - 3.0 * yy)
    return out


def evaluate_sh_row_major(sh: np.ndarray, dirs: np.ndarray) -> np.ndarray:
    """``evaluate_sh`` on the row-major basis."""
    rgb = 0.5 + np.einsum("...k,...kc->...c", sh_basis_row_major(dirs),
                          np.asarray(sh, dtype=np.float64))
    return np.clip(rgb, 0.0, 1.0)


def extent_half_einsum(scene) -> np.ndarray:
    """Half-widths of ``extent_boxes``: ``einsum`` of row-major |R| and the
    scales."""
    rot = quat_to_rotmat_row_major(scene.rotations)
    return EXTENT_SIGMAS * np.einsum("nij,nj->ni", np.abs(rot), scene.scales)


def scene_fingerprint(scene) -> str:
    """Order-stable content hash used to guard cross-pipeline comparisons:
    the arrays' bytes in (stable) id order."""
    h = hashlib.sha256()
    arrays = (scene.ids, scene.positions, scene.scales, scene.rotations, scene.opacities, scene.sh)
    if not np.all(scene.ids[1:] >= scene.ids[:-1]):  # sorted ids are their own stable order
        order = np.argsort(scene.ids, kind="stable")
        arrays = [arr[order] for arr in arrays]
    for arr in arrays:
        h.update(np.ascontiguousarray(arr))
    return h.hexdigest()[:16]


def scene_from_ply_per_column(data: np.ndarray, count: int) -> Scene:
    """``_scene_from_ply`` filling the SH block one colour column at a time."""
    pos = np.stack([data["x"], data["y"], data["z"]], axis=1).astype(np.float64)
    scales = np.exp(np.stack([data[f"scale_{i}"] for i in range(3)], axis=1).astype(np.float64))
    rots = np.stack([data[f"rot_{i}"] for i in range(4)], axis=1).astype(np.float64)
    norms = np.linalg.norm(rots, axis=1)
    if np.any(norms == 0):
        raise PlySchemaError("zero-norm rotation quaternion")
    rots /= norms[:, None]
    opac = 1.0 / (1.0 + np.exp(-data["opacity"].astype(np.float64)))
    sh = np.zeros((count, 16, 3), dtype=np.float64)
    for c in range(3):
        sh[:, 0, c] = data[f"f_dc_{c}"]
        for j in range(15):
            sh[:, 1 + j, c] = data[f"f_rest_{c * 15 + j}"]
    return Scene(
        positions=pos,
        scales=scales,
        rotations=rots,
        opacities=opac,
        sh=sh,
        ids=np.arange(count, dtype=np.int64),
    )


def save_store_v1(store, path) -> None:
    """``save_store`` as it stood at store version 1: header, renaming table,
    then per voxel a count and its coarse, fine and id blocks; no digest."""
    grid, records = store.grid, store.records
    coarse = np.concatenate([records.positions, records.max_scales[:, None]], axis=1, dtype="<f4")
    fine = np.concatenate(
        [records.scales, records.rotations, records.sh.reshape(-1, 48), records.opacities[:, None]],
        axis=1,
        dtype="<f4",
    )
    ids = records.ids.astype("<u4")
    with open(path, "wb") as f:
        f.write(b"GSVX")
        f.write(struct.pack("<HB", 1, 0))  # fine-block kind 0 = raw
        f.write(struct.pack("<d", grid.edge))
        f.write(np.asarray(grid.origin, dtype="<f8").tobytes())
        f.write(np.asarray(grid.dims, dtype="<u4").tobytes())
        f.write(struct.pack("<I", grid.nonempty_count))
        f.write(grid.vids.astype("<u4").tobytes())
        offsets = records.offsets.tolist()
        for start, stop in zip(offsets, offsets[1:]):  # one block per voxel
            f.write(struct.pack("<I", stop - start))
            f.write(coarse[start:stop].tobytes())
            f.write(fine[start:stop].tobytes())
            f.write(ids[start:stop].tobytes())


def store_v1_blocks(data: bytes) -> tuple[bytes, ...]:
    """A version-1 store file's header with its renaming table, then its
    per-voxel counts, coarse, fine and id blocks, each joined over the
    voxels in file order."""
    (nonempty,) = struct.unpack_from("<I", data, 51)
    at = 55 + 4 * nonempty
    parts = ([], [], [], [])
    for _ in range(nonempty):
        (count,) = struct.unpack_from("<I", data, at)
        for part, size in zip(parts, (4, 16 * count, 224 * count, 4 * count)):
            part.append(data[at : at + size])
            at += size
    if at != len(data):
        raise ValueError(f"{len(data) - at} bytes after the last voxel block")
    return data[: 55 + 4 * nonempty], *(b"".join(part) for part in parts)
