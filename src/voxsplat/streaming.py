"""Memory-centric renderer: per tile, stream scheduled voxels through the
hierarchical filter, sort survivors by depth inside each voxel, and blend with
pixel state carried across voxels.  Nothing but final pixels is ever written
back, so the intermediate traffic stages stay at zero bytes by construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .blending import T_FREEZE, blend, composite_background
from .filtering import FilterStats, ProjectionCache, Tally, coarse_filter, fine_filter, tile_rect
from .scene import Camera, TILE_EDGE, tile_pixels
from .scheduler import TileVisits, schedule, traverse, voxel_depths
from .tileloop import render_rows
from .traffic import PIXEL_BYTES, TrafficLedger
from .voxelstore import FlatRecords, VoxelGrid, stream_coarse, stream_fine
from .vq import Codebook

VOXEL_BATCH_CAPACITY = 4096  # on-chip sorting buffer bound; overflow splits in depth order


@dataclass
class StreamStats(Tally):
    filter: FilterStats = field(default_factory=FilterStats)
    voxels_scheduled: int = 0
    voxels_skipped_early: int = 0
    cycles_broken: int = 0
    batch_splits: int = 0
    blended: int = 0


def render_tile_streaming(
    tile: tuple[int, int],
    camera: Camera,
    grid: VoxelGrid,
    records: FlatRecords,
    books: dict[str, Codebook] | None,
    ledger: TrafficLedger,
    background=(0.0, 0.0, 0.0),
    trace: list | None = None,
    pixel_trace: tuple[int, list] | None = None,
    early_exit: bool = True,
    cache: ProjectionCache | None = None,
    visits: TileVisits | None = None,
) -> tuple[np.ndarray, StreamStats]:
    """Render one 16x16 tile; returns (256, 3) colors and the tile's stats.

    ``cache`` holds the frame's voxel depths and projections for ``camera``,
    and ``visits`` the tile's ray walk from ``traverse``; a tile rendered on
    its own makes both.
    """
    if cache is None:
        cache = ProjectionCache(camera, voxel_depths(camera, grid))
    if visits is None:
        (visits,) = traverse([tile], camera, grid)
    tx, ty = tile
    stats = StreamStats()
    rect = tile_rect(tx, ty)
    centers = tile_pixels([tile])[0] + 0.5
    color = np.zeros((TILE_EDGE * TILE_EDGE, 3))
    transmittance = np.ones(TILE_EDGE * TILE_EDGE)

    order, stats.cycles_broken = schedule(visits, cache.depth)
    stats.voxels_scheduled = len(order)

    for k, vid_r in enumerate(order):
        if early_exit and np.all(transmittance < T_FREEZE):
            stats.voxels_skipped_early += len(order) - k
            break
        positions, max_scales = stream_coarse(records, vid_r, ledger)
        mask = coarse_filter(cache, rect, vid_r, positions, max_scales, stats.filter)
        survivors = np.flatnonzero(mask)
        if not len(survivors):
            continue
        splats = stream_fine(
            records, vid_r, survivors, books, ledger, decode=vid_r not in cache.fine
        )
        batch = fine_filter(cache, rect, vid_r, survivors, splats, stats.filter)
        if not len(batch):
            continue
        for start in range(0, len(batch), VOXEL_BATCH_CAPACITY):
            if start:
                stats.batch_splits += 1
            chunk = batch.take(np.arange(start, min(start + VOXEL_BATCH_CAPACITY, len(batch))))
            stats.blended += blend(chunk, centers, color, transmittance, trace, pixel_trace)

    composite_background(color, transmittance, background)
    ledger.charge("pixel-writeback", PIXEL_BYTES * len(centers), len(centers))
    stats.filter.check()
    return color, stats


def render_frame_streaming(
    camera: Camera,
    grid: VoxelGrid,
    records: FlatRecords,
    books: dict[str, Codebook] | None = None,
    *,
    background=(0.0, 0.0, 0.0),
    threads: int = 1,
    scene_hash: str = "",
    early_exit: bool = True,
) -> tuple[np.ndarray, TrafficLedger, StreamStats]:
    """Render all tiles; output is independent of the worker count.

    The rays of each tile row are walked in one ``traverse`` call, and that
    row's tiles are then rendered from their share of the walk, so one row's
    visit arrays are alive at a time.  With ``threads > 1`` this process
    and forked workers share the rows (``tileloop.render_rows``), each
    filling its own copy of the frame's projection cache.  Returns
    (framebuffer (H, W, 3) float32, ledger, aggregate stats).
    """
    ntx, _ = camera.tile_counts
    cache = ProjectionCache(camera, voxel_depths(camera, grid))

    def render_row(ty):
        band = [(tx, ty) for tx in range(ntx)]
        colors, ledger, stats = [], TrafficLedger(), StreamStats()
        for tile, visits in zip(band, traverse(band, camera, grid)):
            sub = TrafficLedger()
            color, tile_stats = render_tile_streaming(
                tile, camera, grid, records, books, sub, background=background,
                early_exit=early_exit, cache=cache, visits=visits,
            )
            colors.append(color)
            ledger.merge(sub)
            stats.merge(tile_stats)
        return colors, (ledger, stats)

    frame, rows = render_rows(camera, render_row, threads)
    ledger = TrafficLedger(scene_hash=scene_hash)
    stats = StreamStats()
    for row_ledger, row_stats in rows:
        ledger.merge(row_ledger)
        stats.merge(row_stats)
    ledger.macs = {"coarse": stats.filter.macs_coarse, "fine": stats.filter.macs_fine}
    return frame, ledger, stats
