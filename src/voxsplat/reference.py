"""Tile-centric baseline renderer, binned like the 3DGS tile rasterizer:
project everything once, duplicate each splat per intersected tile, sort a
tile row's duplicates by (tile, depth, id) at once, then blend the row.
Serves as the correctness oracle and charges the intermediate
projection/sorting traffic the streaming pipeline exists to avoid.
"""

from __future__ import annotations

import numpy as np

from .blending import blend, composite_background
from .filtering import disc_overlaps_rect, project_splats, tile_rects
from .scene import Camera, Scene, TILE_EDGE, tile_pixels
from .tileloop import render_rows
from .traffic import (
    PIXEL_BYTES,
    PROJECTED_RECORD_BYTES,
    PROJECTION_LOAD_BYTES,
    TrafficLedger,
    merge_sort_pass_bytes,
)
from .voxelstore import FlatRecords, concat_ranges


def render_frame_reference(
    camera: Camera,
    splats: FlatRecords | Scene,
    *,
    background=(0.0, 0.0, 0.0),
    threads: int = 1,
    scene_hash: str = "",
) -> tuple[np.ndarray, TrafficLedger]:
    """Render the whole frame; returns (framebuffer float32, ledger).  Like
    ``render_frame_streaming``, the ledger carries ``scene_hash`` as given.
    ``splats`` are a store's raw records or a ``Scene``, which has the same
    six per-splat arrays; any row order gives the same frame and ledger, as
    each row projects alone and the (tile, depth, id) sort keys are unique.
    The projection stays whole: binning gathers the valid rows' centers and
    radii, and ``blend`` reads each tile row's sorted rows where they lie.
    Each row hands back its tiles' record counts, from which the frame
    charges sort spills, render loads and pixel writebacks once."""
    ledger = TrafficLedger(scene_hash=scene_hash)
    n = len(splats.ids)
    ledger.charge("projection", PROJECTION_LOAD_BYTES * n, n)

    valid, batch, _ = project_splats(camera, splats.positions, splats.scales, splats.rotations,
                                     splats.opacities, splats.sh, splats.ids)
    kept = np.flatnonzero(valid)
    ledger.charge("projection-writeback", PROJECTED_RECORD_BYTES * len(kept), len(kept))
    mean2d, radius = batch.mean2d[kept], batch.radius[kept]

    ntx, nty = camera.tile_counts
    # candidate tiles per axis: the pixel of margin keeps discs that only touch a
    # tile's closed edge; spans are cut to the frame before any integer cast
    reach = radius[:, None] + 1.0
    first = np.maximum(np.floor((mean2d - reach) / TILE_EDGE), 0.0)
    last = np.minimum(np.floor((mean2d + reach) / TILE_EDGE), [ntx - 1.0, nty - 1.0])
    across = first[:, 0] <= last[:, 0]

    def render_row(ty):
        row = np.stack([np.arange(ntx), np.full(ntx, ty)], axis=1)
        inside = np.flatnonzero(across & (first[:, 1] <= ty) & (ty <= last[:, 1]))
        span = (last[inside, 0] - first[inside, 0]).astype(np.int64) + 1
        splat = np.repeat(inside, span)  # one (splat, tile) record per candidate tile
        tile = concat_ranges(first[inside, 0].astype(np.int64), span)
        rects = tile_rects(row)[:, tile]
        hit = disc_overlaps_rect(mean2d[splat], radius[splat], rects)
        members, tile = kept[splat[hit]], tile[hit]
        # a stable sort of records made splat after splat: (depth, id) ties keep splat order
        order = np.lexsort((batch.ids[members], batch.depth[members], tile))
        counts = np.bincount(tile, minlength=ntx)
        color = np.zeros((ntx, TILE_EDGE * TILE_EDGE, 3))
        transmittance = np.ones((ntx, TILE_EDGE * TILE_EDGE))
        bounds = np.concatenate([[0], np.cumsum(counts)]).tolist()
        blend(batch, members[order], bounds, tile_pixels(row) + 0.5, color, transmittance)
        composite_background(color, transmittance, background)
        return color, counts[None]

    frame, rows = render_rows(camera, render_row, threads)
    counts = np.stack(rows, axis=1)
    records, pixels = int(counts.sum()), counts.size * TILE_EDGE**2
    ledger.charge("sort-spill", sum(map(merge_sort_pass_bytes, counts.ravel().tolist())), records)
    ledger.charge("render-load", PROJECTED_RECORD_BYTES * records, records)
    ledger.charge("pixel-writeback", PIXEL_BYTES * pixels, pixels)
    return frame, ledger


def traffic_breakdown(ledger: TrafficLedger) -> dict:
    """Per-stage byte fractions over {projection, sorting, rendering}."""
    groups = {
        "projection": ledger.bytes["projection"] + ledger.bytes["projection-writeback"],
        "sorting": ledger.bytes["sort-spill"],
        "rendering": ledger.bytes["render-load"]
        + ledger.bytes["pixel-writeback"]
        + ledger.bytes["coarse-load"]
        + ledger.bytes["fine-load"],
    }
    total = sum(groups.values())
    if total == 0:
        raise ValueError("empty traffic ledger; render a frame first")
    return {
        "bytes": groups,
        "fractions": {k: v / total for k, v in groups.items()},
        "total_bytes": total,
    }
