"""Tile-centric baseline renderer: project everything once, duplicate per
intersected tile, depth-sort each tile's list, then blend.  Serves as the
correctness oracle and charges the intermediate projection/sorting traffic
the streaming pipeline exists to avoid.
"""

from __future__ import annotations

import numpy as np

from .blending import blend, composite_background
from .filtering import disc_overlaps_rect, project_splats, tile_rect
from .scene import Camera, Scene, TILE_EDGE, scene_fingerprint, tile_pixels
from .tileloop import render_rows
from .traffic import (
    PIXEL_BYTES,
    PROJECTED_RECORD_BYTES,
    PROJECTION_LOAD_BYTES,
    TrafficLedger,
    merge_sort_pass_bytes,
)


def render_frame_reference(
    camera: Camera,
    scene: Scene,
    ledger: TrafficLedger | None = None,
    *,
    background=(0.0, 0.0, 0.0),
    threads: int = 1,
) -> tuple[np.ndarray, TrafficLedger]:
    """Render the whole frame; returns (framebuffer float32, ledger)."""
    if ledger is None:
        ledger = TrafficLedger()
    ledger.scene_hash = scene_fingerprint(scene)
    n = len(scene)
    ledger.charge("projection", PROJECTION_LOAD_BYTES * n, n)

    valid, batch, _ = project_splats(camera, scene.positions, scene.scales, scene.rotations,
                                     scene.opacities, scene.sh, scene.ids)
    keep = np.flatnonzero(valid)
    ledger.charge("projection-writeback", PROJECTED_RECORD_BYTES * len(keep), len(keep))

    ntx, _ = camera.tile_counts
    centers = batch.mean2d[keep]
    radii = batch.radius[keep]

    def render_row(ty):
        colors, sub = [], TrafficLedger()
        for tx in range(ntx):
            members = keep[disc_overlaps_rect(centers, radii, tile_rect(tx, ty))]
            sub.charge("sort-spill", merge_sort_pass_bytes(len(members)), len(members))
            sub.charge("render-load", PROJECTED_RECORD_BYTES * len(members), len(members))
            color = np.zeros((TILE_EDGE * TILE_EDGE, 3))
            transmittance = np.ones(TILE_EDGE * TILE_EDGE)
            if len(members):
                tile_batch = batch.take(members).sorted_by_depth()
                blend(tile_batch, tile_pixels([(tx, ty)])[0] + 0.5, color, transmittance)
            composite_background(color, transmittance, background)
            sub.charge("pixel-writeback", PIXEL_BYTES * TILE_EDGE * TILE_EDGE,
                       TILE_EDGE * TILE_EDGE)
            colors.append(color)
        return colors, sub

    frame, rows = render_rows(camera, render_row, threads)
    for sub in rows:
        ledger.merge(sub)
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
