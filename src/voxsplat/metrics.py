"""Quality diagnostics: PSNR, cross-voxel extent checks, depth-order penalty."""

from __future__ import annotations

import numpy as np

from .filtering import quat_to_rotmat
from .scene import Scene
from .voxelstore import FlatRecords, VoxelGrid

CBP_BETA_DEFAULT = 0.05
EXTENT_SIGMAS = 3.0


def psnr(img_a: np.ndarray, img_b: np.ndarray) -> float:
    """10*log10(1/MSE) for images in [0, 1]; +inf when identical."""
    img_a = np.asarray(img_a, dtype=np.float64)
    img_b = np.asarray(img_b, dtype=np.float64)
    if img_a.shape != img_b.shape:
        raise ValueError(f"image shapes differ: {img_a.shape} vs {img_b.shape}")
    mse = float(np.mean((img_a - img_b) ** 2))
    if mse == 0.0:
        return float("inf")
    return 10.0 * np.log10(1.0 / mse)


def extent_boxes(splats: FlatRecords | Scene) -> tuple[np.ndarray, np.ndarray]:
    """Conservative axis-aligned bounds of each splat's rotated 3-sigma box."""
    a = np.abs(quat_to_rotmat(splats.rotations).transpose(1, 2, 0)) * splats.scales.T
    # |R| @ s summed (0 + 2) + 1: einsum's order on row-major (n, 3, 3) rotations, and its bits
    half = EXTENT_SIGMAS * ((a[:, 0] + a[:, 2]) + a[:, 1]).T
    return splats.positions - half, splats.positions + half


def cross_boundary_stats(grid: VoxelGrid, records: FlatRecords) -> dict:
    """Fraction of splats whose 3-sigma box exits the voxel holding their
    record; ``per_voxel`` counts the crossing splats by renamed voxel id."""
    n = len(records.ids)
    if n == 0:
        return {"ratio": 0.0, "crossing": 0, "total": 0, "per_voxel": {}}
    lo, hi = extent_boxes(records)
    voxel = np.repeat(np.arange(grid.nonempty_count), np.diff(records.offsets))
    vox_lo = grid.origin + grid.cell_of_vid(grid.vids[voxel]) * grid.edge
    vox_hi = vox_lo + grid.edge
    crossing = np.any((lo < vox_lo) | (hi > vox_hi), axis=1)
    counts = np.bincount(voxel[crossing])
    voxels = np.flatnonzero(counts)
    per_voxel = dict(zip(voxels.tolist(), counts[voxels].tolist()))
    return {
        "ratio": float(crossing.mean()),
        "crossing": int(crossing.sum()),
        "total": n,
        "per_voxel": per_voxel,
    }


def cbp_loss(render_order) -> float:
    """Mean max-scale over depth-order violations in a blend trace.

    ``render_order`` is a sequence of (depth, max scale) in the order actually
    blended; splat i counts iff its depth is below the running maximum of all
    earlier depths.  Empty traces score 0.
    """
    order = np.array(list(render_order), dtype=np.float64).reshape(-1, 2)
    if not len(order):
        return 0.0
    depth, scale = order[:, 0], order[:, 1]
    # fmax skips NaN depths, as the running max of a loop comparing with > would
    before = np.fmax.accumulate(np.concatenate([[-np.inf], depth[:-1]]))
    # cumsum adds in order, starting from the first entry, which is always
    # +0.0; adding +0.0 for in-order splats leaves every partial sum unchanged.
    # Overflow to inf and inf - inf stay silent, as in Python float sums.
    with np.errstate(over="ignore", invalid="ignore"):
        total = np.cumsum(np.where(depth < before, scale, 0.0))[-1]
    return float(total / len(order))
