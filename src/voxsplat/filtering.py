"""Two-phase splat filtering against an image tile.

The coarse phase sees only a splat's position and maximum scale and must
never reject anything the fine phase would keep.  Its screen radius is
therefore a proven upper bound on the fine radius: the projected covariance
satisfies lam_max <= s_max^2 * |J|_F^2 (J the perspective Jacobian, the
world-to-camera rotation drops out), and sqrt(a + b) <= sqrt(a) + sqrt(b)
absorbs the +0.3 px low-pass dilation into an additive margin.  A 1.1
multiplier covers floating-point slack.

The fine phase computes the exact projected covariance, conic, radius and
view-dependent color for coarse survivors.

Both phases project a voxel once per frame (``ProjectionCache``) and test
each tile's rectangle against the cached projection; projecting a whole
voxel and taking some splats gives the same bits as projecting those splats
alone, because every step is row by row.
"""

from __future__ import annotations

import functools
import math
from dataclasses import asdict, dataclass, fields

import numpy as np

from .scene import Camera, TILE_EDGE
from .sh import evaluate_sh

COARSE_MACS = 55
FINE_MACS = 372  # 427 total on the fine path minus the 55 already spent
COVARIANCE_DILATION = 0.3
RADIUS_SIGMAS = 3.0
COARSE_SAFETY = 1.1
COARSE_DILATION_MARGIN = RADIUS_SIGMAS * math.sqrt(COVARIANCE_DILATION)
DEGENERATE_DET = 1e-12

# dataclass fields looked up once per class: tallies merge per tile, batches take per visit
_fields = functools.cache(fields)


class Tally:
    """Counters that sum to the same totals in any merge order.

    ``merge`` adds every int field, every dict of ints key by key and every
    nested tally; any other field, such as a ledger's scene hash, is left
    alone.  ``as_dict`` lists the fields in declaration order.
    """

    def merge(self, other: "Tally") -> None:
        for f in _fields(type(self)):
            mine, theirs = getattr(self, f.name), getattr(other, f.name)
            if isinstance(mine, int):
                setattr(self, f.name, mine + theirs)
            elif isinstance(mine, dict):
                for key, value in theirs.items():
                    mine[key] += value
            elif isinstance(mine, Tally):
                mine.merge(theirs)

    def as_dict(self) -> dict:
        return asdict(self)


@dataclass
class FilterStats(Tally):
    loaded: int = 0
    coarse_survivors: int = 0
    fine_survivors: int = 0
    macs_coarse: int = 0
    macs_fine: int = 0
    degenerate: int = 0

    def check(self) -> None:
        if not 0 <= self.fine_survivors <= self.coarse_survivors <= self.loaded:
            raise RuntimeError(
                f"filter counters out of order: fine {self.fine_survivors}, "
                f"coarse {self.coarse_survivors}, loaded {self.loaded}"
            )


@dataclass
class ProjectedBatch:
    """Screen-space splats ready for sorting and blending."""

    mean2d: np.ndarray  # (n, 2) pixels
    conic: np.ndarray  # (n, 3) inverse 2D covariance (a, b, c)
    radius: np.ndarray  # (n,) pixels
    depth: np.ndarray  # (n,) camera-space z
    rgb: np.ndarray  # (n, 3)
    opacity: np.ndarray  # (n,)
    max_scale: np.ndarray  # (n,) carried for order diagnostics
    ids: np.ndarray  # (n,)

    def __len__(self) -> int:
        return len(self.ids)

    def take(self, idx: np.ndarray) -> "ProjectedBatch":
        return ProjectedBatch(*[getattr(self, f.name)[idx] for f in _fields(ProjectedBatch)])

    def sorted_by_depth(self) -> "ProjectedBatch":
        return self.take(np.lexsort((self.ids, self.depth)))


def tile_rect(tx: int, ty: int) -> tuple[float, float, float, float]:
    """Continuous pixel-space rectangle of a tile: (x0, y0, x1, y1)."""
    return (
        float(tx * TILE_EDGE),
        float(ty * TILE_EDGE),
        float((tx + 1) * TILE_EDGE),
        float((ty + 1) * TILE_EDGE),
    )


def disc_overlaps_rect(center: np.ndarray, radius: np.ndarray, rect) -> np.ndarray:
    """True where the disc (center, radius) meets the rectangle; shared by both
    pipelines so per-tile membership is identical."""
    x0, y0, x1, y1 = rect
    nearest_x = np.clip(center[..., 0], x0, x1)
    nearest_y = np.clip(center[..., 1], y0, y1)
    dx = center[..., 0] - nearest_x
    dy = center[..., 1] - nearest_y
    return dx * dx + dy * dy <= radius * radius


def project_means(camera: Camera, positions: np.ndarray):
    """Camera-space coordinates, depths, and pixel-space centers.

    Centers are well-defined only where depth > 0; callers mask on depth.
    """
    cam = camera.to_camera(positions)
    depth = cam[:, 2]
    safe_z = np.where(np.abs(depth) < 1e-12, 1e-12, depth)
    mean2d = np.stack(
        [camera.fx * cam[:, 0] / safe_z + camera.cx, camera.fy * cam[:, 1] / safe_z + camera.cy],
        axis=1,
    )
    return cam, depth, mean2d


def coarse_screen_radius(camera: Camera, cam: np.ndarray, max_scales: np.ndarray) -> np.ndarray:
    z = np.where(np.abs(cam[:, 2]) < 1e-12, 1e-12, cam[:, 2])
    j_frob = (
        np.sqrt(
            camera.fx**2 * (z * z + cam[:, 0] ** 2) + camera.fy**2 * (z * z + cam[:, 1] ** 2)
        )
        / (z * z)
    )
    return COARSE_SAFETY * RADIUS_SIGMAS * max_scales * np.abs(j_frob) + COARSE_DILATION_MARGIN


@dataclass
class CoarseView:
    """A voxel's coarse projection: depth > near, pixel centers, coarse radii."""

    in_front: np.ndarray
    mean2d: np.ndarray
    radius: np.ndarray


@dataclass
class FineView:
    """A voxel's exact projection and each splat's rank in (depth, id) order."""

    valid: np.ndarray
    degenerate: np.ndarray  # in front of the near plane, covariance unusable
    batch: ProjectedBatch
    rank: np.ndarray


class ProjectionCache:
    """One frame's per-voxel projections, shared by the tiles one process renders.

    ``depth`` is the camera-space z of every voxel center, indexed by renamed
    id, which the scheduler orders by.  A splat's projection depends on the
    camera, not on the tile, so each voxel is projected the first time a tile
    visits it and every later visit only runs the rect tests.  The ledger and
    the filter counters still charge every visit: the cost model is the
    hardware's, which streams the voxel again for each tile.  Entries are
    deterministic, so each worker process of a frame fills its own copy and
    every copy holds the same bits.
    """

    def __init__(self, camera: Camera, depth: np.ndarray):
        self.camera = camera
        self.depth = depth
        self.coarse: dict[int, CoarseView] = {}
        self.fine: dict[int, FineView] = {}


def coarse_filter(
    cache: ProjectionCache,
    rect,
    vid_r: int,
    positions: np.ndarray,
    max_scales: np.ndarray,
    stats: FilterStats,
) -> np.ndarray:
    """Conservative 4-parameter tile test of one voxel's splats; returns the
    survivor mask.  The voxel is projected on its first visit of the frame."""
    view = cache.coarse.get(vid_r)
    if view is None:
        camera = cache.camera
        cam, depth, mean2d = project_means(camera, positions)
        radius = coarse_screen_radius(camera, cam, max_scales)
        view = cache.coarse[vid_r] = CoarseView(depth > camera.near, mean2d, radius)
    mask = view.in_front & disc_overlaps_rect(view.mean2d, view.radius, rect)
    n = len(positions)
    stats.loaded += n
    stats.macs_coarse += COARSE_MACS * n
    stats.coarse_survivors += int(np.count_nonzero(mask))
    return mask


def quat_to_rotmat(q: np.ndarray) -> np.ndarray:
    """(n, 4) unit quaternions (w, x, y, z) -> (n, 3, 3) rotation matrices."""
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


def projected_covariance(
    camera: Camera, cam: np.ndarray, scales: np.ndarray, rotations: np.ndarray
) -> np.ndarray:
    """Dilated 2D covariance (a, b, c) of each splat at its camera-space position.

    Built as B @ B.T with B = J @ W @ R @ diag(s), which keeps the result
    positive semi-definite by construction before the +0.3 px dilation.
    """
    rot = quat_to_rotmat(rotations)
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


def project_splats(
    camera: Camera,
    positions: np.ndarray,
    scales: np.ndarray,
    rotations: np.ndarray,
    opacities: np.ndarray,
    sh: np.ndarray,
    ids: np.ndarray,
) -> tuple[np.ndarray, ProjectedBatch, int]:
    """Full projection shared by both pipelines.

    Returns (valid_mask, batch_over_all_inputs, degenerate_count); entries
    where valid_mask is False hold unusable values and must be dropped by the
    caller.  Validity covers depth > near and a non-degenerate covariance;
    tile overlap is a separate test.
    """
    cam, depth, mean2d = project_means(camera, positions)
    cov = projected_covariance(camera, cam, scales, rotations)
    det = cov[:, 0] * cov[:, 2] - cov[:, 1] * cov[:, 1]
    ok_det = det > DEGENERATE_DET
    safe_det = np.where(ok_det, det, 1.0)
    conic = np.stack([cov[:, 2] / safe_det, -cov[:, 1] / safe_det, cov[:, 0] / safe_det], axis=1)
    mid = 0.5 * (cov[:, 0] + cov[:, 2])
    lam_max = mid + np.sqrt(np.maximum(mid * mid - det, 0.0))
    radius = RADIUS_SIGMAS * np.sqrt(np.maximum(lam_max, 0.0))
    in_front = depth > camera.near
    view_dir = positions - camera.position
    norms = np.linalg.norm(view_dir, axis=1, keepdims=True)
    norms[norms == 0.0] = 1.0
    rgb = evaluate_sh(sh, view_dir / norms)
    valid = in_front & ok_det
    degenerate = int((in_front & ~ok_det).sum())
    batch = ProjectedBatch(
        mean2d=mean2d,
        conic=conic,
        radius=radius,
        depth=depth,
        rgb=rgb,
        opacity=np.asarray(opacities, dtype=np.float64),
        max_scale=scales.max(axis=1),
        ids=np.asarray(ids, dtype=np.int64),
    )
    return valid, batch, degenerate


def fine_filter(
    cache: ProjectionCache,
    rect,
    vid_r: int,
    survivors: np.ndarray,
    splats: tuple | None,
    stats: FilterStats,
) -> ProjectedBatch:
    """Exact tile test for one voxel's coarse survivors; returns the splats
    that truly meet the tile, sorted by (depth, id) and ready to blend.

    ``splats`` holds ``project_splats``'s inputs for the whole voxel
    (positions, scales, rotations, opacities, sh, ids).  Only the voxel's
    first fine visit of the frame reads it: that visit projects every splat
    of the voxel once and ranks them by (depth, id).
    """
    view = cache.fine.get(vid_r)
    if view is None:
        view = cache.fine[vid_r] = _project_voxel(cache.camera, splats)
    stats.macs_fine += FINE_MACS * len(survivors)
    stats.degenerate += int(np.count_nonzero(view.degenerate[survivors]))
    batch = view.batch
    hit = view.valid[survivors] & disc_overlaps_rect(
        batch.mean2d[survivors], batch.radius[survivors], rect
    )
    keep = survivors[hit]
    stats.fine_survivors += len(keep)
    return batch.take(keep[np.argsort(view.rank[keep])])


def _project_voxel(camera: Camera, splats: tuple) -> FineView:
    valid, batch, _ = project_splats(camera, *splats)
    rank = np.empty(len(batch), dtype=np.int64)
    rank[np.lexsort((batch.ids, batch.depth))] = np.arange(len(batch))
    return FineView(valid, (batch.depth > camera.near) & ~valid, batch, rank)
