"""Two-phase splat filtering against an image tile.

The coarse phase sees only a splat's position and maximum scale and must
never reject anything the fine phase would keep.  The fine radius is
3 sqrt(lam_max(B B^T) + d), B = J W R(q) S, with J the perspective
Jacobian, W the camera rotation, R(q) the quaternion's matrix, S =
diag(scales) and d = COVARIANCE_DILATION; the coarse radius is
COARSE_SAFETY * 3 sqrt(s^2 j + d), s = max(scales), j = lam_max(J J^T).
COARSE_SAFETY = c (1 + gamma_128) proves that the computed coarse radius
is at least the computed fine one for every input the program accepts,
where c bounds |W|_2 |R(q)|_2 and gamma_k = k u / (1 - k u), u = 2^-53
(Higham, *Accuracy and Stability of Numerical Algorithms*, 2002, ch. 3):

* Quaternion norm.  R(q) = |q|^2 R(q/|q|) + (1 - |q|^2) I, so |R(q)|_2 <=
  max(1, 2|q|^2 - 1).  ``Scene`` keeps | |q| - 1 | <= QUAT_NORM_TOL on its
  computed norm, so |q| <= (1 + QUAT_NORM_TOL)(1 + gamma_4); a decoded
  codebook quaternion is renormalised in float64, far inside that, or is
  zero, and R(0) = I.
* Camera rotation.  ``Camera`` keeps every entry of its computed W W^T
  within tol = CAMERA_ROTATION_TOL of I (the subtraction is exact), and
  the product errs by at most gamma_3 (1 + tol)/(1 - gamma_3) <= 2 gamma_3
  per entry, so by Gershgorin on W W^T - I, |W|_2^2 <= 1 + 3(tol +
  2 gamma_3).  c is the product of the two bounds, and c >= 1.
* Dilation.  sqrt(c^2 x + d) <= c sqrt(x + d) for c >= 1 and x, d >= 0,
  so |B|_2 <= c |J|_2 s puts the fine radius under c 3 sqrt(s^2 j + d).
* Rounding.  Both tests read the same bits of ``cam``, ``mean2d``, the
  clamped z and s (an encoded store's first half holds the decoded scales'
  max), and J is taken exact at those bits.  Fine side: R(q)'s entries err
  by gamma_3 (1 + 2|q|^2), under gamma_30 relative in the 2-norm since
  R(q) fixes q's axis and so |R(q)|_2 >= 1; the products R S, W (R S) and
  J (W R S) and J's entries add gamma_2, gamma_9, gamma_8 and gamma_5
  (|A|_F <= sqrt(rank) |A|_2), so the computed B has 2-norm at most
  c |J|_2 s (1 + gamma_54).  Squared, with B B^T's gamma_6, the dilation's
  add and the hypot eigenvalue's gamma_4 (hypot's one ulp counted twice),
  lam_max errs by gamma_119; the square root halves that, and its rounding
  and the 3 add gamma_2: r_fine <= c 3 sqrt(s^2 j + d)(1 + gamma_62).
  Coarse side: the entries of z^4 J J^T err by gamma_5 relative (``fx**2``
  counted twice), which moves a positive semi-definite 2x2 matrix's lam_max
  by at most gamma_5 relative; the eigenvalue, z^4, the division, s^2, the
  product, the add, the square root and the two multiplies leave r_coarse
  >= COARSE_SAFETY 3 sqrt(s^2 j + d)(1 - gamma_19).  (1 + gamma_62) /
  (1 - gamma_19) <= 1 + gamma_100, and gamma_128 also covers evaluating c.
* ``disc_overlaps_rect`` is monotone in the radius and both phases require
  depth > near, so every fine survivor passes the coarse test.

For an isotropic splat under an exactly orthonormal W and unit q, B B^T =
s^2 J J^T, so the coarse radius is the fine one times COARSE_SAFETY.

The fine phase computes the exact projected covariance, conic, radius and
view-dependent color for coarse survivors.

The fine phase projects a voxel once per frame (``ProjectionCache``) and
tests each tile's rectangle against the cached projection; the coarse phase
is cheap enough to project the streamed first halves on every pass.  Both
phases take the splats of many (tile, voxel) pairs in one call, one
rectangle per splat.  Projecting many voxels at once gives the same bits as
projecting each voxel on its own, because every step is row by row
(``Camera.to_camera`` included).

The projection's small matrices are entry-major (rows, cols, n) blocks, one
contiguous row of n splats per entry, and each product is an element-wise
sum in one fixed order: the order ``np.einsum`` used on row-major (n, rows,
cols) arrays, so the bits are einsum's.  ``einsum`` picks its order from its
operands' memory layout, so the one left on this path, in
``sh.evaluate_sh``, is pinned by a differential test against row-major forms.
"""

from __future__ import annotations

import functools
import math
from dataclasses import asdict, dataclass, fields

import numpy as np

from .scene import CAMERA_ROTATION_TOL, QUAT_NORM_TOL, Camera, TILE_EDGE
from .sh import evaluate_sh

COARSE_MACS = 55
FINE_MACS = 372  # 427 total on the fine path minus the 55 already spent
COVARIANCE_DILATION = 0.3
RADIUS_SIGMAS = 3.0


def _gamma(k: int) -> float:
    """Higham's gamma_k = k u / (1 - k u), u the float64 unit roundoff."""
    u = 2.0**-53
    return k * u / (1 - k * u)


# the module docstring's c (1 + gamma_128), c >= |W|_2 |R(q)|_2 for every
# camera rotation W and quaternion q the program accepts
COARSE_SAFETY = (math.sqrt(1 + 3 * (CAMERA_ROTATION_TOL + 2 * _gamma(3)))  # |W|_2
                 * (2 * ((1 + QUAT_NORM_TOL) * (1 + _gamma(4))) ** 2 - 1)  # |R(q)|_2
                 * (1 + _gamma(128)))
DEGENERATE_DET = 1e-12

# ProjectedBatch's fields, looked up once: fine_filter caches projections per round
_fields = functools.cache(fields)


class Tally:
    """Counters summed over a frame's tiles once, where a renderer charges
    its frame; ``as_dict`` lists the fields in declaration order."""

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

    @classmethod
    def counted(cls, loaded: int, coarse: int, fine: int, degenerate: int) -> "FilterStats":
        """The counters of streaming ``loaded`` splats of which ``coarse``
        pass the coarse test and ``fine`` the fine test: every loaded splat
        costs COARSE_MACS and every coarse survivor FINE_MACS more."""
        return cls(loaded, coarse, fine, COARSE_MACS * loaded, FINE_MACS * coarse, degenerate)

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
    ids: np.ndarray  # (n,)


def tile_rects(tiles) -> np.ndarray:
    """Continuous pixel-space rectangles of (tx, ty) tiles: rows x0, y0, x1,
    y1 of a (4, tiles) array."""
    corners = np.asarray(tiles, dtype=np.float64).reshape(-1, 2).T * TILE_EDGE
    return np.concatenate([corners, corners + TILE_EDGE])


def disc_overlaps_rect(center: np.ndarray, radius: np.ndarray, rect) -> np.ndarray:
    """True where the disc (center, radius) meets the rectangle; shared by both
    pipelines so per-tile membership is identical."""
    x0, y0, x1, y1 = rect
    nearest_x = np.minimum(np.maximum(center[..., 0], x0), x1)
    nearest_y = np.minimum(np.maximum(center[..., 1], y0), y1)
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


def _largest_eigenvalue(a, b, c):
    """The larger eigenvalue of the symmetric 2x2 matrices (a, b; b, c), in a
    form that does not cancel when the two eigenvalues nearly coincide."""
    return 0.5 * (a + c) + np.hypot(0.5 * (a - c), b)


def coarse_screen_radius(camera: Camera, cam: np.ndarray, max_scales: np.ndarray) -> np.ndarray:
    """The coarse radius in pixels of splats centred at camera-space ``cam``:
    z^4 J J^T = (a, b; b, c), b = fx fy x y, at the fine phase's clamped z."""
    x, y = cam[:, 0], cam[:, 1]
    z2 = np.where(np.abs(cam[:, 2]) < 1e-12, 1e-12, cam[:, 2]) ** 2
    a, c = camera.fx**2 * (z2 + x * x), camera.fy**2 * (z2 + y * y)
    j_norm2 = _largest_eigenvalue(a, camera.fx * camera.fy * x * y, c) / (z2 * z2)
    return COARSE_SAFETY * RADIUS_SIGMAS * np.sqrt(max_scales**2 * j_norm2 + COVARIANCE_DILATION)


class ProjectionCache:
    """One frame's splat projections, shared by the tiles one process renders.

    ``key`` is the frame's ``visibility_key``, indexed by renamed id, which
    the scheduler orders by.  A splat's projection depends on the camera,
    not on the tile, so a voxel is projected the first time one of its
    splats passes a tile's coarse test, and every later visit only runs the
    rect test.  The per-splat arrays are indexed like the records' rows
    (``offsets`` are the records' voxel bounds) and hold values only for the
    voxels whose ``projected`` flag is set; ``blend`` reads the survivors'
    rows of ``batch`` where they lie.  The filter counters still count every
    visit, since the hardware tests the voxel again for each tile, but the
    ledger charges a tile only the halves that no earlier tile still in the
    on-chip buffer used (``streaming``).  Entries are deterministic,
    so each worker process of a frame fills its own copy and every copy
    holds the same bits.
    """

    def __init__(self, camera: Camera, key: np.ndarray, offsets: np.ndarray):
        n = int(offsets[-1])
        self.camera = camera
        self.key = key
        self.projected = np.zeros(len(offsets) - 1, dtype=bool)
        self.valid = np.empty(n, dtype=bool)
        self.degenerate = np.empty(n, dtype=bool)  # in front of the near plane, covariance unusable
        self.batch = ProjectedBatch(
            mean2d=np.empty((n, 2)),
            conic=np.empty((n, 3)),
            radius=np.empty(n),
            depth=np.empty(n),
            rgb=np.empty((n, 3)),
            opacity=np.empty(n),
            ids=np.empty(n, dtype=np.int64),
        )


def coarse_filter(
    camera: Camera,
    positions: np.ndarray,
    max_scales: np.ndarray,
    rect,
) -> np.ndarray:
    """Conservative 4-parameter tile test of streamed first halves; returns
    the survivor mask.

    Splat i has first half (``positions[i]``, ``max_scales[i]``); each bound
    of ``rect`` (x0, y0, x1, y1) is a scalar or holds one value per splat.
    """
    cam, depth, mean2d = project_means(camera, positions)
    radius = coarse_screen_radius(camera, cam, max_scales)
    return (depth > camera.near) & disc_overlaps_rect(mean2d, radius, rect)


def quat_to_rotmat(q: np.ndarray) -> np.ndarray:
    """(n, 4) unit quaternions (w, x, y, z) -> (n, 3, 3) rotation matrices,
    a view of the entry-major (3, 3, n) block that ``.transpose(1, 2, 0)``
    recovers."""
    w, x, y, z = np.asarray(q, dtype=np.float64).T
    xx, yy, zz, xy, xz, yz = x * x, y * y, z * z, x * y, x * z, y * z
    wx, wy, wz = w * x, w * y, w * z
    out = np.empty((3, 3, len(w)))
    out[0, 0] = 1 - 2 * (yy + zz)
    out[0, 1] = 2 * (xy - wz)
    out[0, 2] = 2 * (xz + wy)
    out[1, 0] = 2 * (xy + wz)
    out[1, 1] = 1 - 2 * (xx + zz)
    out[1, 2] = 2 * (yz - wx)
    out[2, 0] = 2 * (xz - wy)
    out[2, 1] = 2 * (yz + wx)
    out[2, 2] = 1 - 2 * (xx + yy)
    return out.transpose(2, 0, 1)


def projected_covariance(
    camera: Camera, cam: np.ndarray, scales: np.ndarray, rotations: np.ndarray
) -> np.ndarray:
    """Dilated 2D covariance (a, b, c) of each splat at its camera-space position.

    Built as B @ B.T with B = J @ W @ R @ diag(s), which keeps the result
    positive semi-definite by construction before the +0.3 px dilation.
    W @ (R diag(s)) and J @ (W R diag(s)) sum their inner index in sequence,
    J's zero entries included, and B @ B.T sums it (0 + 2) + 1.
    """
    m = quat_to_rotmat(rotations).transpose(1, 2, 0) * scales.T  # R @ diag(s)
    w = camera.rotation.T[:, :, None, None]  # w[j] is column j of W, as (3, 1, 1)
    a = (w[0] * m[0] + w[1] * m[1]) + w[2] * m[2]  # W @ R @ diag(s)
    z = np.where(np.abs(cam[:, 2]) < 1e-12, 1e-12, cam[:, 2])
    jac = np.zeros((2, 3, 1, len(cam)))  # jac[:, j] is column j of J, as (2, 1, n)
    jac[0, 0] = camera.fx / z
    jac[0, 2] = -camera.fx * cam[:, 0] / (z * z)
    jac[1, 1] = camera.fy / z
    jac[1, 2] = -camera.fy * cam[:, 1] / (z * z)
    b = (jac[:, 0] * a[0] + jac[:, 1] * a[1]) + jac[:, 2] * a[2]
    cov = (b[:, None, 0] * b[:, 0] + b[:, None, 2] * b[:, 2]) + b[:, None, 1] * b[:, 1]  # B @ B.T
    return np.stack(
        [cov[0, 0] + COVARIANCE_DILATION, cov[0, 1], cov[1, 1] + COVARIANCE_DILATION], axis=1
    )


def project_splats(
    camera: Camera,
    positions: np.ndarray,
    scales: np.ndarray,
    rotations: np.ndarray,
    opacities: np.ndarray,
    sh: np.ndarray,
    ids: np.ndarray,
) -> tuple[np.ndarray, ProjectedBatch, np.ndarray]:
    """Full projection shared by both pipelines.

    Returns (valid_mask, batch_over_all_inputs, degenerate_mask); entries
    where valid_mask is False hold unusable values and must be dropped by the
    caller.  Validity covers depth > near and a non-degenerate covariance;
    tile overlap is a separate test.  A degenerate splat is in front of the
    near plane with an unusable covariance.
    """
    cam, depth, mean2d = project_means(camera, positions)
    cov = projected_covariance(camera, cam, scales, rotations)
    det = cov[:, 0] * cov[:, 2] - cov[:, 1] * cov[:, 1]
    ok_det = det > DEGENERATE_DET
    safe_det = np.where(ok_det, det, 1.0)
    conic = np.stack([cov[:, 2] / safe_det, -cov[:, 1] / safe_det, cov[:, 0] / safe_det], axis=1)
    lam_max = _largest_eigenvalue(cov[:, 0], cov[:, 1], cov[:, 2])
    radius = RADIUS_SIGMAS * np.sqrt(np.maximum(lam_max, 0.0))
    in_front = depth > camera.near
    view_dir = positions - camera.position
    norms = np.linalg.norm(view_dir, axis=1, keepdims=True)
    norms[norms == 0.0] = 1.0
    rgb = evaluate_sh(sh, view_dir / norms)
    valid = in_front & ok_det
    degenerate = in_front & ~ok_det
    batch = ProjectedBatch(
        mean2d=mean2d,
        conic=conic,
        radius=radius,
        depth=depth,
        rgb=rgb,
        opacity=np.asarray(opacities, dtype=np.float64),
        ids=np.asarray(ids, dtype=np.int64),
    )
    return valid, batch, degenerate


def fine_filter(
    cache: ProjectionCache,
    rows: np.ndarray,
    groups: np.ndarray,
    rect,
    fresh: tuple | None = None,
) -> np.ndarray:
    """Exact tile test of coarse survivors; returns the indices into ``rows``
    of the splats that truly meet their rectangle, ordered by (group, depth,
    id).  With ``groups`` ascending along each tile's schedule, that is the
    blend order.

    ``rect`` is ``coarse_filter``'s.  ``fresh`` is (vids, rows, splats) for
    voxels not yet projected: ``splats`` holds ``project_splats``'s inputs
    (positions, scales, rotations, opacities, sh, ids) for every row of
    those voxels, which are projected here in one call and cached.
    """
    if fresh is not None:
        vids, new_rows, splats = fresh
        valid, batch, degenerate = project_splats(cache.camera, *splats)
        cache.valid[new_rows] = valid
        cache.degenerate[new_rows] = degenerate
        for f in _fields(ProjectedBatch):
            getattr(cache.batch, f.name)[new_rows] = getattr(batch, f.name)
        cache.projected[vids] = True
    batch = cache.batch
    hit = cache.valid[rows] & disc_overlaps_rect(batch.mean2d[rows], batch.radius[rows], rect)
    kept = np.flatnonzero(hit)
    kept_rows = rows[kept]
    return kept[np.lexsort((batch.ids[kept_rows], batch.depth[kept_rows], groups[kept]))]
