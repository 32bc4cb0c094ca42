"""Real spherical harmonics basis (degree <= 3) for view-dependent splat color."""

import numpy as np

C0 = 0.28209479177387814
C1 = 0.4886025119029199
C2 = (
    1.0925484305920792,
    -1.0925484305920792,
    0.31539156525252005,
    -1.0925484305920792,
    0.5462742152960396,
)
C3 = (
    -0.5900435899266435,
    2.890611442640554,
    -0.4570457994644658,
    0.3731763325901154,
    -0.4570457994644658,
    1.445305721320277,
    -0.5900435899266435,
)

SH_COEFFS = 16  # (degree+1)^2 with degree 3


def sh_basis(dirs: np.ndarray) -> np.ndarray:
    """Evaluate the 16 basis functions for unit directions (..., 3) -> (..., 16),
    a view of a (16, ...) block with one contiguous row per function."""
    dirs = np.asarray(dirs, dtype=np.float64)
    x, y, z = dirs[..., 0], dirs[..., 1], dirs[..., 2]
    xx, yy, zz = x * x, y * y, z * z
    xy, yz, xz = x * y, y * z, x * z

    out = np.empty((SH_COEFFS,) + dirs.shape[:-1], dtype=np.float64)
    out[0] = C0
    out[1] = -C1 * y
    out[2] = C1 * z
    out[3] = -C1 * x
    out[4] = C2[0] * xy
    out[5] = C2[1] * yz
    out[6] = C2[2] * (2.0 * zz - xx - yy)
    out[7] = C2[3] * xz
    out[8] = C2[4] * (xx - yy)
    out[9] = C3[0] * y * (3.0 * xx - yy)
    out[10] = C3[1] * xy * z
    out[11] = C3[2] * y * (4.0 * zz - xx - yy)
    out[12] = C3[3] * z * (2.0 * zz - 3.0 * xx - 3.0 * yy)
    out[13] = C3[4] * x * (4.0 * zz - xx - yy)
    out[14] = C3[5] * z * (xx - yy)
    out[15] = C3[6] * x * (xx - 3.0 * yy)
    return out.transpose(*range(1, out.ndim), 0)  # moveaxis(out, 0, -1) at a tenth of its cost


def evaluate_sh(sh: np.ndarray, dirs: np.ndarray) -> np.ndarray:
    """RGB in [0, 1] from SH coefficients and unit view directions.

    ``sh`` has shape (..., 16, 3) — 16 coefficients per channel, coefficient 0
    being the DC term.  ``dirs`` has shape (..., 3) and must be normalized.
    The 0.5 offset and the [0, 1] clamp are part of the contract: every
    renderer in this package must obtain colors through this function.
    """
    sh = np.asarray(sh, dtype=np.float64)
    basis = sh_basis(dirs)
    rgb = 0.5 + np.einsum("...k,...kc->...c", basis, sh)
    return np.clip(rgb, 0.0, 1.0)
