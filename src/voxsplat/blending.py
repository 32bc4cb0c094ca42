"""Front-to-back alpha blending — the single source of truth for both pipelines.

Per splat and pixel: alpha = min(0.99, opacity * exp(-0.5 d^T conic d)),
skipped below 1/255; color += T * alpha * rgb; T *= 1 - alpha.  A pixel whose
transmittance falls below 1e-4 is frozen and accumulates nothing further;
because the rule is part of the blend itself, exhaustive and early-exiting
schedules produce identical pixels.

``blend`` evaluates BLEND_BLOCK depth-sorted splats at a time as one
(splats, pixels) array and still returns the bits of the splat-by-splat
definition above:

- Every per-element expression (offset, power, alpha, T * alpha * rgb) is the
  same sequence of float64 operations as in the per-splat form.
- Transmittance in front of each splat is ``np.multiply.accumulate`` over
  [T, f0, f1, ...] along the splat axis, which multiplies strictly left to
  right.  A splat below the 1/255 cut contributes f = 1.0, and T * 1.0 == T.
- Freezing is monotone: every factor lies in (0, 1], so a running product
  that has fallen below T_FREEZE stays below it.  Past a pixel's freeze the
  accumulated rows keep shrinking instead of holding still, but they remain
  below T_FREEZE, so ``rows >= T_FREEZE`` is exactly the per-splat loop's
  live mask and every row after the first frozen one is masked out.  Columns
  already frozen when a block starts are left out altogether.
- Color is ``np.add.reduce`` along the splat axis of [color, c0, c1, ...],
  and the exit transmittance ``np.multiply.reduce`` of [T, f...] with 1.0 in
  place of every masked factor.  A reduction over the outer axis of a
  C-ordered array combines row after row, so each pixel sums and multiplies
  in the order the per-splat loop would.  A masked color term is -0.0 and
  the sum starts from ``initial=-0.0``: x + -0.0 == x for every x, signed
  zeros included, where +0.0 would turn a -0.0 into +0.0.
"""

from __future__ import annotations

import numpy as np

from .filtering import ProjectedBatch
from .scene import TILE_EDGE

ALPHA_CAP = 0.99
ALPHA_MIN = 1.0 / 255.0
T_FREEZE = 1e-4
BLEND_BLOCK = 64  # splats evaluated together as one (block, 256) array


def tile_pixel_centers(tx: int, ty: int) -> np.ndarray:
    """(256, 2) pixel-center coordinates of a tile, row-major."""
    ys, xs = np.mgrid[0:TILE_EDGE, 0:TILE_EDGE]
    px = tx * TILE_EDGE + xs.ravel() + 0.5
    py = ty * TILE_EDGE + ys.ravel() + 0.5
    return np.stack([px, py], axis=1)


def blend(
    batch: ProjectedBatch,
    centers: np.ndarray,
    color: np.ndarray,
    transmittance: np.ndarray,
    trace: list | None = None,
    pixel_trace: tuple[int, list] | None = None,
) -> int:
    """Blend depth-sorted splats into the running pixel state (in place).

    Returns the number of splats processed: all of them, or the index of the
    first splat reached with every pixel frozen.  ``trace`` collects one
    (depth, max_scale) pair per processed splat, in blend order;
    ``pixel_trace`` is (pixel_index, list) and collects only the splats that
    actually contributed to that pixel.
    """
    n = 0
    for start in range(0, len(batch), BLEND_BLOCK):
        live = np.flatnonzero(transmittance >= T_FREEZE)
        if not len(live):
            break
        # frozen pixels never change again: evaluate only the live columns,
        # through a plain view while no pixel has frozen yet
        cols = slice(None) if len(live) == len(transmittance) else live
        stop = min(start + BLEND_BLOCK, len(batch))
        k = stop - start
        dx = centers[cols, 0] - batch.mean2d[start:stop, 0, None]
        dy = centers[cols, 1] - batch.mean2d[start:stop, 1, None]
        a, b, c = (batch.conic[start:stop, j, None] for j in range(3))
        power = -0.5 * (a * dx**2 + c * dy**2) - b * dx * dy
        alpha = np.minimum(ALPHA_CAP, batch.opacity[start:stop, None] * np.exp(power))
        opaque = alpha >= ALPHA_MIN
        # factors[0] is the entry transmittance, factors[j + 1] splat j's 1 - alpha
        factors = np.ones((k + 1, len(live)))
        factors[0] = transmittance[cols]
        np.subtract(1.0, alpha, out=factors[1:], where=opaque)
        t_front = np.multiply.accumulate(factors)  # row j: in front of splat j
        active = t_front >= T_FREEZE
        hit = opaque & active[:-1]
        miss = ~hit
        # channel-major (k, 3, pixels) summands keep the pixel axis contiguous
        summands = np.empty((k + 1, 3, len(live)))
        summands[0] = color[cols].T
        np.multiply(t_front[:-1, None] * alpha[:, None], batch.rgb[start:stop, :, None],
                    out=summands[1:])
        np.copyto(summands[1:], -0.0, where=miss[:, None])
        color[cols] = np.add.reduce(summands, axis=0, initial=-0.0).T
        np.copyto(factors[1:], 1.0, where=miss)
        transmittance[cols] = np.multiply.reduce(factors, axis=0)

        processed = int(np.count_nonzero(active[:-1].any(axis=1)))
        n += processed
        if trace is not None:
            done = slice(start, start + processed)
            trace.extend(zip(batch.depth[done].tolist(), batch.max_scale[done].tolist()))
        if pixel_trace is not None:
            rows = start + np.flatnonzero(hit[:, live == pixel_trace[0]])
            pixel_trace[1].extend(zip(batch.depth[rows].tolist(), batch.max_scale[rows].tolist()))
        if processed < k:
            break
    return n


def composite_background(color: np.ndarray, transmittance: np.ndarray, background) -> None:
    color += transmittance[:, None] * np.asarray(background, dtype=np.float64)
