"""Front-to-back alpha blending — the single source of truth for both pipelines.

Per splat and pixel: alpha = min(0.99, opacity * exp(-0.5 d^T conic d)),
skipped below 1/255; color += T * alpha * rgb; T *= 1 - alpha.  A pixel whose
transmittance falls below 1e-4 is frozen and accumulates nothing further;
because the rule is part of the blend itself, exhaustive and early-exiting
schedules produce identical pixels.

``blend`` takes many independent tiles at once, normally a tile row, one
after another.  Inside a tile it evaluates BLEND_BLOCK depth-sorted splats
at a time as one (splats, pixels) array and still returns the bits of the
splat-by-splat definition above:

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

ALPHA_CAP = 0.99
ALPHA_MIN = 1.0 / 255.0
T_FREEZE = 1e-4
BLEND_BLOCK = 64  # splats evaluated together as one (block, 256) array


def blend(
    batch: ProjectedBatch,
    rows: np.ndarray,
    bounds: list[int],
    centers: np.ndarray,
    color: np.ndarray,
    transmittance: np.ndarray,
) -> np.ndarray:
    """Blend each tile's depth-sorted splats into its running pixel state (in place).

    ``batch`` is a frame's projection, read by row: tile t blends rows
    ``rows[bounds[t]:bounds[t + 1]]`` of it, in that order, into its pixels
    ``centers[t]``, ``color[t]`` and ``transmittance[t]``.  Only ``mean2d``,
    ``conic``, ``opacity`` and ``rgb`` are read, gathered once per call.
    Returns the number of splats processed per tile: all of them, or the
    index of the first splat reached with every pixel frozen, so tile t
    processed ``rows[bounds[t]:bounds[t] + processed[t]]``.
    """
    mean2d, conic, opacity, rgb = (batch.mean2d[rows], batch.conic[rows], batch.opacity[rows],
                                   batch.rgb[rows])
    processed = np.zeros(len(centers), dtype=np.int64)
    for t, (first, end) in enumerate(zip(bounds, bounds[1:])):
        tile_color, tile_t = color[t], transmittance[t]
        for start in range(first, end, BLEND_BLOCK):
            live = np.flatnonzero(tile_t >= T_FREEZE)
            if not len(live):
                break
            # frozen pixels never change again: evaluate only the live columns,
            # through a plain view while no pixel has frozen yet
            cols = slice(None) if len(live) == len(tile_t) else live
            stop = min(start + BLEND_BLOCK, end)
            k = stop - start
            dx = centers[t, cols, 0] - mean2d[start:stop, 0, None]
            dy = centers[t, cols, 1] - mean2d[start:stop, 1, None]
            a, b, c = (conic[start:stop, j, None] for j in range(3))
            power = -0.5 * (a * dx**2 + c * dy**2) - b * dx * dy
            alpha = np.minimum(ALPHA_CAP, opacity[start:stop, None] * np.exp(power))
            opaque = alpha >= ALPHA_MIN
            # factors[0] is the entry transmittance, factors[j + 1] splat j's 1 - alpha
            factors = np.ones((k + 1, len(live)))
            factors[0] = tile_t[cols]
            np.subtract(1.0, alpha, out=factors[1:], where=opaque)
            t_front = np.multiply.accumulate(factors)  # row j: in front of splat j
            active = t_front >= T_FREEZE
            hit = opaque & active[:-1]
            miss = ~hit
            # channel-major (k, 3, pixels) summands keep the pixel axis contiguous
            summands = np.empty((k + 1, 3, len(live)))
            summands[0] = tile_color[cols].T
            np.multiply(t_front[:-1, None] * alpha[:, None], rgb[start:stop, :, None],
                        out=summands[1:])
            np.copyto(summands[1:], -0.0, where=miss[:, None])
            tile_color[cols] = np.add.reduce(summands, axis=0, initial=-0.0).T
            np.copyto(factors[1:], 1.0, where=miss)
            tile_t[cols] = np.multiply.reduce(factors, axis=0)

            done = int(np.count_nonzero(active[:-1].any(axis=1)))
            processed[t] += done
            if done < k:
                break
    return processed


def composite_background(color: np.ndarray, transmittance: np.ndarray, background) -> None:
    color += transmittance[..., None] * np.asarray(background, dtype=np.float64)
