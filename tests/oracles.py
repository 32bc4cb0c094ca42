"""Test-only reference implementations of the vectorized hot loops.

These are the straightforward per-splat and per-visit forms that the
production code must match bit for bit.  They live here, not in the
package, so there is exactly one blend and one ray-table builder to ship.
"""

from __future__ import annotations

import numpy as np

from voxsplat.blending import ALPHA_CAP, ALPHA_MIN, T_FREEZE
from voxsplat.scheduler import _ray_visits


def blend_per_splat(batch, centers, color, transmittance, trace=None, pixel_trace=None) -> int:
    """One splat at a time over all 256 pixels; same contract as ``blend``."""
    n = 0
    for i in range(len(batch)):
        active = transmittance >= T_FREEZE
        if not active.any():
            break
        n += 1
        if trace is not None:
            trace.append((float(batch.depth[i]), float(batch.max_scale[i])))
        d = centers - batch.mean2d[i]
        a, b, c = batch.conic[i]
        power = -0.5 * (a * d[:, 0] ** 2 + c * d[:, 1] ** 2) - b * d[:, 0] * d[:, 1]
        alpha = np.minimum(ALPHA_CAP, batch.opacity[i] * np.exp(power))
        hit = active & (alpha >= ALPHA_MIN)
        if pixel_trace is not None and hit[pixel_trace[0]]:
            pixel_trace[1].append((float(batch.depth[i]), float(batch.max_scale[i])))
        if not hit.any():
            continue
        w = transmittance[hit] * alpha[hit]
        color[hit] += w[:, None] * batch.rgb[i]
        transmittance[hit] *= 1.0 - alpha[hit]
    return n


def walk_rays_per_visit(origin, dirs, grid) -> list[list[int]]:
    """Ray table built by appending every (ray, step, voxel) visit, then sorting."""
    visits = []
    for step_idx, vr in enumerate(_ray_visits(origin, dirs, grid).T):
        for ray in np.flatnonzero(vr >= 0):
            visits.append((int(ray), step_idx, int(vr[ray])))
    table = [[] for _ in range(len(dirs))]
    for ray, _, vid_r in sorted(visits):
        table[ray].append(vid_r)
    return table
