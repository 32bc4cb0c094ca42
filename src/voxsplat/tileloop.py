"""One tile-row loop for both renderers.

A renderer hands ``render_rows`` a function that renders tile row ``ty`` and
returns the row's colors, one (256, 3) array per tile in x order, plus the
row's tallies: ledgers and counters of integer sums, which merge to the same
totals in any order.  Tiles are independent, so a row's pixels do not depend
on which process renders it or when.

With more than one worker, this process forks the others into a pool that
lives for one frame.  The workers inherit the frame's inputs through the
pool's initializer, without pickling.  Every process, this one included,
takes the next unrendered row from a shared counter until none is left,
writes the row's pixels straight into a float64 framebuffer in a shared
anonymous mmap, and keeps the row's tallies; the workers send back only
their tallies.  One worker, a one-row frame or a platform without ``fork``
renders every row in this process.
"""

from __future__ import annotations

import mmap
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from .scene import Camera, TILE_EDGE

# A forked worker's frame state, set by the pool initializer in the worker;
# the parent passes its own copy explicitly and never sets it.
_worker = None


def _install(state) -> None:
    global _worker
    _worker = state


def _render_into(frame: np.ndarray, render_row, ty: int):
    colors, tally = render_row(ty)
    band = frame[ty * TILE_EDGE : (ty + 1) * TILE_EDGE]
    # tile tx's row-major pixels land in columns 16 tx .. 16 tx + 15
    tiles = np.reshape(colors, (len(colors), TILE_EDGE, TILE_EDGE, 3))
    band[:] = tiles.transpose(1, 0, 2, 3).reshape(band.shape)
    return tally


def _drain(state) -> list:
    """Render rows taken from the shared counter until none is left."""
    render_row, frame, next_row, rows = state
    tallies = []
    while True:
        with next_row.get_lock():
            ty = next_row.value
            next_row.value += 1
        if ty >= rows:
            return tallies
        tallies.append(_render_into(frame, render_row, ty))


def _drain_worker() -> list:
    return _drain(_worker)


def render_rows(camera: Camera, render_row, threads: int) -> tuple[np.ndarray, list]:
    """Render every tile row; returns (framebuffer (H, W, 3) float32, the
    rows' tallies in no particular order)."""
    if threads < 1:
        raise ValueError(f"threads must be at least 1, got {threads}")
    _, nty = camera.tile_counts
    shape = (camera.height, camera.width, 3)
    # this process and its forked workers: at most one per thread, tile row and CPU
    workers = min(threads, nty, os.cpu_count() or 1)
    if workers <= 1 or "fork" not in multiprocessing.get_all_start_methods():
        frame = np.zeros(shape)
        tallies = [_render_into(frame, render_row, ty) for ty in range(nty)]
        return frame.astype(np.float32), tallies
    size = camera.height * camera.width * 3
    shared = mmap.mmap(-1, 8 * size)
    frame = np.frombuffer(shared, dtype=np.float64, count=size).reshape(shape)
    context = multiprocessing.get_context("fork")
    state = (render_row, frame, context.Value("q", 0), nty)
    # a worker that dies mid-frame breaks the pool: its result raises
    # BrokenProcessPool instead of never arriving
    with ProcessPoolExecutor(workers - 1, mp_context=context, initializer=_install,
                             initargs=(state,)) as pool:
        forked = [pool.submit(_drain_worker) for _ in range(workers - 1)]
        tallies = _drain(state)
        for future in forked:
            tallies += future.result()
    return frame.astype(np.float32), tallies
