"""One tile-row loop for both renderers.

A renderer hands ``render_rows`` a function that renders tile row ``ty`` and
returns the row's colors, one (256, 3) array per tile in x order, plus the
row's payload, the counts the renderer charges its frame from.  Tiles are
independent, so a row's pixels and payload do not depend on which process
renders it or when.

With more than one worker, this process forks the others for the frame, and
every process takes the next unrendered row from a shared counter until none
is left, writing the row's pixels into a float64 framebuffer in a shared
anonymous mmap.  A worker pickles its (ty, payload) pairs, put back here in
``ty`` order, or its exception down its own pipe and leaves through ``os._exit``:
it never returns into the caller, runs ``atexit`` or flushes inherited stdio
buffers.  A worker's exception is raised here with its class, the worker's
traceback as its cause; a worker that dies without a payload raises
``RuntimeError``.  If this process raises, it kills and reaps the workers
first.  One worker, a one-row frame or a platform without ``fork`` renders
every row in this process.
"""

from __future__ import annotations

import mmap
import multiprocessing
import os
import pickle
import signal
import traceback

import numpy as np

from .scene import Camera, TILE_EDGE


def _render_into(frame: np.ndarray, render_row, ty: int) -> tuple:
    colors, payload = render_row(ty)
    band = frame[ty * TILE_EDGE : (ty + 1) * TILE_EDGE]
    # tile tx's row-major pixels land in columns 16 tx .. 16 tx + 15
    tiles = np.reshape(colors, (len(colors), TILE_EDGE, TILE_EDGE, 3))
    band[:] = tiles.transpose(1, 0, 2, 3).reshape(band.shape)
    return ty, payload


def _drain(state) -> list:
    """Render rows taken from the shared counter until none is left."""
    render_row, frame, next_row, rows = state
    rendered = []
    while True:
        with next_row.get_lock():
            ty = next_row.value
            next_row.value += 1
        if ty >= rows:
            return rendered
        rendered.append(_render_into(frame, render_row, ty))


def _fork(state) -> tuple[int, int]:
    """Fork a worker that drains rows and writes one pickled (ok, rows or
    (exception, traceback)) payload to a pipe; returns (its pid, the read end)."""
    read, write = os.pipe()
    pid = os.fork()
    if pid:
        os.close(write)  # before the next fork, so only this worker holds it open
        return pid, read
    try:
        try:
            payload = (True, _drain(state))
        except BaseException as exc:  # interrupts too: the parent raises it
            try:  # the parent must be able to unpickle it
                pickle.loads(pickle.dumps(exc))
            except Exception:
                exc = RuntimeError(f"{type(exc).__name__}: {exc}")
            payload = (False, (exc, traceback.format_exc()))
        with open(write, "wb") as pipe:
            pickle.dump(payload, pipe)
    finally:
        os._exit(0)


def render_rows(camera: Camera, render_row, threads: int) -> tuple[np.ndarray, list]:
    """Render every tile row; returns (framebuffer (H, W, 3) float32, the
    rows' payloads in ``ty`` order)."""
    if threads < 1:
        raise ValueError(f"threads must be at least 1, got {threads}")
    _, nty = camera.tile_counts
    shape = (camera.height, camera.width, 3)
    # this process and its forked workers: at most one per thread, tile row and usable CPU
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    workers = min(threads, nty, cpus or 1)
    if workers <= 1 or not hasattr(os, "fork"):
        frame = np.zeros(shape)
        rendered = [_render_into(frame, render_row, ty) for ty in range(nty)]
    else:
        size = camera.height * camera.width * 3
        shared = mmap.mmap(-1, 8 * size)
        frame = np.frombuffer(shared, dtype=np.float64, count=size).reshape(shape)
        state = (render_row, frame, multiprocessing.get_context("fork").Value("q", 0), nty)
        forked = []  # (pid, pipe read end) of each worker not yet reaped
        try:
            for _ in range(workers - 1):
                forked.append(_fork(state))
            rendered = _drain(state)
            while forked:
                pid, read = forked[-1]
                with open(read, "rb", closefd=False) as pipe:
                    payload = pipe.read()  # to EOF before waitpid: a large payload fills the pipe
                status = os.waitpid(pid, 0)[1]
                os.close(forked.pop()[1])
                if status or not payload:
                    raise RuntimeError(f"render worker {pid} exited without a result "
                                       f"(wait status {status})")
                ok, rows = pickle.loads(payload)
                if not ok:
                    raise rows[0] from RuntimeError(f"in render worker {pid}:\n{rows[1]}")
                rendered += rows
        finally:  # on any raise, here or in a worker, no worker outlives the frame
            for pid, read in forked:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                os.close(read)
    rendered.sort(key=lambda row: row[0])
    return frame.astype(np.float32), [payload for _, payload in rendered]
