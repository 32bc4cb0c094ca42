import contextlib
import hashlib
import os
import signal
import struct
import threading
import zlib
from unittest import mock

import numpy as np
import pytest

import voxsplat.tileloop as tileloop
from voxsplat import Aabb, generate_scene, look_at_camera
from voxsplat.filtering import FilterStats, ProjectionCache, coarse_filter, fine_filter
from voxsplat.scheduler import visibility_key, voxel_depths

from oracles import take
from voxsplat.scene import _REQUIRED_PROPS


@pytest.fixture
def desk_camera():
    """256x256 camera a few meters back from the scene box used in most tests."""
    return look_at_camera([0.0, 0.0, -10.0], [0.0, 0.0, 0.0], focal=300.0)


def constrained_scene(seed, count=600):
    """Oracle-regime scene: every splat well inside its voxel, ordering-safe."""
    return generate_scene(
        count=count,
        bounds=Aabb([-8.0, -8.0, -2.0], [8.0, 8.0, 2.0]),
        seed=seed,
        max_extent_fraction=0.135,
        voxel_edge=2.0,
        constrained=True,
    )


def cluttered_scene(seed=0, count=30000):
    """Deep unconstrained scene used for the traffic-shape and filtering checks."""
    return generate_scene(
        count=count,
        bounds=Aabb([-6.0, -6.0, 2.0], [6.0, 6.0, 26.0]),
        seed=seed,
        max_extent_fraction=0.4,
        voxel_edge=2.0,
    )


def projection_cache(camera, grid, records) -> ProjectionCache:
    """An empty projection cache of ``camera``'s frame, for tiles rendered outside a frame."""
    key = visibility_key(camera, grid, voxel_depths(camera, grid))
    return ProjectionCache(camera, key, records.offsets)


def tile_alone(counts, keys, t):
    """Tile t of ``streaming.tally``'s counters and keys ``id * (tiles + 1) +
    tile``, as a stream of one tile: its counter column and its own keys."""
    tiles = counts.shape[1]
    return counts[:, t : t + 1], [k[k % (tiles + 1) == t] // (tiles + 1) * 2 for k in keys]


def usable_cpus(count):
    """Patch the CPUs this process may run on, which cap the row workers, to ``count``."""
    return mock.patch.object(os, "sched_getaffinity", return_value=set(range(count)), create=True)


@contextlib.contextmanager
def leave_rows_to_workers():
    """Patch the row loop so the parent takes no rows: every row is then
    rendered in a forked worker, which inherits the patch.  Two usable CPUs
    are patched in too, so a two-thread frame forks a worker on any host."""
    parent, drain = os.getpid(), tileloop._drain
    with usable_cpus(2), mock.patch.object(
            tileloop, "_drain", lambda state: [] if os.getpid() == parent else drain(state)):
        yield


@contextlib.contextmanager
def leaves_no_process_or_thread(seconds=60):
    """Check that the block ends within ``seconds``, instead of hanging on a
    worker, and leaves no child process, running or unreaped, and no extra thread."""
    def timeout(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    threads = threading.active_count()
    previous = signal.signal(signal.SIGALRM, timeout)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert threading.active_count() == threads
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def filter_voxel(camera, rect, splats, survivors=None):
    """One voxel's splats (``project_splats``'s inputs) through both filters
    against one rectangle, as the renderer runs them.

    The fine test takes ``survivors``, by default the coarse survivors.
    Returns (coarse mask, the fine survivors in blend order, the counters).
    """
    positions, scales = splats[0], splats[1]
    n = len(positions)
    rows = np.arange(n)
    cache = ProjectionCache(camera, np.empty(0), np.array([0, n]))
    mask = coarse_filter(camera, positions, scales.max(axis=1), rect)
    survivors = np.flatnonzero(mask) if survivors is None else np.asarray(survivors)
    kept = fine_filter(cache, survivors, np.zeros(len(survivors), dtype=np.int64), rect,
                       (np.array([0]), rows, splats))
    degenerate = int(np.count_nonzero(cache.degenerate[survivors]))
    stats = FilterStats.counted(n, len(survivors), len(kept), degenerate)
    return mask, take(cache.batch, survivors[kept]), stats


def double_ply(path, xs):
    """Write a PLY of ``double`` properties holding unit splats at x = ``xs``."""
    header = "".join(f"property double {name}\n" for name in _REQUIRED_PROPS)
    data = np.zeros(len(xs), dtype=[(name, "<f8") for name in _REQUIRED_PROPS])
    data["x"], data["rot_0"] = xs, 1.0
    path.write_bytes(f"ply\nformat binary_little_endian 1.0\nelement vertex {len(xs)}\n{header}"
                     f"end_header\n".encode() + data.tobytes())


def restamp(data) -> bytes:
    """Store-file bytes with their last 32 bytes replaced by the sha256 of
    the rest, so an edit reaches the checks behind the digest."""
    data = bytes(data[:-32])
    return data + hashlib.sha256(data).digest()


def read_png(path) -> np.ndarray:
    """Read back PNGs produced by ``frameio.write_png`` (filter-0 RGB only)."""
    with open(path, "rb") as f:
        blob = f.read()
    if blob[:8] != b"\x89PNG\r\n\x1a\n":
        raise ValueError("not a PNG file")
    pos = 8
    w = h = None
    idat = b""
    while pos < len(blob):
        (length,) = struct.unpack(">I", blob[pos : pos + 4])
        tag = blob[pos + 4 : pos + 8]
        payload = blob[pos + 8 : pos + 8 + length]
        if tag == b"IHDR":
            w, h, depth, ctype = struct.unpack(">IIBB", payload[:10])
            if depth != 8 or ctype != 2:
                raise ValueError("only 8-bit RGB supported")
        elif tag == b"IDAT":
            idat += payload
        pos += 12 + length
    raw = zlib.decompress(idat)
    stride = 1 + 3 * w
    rows = []
    for y in range(h):
        row = raw[y * stride : (y + 1) * stride]
        if row[0] != 0:
            raise ValueError("only filter 0 supported")
        rows.append(np.frombuffer(row[1:], dtype=np.uint8).reshape(w, 3))
    return np.stack(rows).astype(np.float64) / 255.0
