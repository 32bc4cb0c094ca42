"""Tile rows on forked worker processes: the same bits as one process, no
more workers than the frame needs, worker errors that keep their class, and
no process or thread left behind."""

import contextlib
import os
import re
import subprocess
import sys
import time
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

import voxsplat
import voxsplat.reference as reference_mod
import voxsplat.streaming as streaming_mod
import voxsplat.tileloop as tileloop
from voxsplat import VoxelStore, look_at_camera, render_frame_reference, render_frame_streaming
from voxsplat.errors import CodebookCorruptionError
from voxsplat.filtering import disc_overlaps_rect, project_splats, tile_rects
from voxsplat.voxelstore import gather_attribute
from voxsplat.vq import ATTRIBUTES, train_codebook

from conftest import (constrained_scene, leave_rows_to_workers, leaves_no_process_or_thread,
                      projection_cache, usable_cpus)

needs_fork = pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")


@pytest.fixture(scope="module")
def store():
    return VoxelStore.build(constrained_scene(seed=3, count=300), 2.0)


def _camera(rows, cols=4):
    return look_at_camera([1.0, -0.5, -10.0], [0.0, 0.0, 0.0], width=16 * cols,
                          height=16 * rows, focal=40.0)


def _frames(camera, store, threads):
    """Both pipelines' frame bytes and ledgers, and the streaming stats."""
    image, ledger, stats = render_frame_streaming(camera, store.grid, store.records,
                                                  threads=threads)
    ref, ref_ledger = render_frame_reference(camera, store.records, threads=threads)
    return (image.tobytes(), ledger.as_dict(), stats.as_dict(), ref.tobytes(),
            ref_ledger.as_dict())


def _counting_forks():
    """Patch ``_fork`` with a mock that counts the workers this process forks."""
    return mock.patch.object(tileloop, "_fork", side_effect=tileloop._fork)


@contextlib.contextmanager
def _finishing_last_first():
    """Fork up to eight processes, each handing back its rows in reverse, as if
    they had finished last first; some process takes two rows or more."""
    drain = tileloop._drain
    with mock.patch.object(tileloop, "_drain", lambda state: drain(state)[::-1]), usable_cpus(8):
        yield


@needs_fork
@pytest.mark.parametrize("threads, rows, cpus, processes", [
    (8, 2, 8, 2),  # capped by the tile rows
    (1000, 6, 3, 3),  # capped by the CPUs
    (2, 6, 64, 2),  # the requested count
    (1, 6, 8, 1),
])
def test_worker_cap_is_threads_rows_and_cpus(store, threads, rows, cpus, processes):
    camera = _camera(rows)
    with leaves_no_process_or_thread(), usable_cpus(cpus), _counting_forks() as fork:
        frames = _frames(camera, store, threads)
    # the parent renders too, so each renderer's frame forks one process fewer
    assert fork.call_count == 2 * (processes - 1)
    assert frames == _frames(camera, store, 1)


@needs_fork
@pytest.mark.parametrize("affinity, cpu_count, processes", [
    (1, 64, 1),  # a process pinned to one of the host's CPUs forks nothing
    (3, 64, 3),
    (None, 3, 3),  # no affinity call: the CPU count caps
    (None, None, 1),  # nor a CPU count: one process
])
def test_workers_are_capped_by_the_cpus_this_process_may_run_on(monkeypatch, store, affinity,
                                                                cpu_count, processes):
    monkeypatch.setattr(os, "cpu_count", lambda: cpu_count)
    if affinity is None:
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    else:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(affinity)),
                            raising=False)
    camera = _camera(6)
    with leaves_no_process_or_thread(), _counting_forks() as fork:
        _, rows = tileloop.render_rows(camera, lambda ty: (np.zeros((4, 256, 3)), ty), 8)
    assert fork.call_count == processes - 1
    assert rows == list(range(6))


@needs_fork
@pytest.mark.parametrize("rows, threads", [(3, 2), (2, 4)])
@pytest.mark.parametrize("workers_only", [False, True])
def test_forked_frames_match_one_process_and_leave_no_children(store, rows, threads,
                                                               workers_only):
    camera = _camera(rows)
    with leaves_no_process_or_thread(), \
            leave_rows_to_workers() if workers_only else usable_cpus(8):
        forked = _frames(camera, store, threads)
    assert forked == _frames(camera, store, 1)


def test_one_row_frame_starts_no_process(store):
    camera = _camera(1, cols=5)
    with usable_cpus(8), mock.patch.object(tileloop, "_fork",
                                           side_effect=AssertionError("forked")):
        frames = _frames(camera, store, 4)
    assert frames == _frames(camera, store, 1)


def test_a_platform_without_fork_renders_every_row_in_this_process(monkeypatch, store):
    camera = _camera(3)
    want = _frames(camera, store, 1)
    monkeypatch.delattr(os, "fork", raising=False)
    with usable_cpus(8), mock.patch.object(tileloop, "_fork",
                                           side_effect=AssertionError("forked")) as fork:
        frames = _frames(camera, store, 4)
    assert not fork.called
    assert frames == want


@needs_fork
def test_codebook_error_in_a_worker_reaches_the_caller_as_its_class(store):
    books = {name: train_codebook(gather_attribute(store.records, name), 16, seed=0,
                                  attribute=name) for name in ATTRIBUTES}
    encoded = store.encode(books)
    encoded.records.scale_idx = np.full_like(encoded.records.scale_idx,
                                             books["scale"].entry_count)
    with leaves_no_process_or_thread(), leave_rows_to_workers(), \
            pytest.raises(CodebookCorruptionError, match="scale index 16 out of range") as info:
        render_frame_streaming(_camera(2), encoded.grid, encoded.records, books, threads=2)
    # raised in a worker: the worker's traceback is the cause
    cause = str(info.value.__cause__)
    assert re.match(r"in render worker \d+:\nTraceback \(most recent call last\):", cause)
    assert "in _drain" in cause and "in _lookup" in cause
    assert cause.endswith(f"CodebookCorruptionError: {info.value}\n")


class _TwoPartError(Exception):
    """Pickles, but cannot be rebuilt from its args."""

    def __init__(self, part, other):
        super().__init__(f"{part} and {other}")


@needs_fork
def test_a_worker_error_that_does_not_unpickle_arrives_as_runtime_error_with_its_type():
    def render_row(ty):
        raise _TwoPartError("one", "two")

    with leaves_no_process_or_thread(), leave_rows_to_workers(), \
            pytest.raises(RuntimeError, match="^_TwoPartError: one and two$") as info:
        tileloop.render_rows(_camera(2), render_row, threads=2)
    # the worker's own traceback, not the unpickling error's
    assert str(info.value.__cause__).endswith("_TwoPartError: one and two\n")


@needs_fork
def test_a_worker_that_dies_mid_frame_raises_instead_of_hanging(store):
    parent, drain = os.getpid(), tileloop._drain

    def die_in_worker(state):
        if os.getpid() != parent:
            os._exit(3)
        return drain(state)

    with leaves_no_process_or_thread(), usable_cpus(2), \
            mock.patch.object(tileloop, "_drain", die_in_worker), \
            pytest.raises(RuntimeError, match=r"^render worker \d+ exited without a result "
                                              r"\(wait status 768\)$"):
        render_frame_streaming(_camera(3), store.grid, store.records, threads=2)


@needs_fork
@pytest.mark.parametrize("error", [ValueError, KeyboardInterrupt])
def test_a_raise_in_this_process_kills_and_reaps_a_busy_worker(error):
    parent = os.getpid()
    worker_inside, tell_parent = os.pipe()

    def render_row(ty):
        if os.getpid() != parent:
            os.write(tell_parent, b"!")
            time.sleep(30)
        os.read(worker_inside, 1)  # the worker is inside its row, sleeping
        raise error("this process's row")

    begin = time.monotonic()
    try:
        with leaves_no_process_or_thread(), usable_cpus(2), \
                pytest.raises(error, match="this process's row"):
            tileloop.render_rows(_camera(2), render_row, threads=2)
    finally:
        os.close(worker_inside)
        os.close(tell_parent)
    assert time.monotonic() - begin < 10


@needs_fork
def test_a_large_worker_payload_is_read_before_the_worker_is_reaped():
    """Each row's payload is 200 kB, past any pipe buffer: waiting for the
    worker before reading its pipe would hang."""
    def render_row(ty):
        return np.full((2, 256, 3), float(ty)), np.full((12_500, 2), ty, dtype=np.int64)

    with leaves_no_process_or_thread(), leave_rows_to_workers():
        frame, rows = tileloop.render_rows(_camera(3, cols=2), render_row, threads=2)
    assert [row.shape for row in rows] == [(12_500, 2)] * 3
    assert [np.unique(row).tolist() for row in rows] == [[0], [1], [2]]
    assert [np.unique(frame[16 * ty : 16 * (ty + 1)]).tolist() for ty in range(3)] == \
        [[0.0], [1.0], [2.0]]


@needs_fork
def test_a_line_buffered_before_a_forked_frame_prints_once():
    """Standard output is a pipe, so the line waits in this process's buffer
    while the frame forks; a worker that flushed it on exit would print it twice."""
    script = "\n".join([
        "import os, numpy as np",
        "from voxsplat import look_at_camera, tileloop",
        "os.sched_getaffinity = lambda pid: {0, 1}",
        "fork, forks = tileloop._fork, []",
        "tileloop._fork = lambda state: forks.append(state) or fork(state)",
        "print('buffered before the frame')",
        "camera = look_at_camera([0, 0, -10], [0, 0, 0], width=32, height=48, focal=40.0)",
        "tileloop.render_rows(camera, lambda ty: (np.zeros((2, 256, 3)),",
        "                                         np.zeros((1, 2), dtype=np.int64)), 2)",
        "print('forked', len(forks))",
    ])
    src = str(Path(voxsplat.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    env.pop("PYTHONUNBUFFERED", None)  # which would write the line out at once
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, check=False)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "buffered before the frame\nforked 1\n"


def test_threads_below_one_is_an_error(store):
    camera = _camera(2)
    for threads in (0, -3):
        with pytest.raises(ValueError, match="threads must be at least 1"):
            render_frame_streaming(camera, store.grid, store.records, threads=threads)
        with pytest.raises(ValueError, match="threads must be at least 1"):
            render_frame_reference(camera, store.records, threads=threads)


@needs_fork
def test_more_workers_than_cores_render_every_row_once(store):
    """Eight processes on however few cores: a row taken twice or skipped
    would change the frame or double its ledger's pixel writebacks."""
    camera = _camera(8, cols=3)
    with leaves_no_process_or_thread(), usable_cpus(8), _counting_forks() as fork:
        forked = _frames(camera, store, 8)
    assert fork.call_count == 2 * 7
    assert forked == _frames(camera, store, 1)
    assert forked[1]["records"]["pixel-writeback"] == 8 * 3 * 256


@needs_fork
def test_rows_payloads_come_back_at_their_own_ty_whatever_order_they_finish():
    camera = _camera(5, cols=3)

    def render_row(ty):  # every pixel of row ty reads ty; counter k of tile tx reads k ty + tx
        colors = np.full((3, 256, 3), float(ty))
        return colors, (np.arange(2)[:, None] * ty + np.arange(3), [ty] * ty)

    with leaves_no_process_or_thread(), _finishing_last_first():
        frame, rows = tileloop.render_rows(camera, render_row, threads=3)
    assert len(rows) == 5
    for ty, (counts, keys) in enumerate(rows):
        assert np.all(frame[16 * ty : 16 * (ty + 1)] == ty)
        assert counts.dtype == np.int64
        assert counts.tolist() == [[0, 1, 2], [ty, ty + 1, ty + 2]]
        assert keys == [ty] * ty


def _as_lists(part):
    """``part``, nested lists and tuples of arrays, as nested lists of each
    array's (dtype, ``tolist``)."""
    if isinstance(part, np.ndarray):
        return [part.dtype.str, part.tolist()]
    return [_as_lists(item) for item in part]


def _row_payloads(module, render, threads, workers=contextlib.nullcontext()):
    """The row payloads ``render_rows`` hands ``module``'s renderer in one
    frame, through ``_as_lists``."""
    rows, seen = module.render_rows, []

    def recording(camera, render_row, threads):
        frame, payloads = rows(camera, render_row, threads)
        seen.append(payloads)
        return frame, payloads

    with mock.patch.object(module, "render_rows", recording), workers:
        render(threads)
    (payloads,) = seen
    return _as_lists(payloads)


@needs_fork
def test_both_renderers_get_each_rows_payload_at_its_ty(store):
    camera = _camera(4)
    ntx, nty = camera.tile_counts
    records = store.records
    renders = {
        streaming_mod: lambda threads: render_frame_streaming(
            camera, store.grid, records, threads=threads),
        reference_mod: lambda threads: render_frame_reference(camera, records, threads=threads),
    }
    valid, batch, _ = project_splats(camera, records.positions, records.scales,
                                     records.rotations, records.opacities, records.sh,
                                     records.ids)
    keep = np.flatnonzero(valid)
    for module, render in renders.items():
        forked = _row_payloads(module, render, 3, _finishing_last_first())
        assert forked == _row_payloads(module, render, 1)
        assert len({repr(payload) for payload in forked}) == nty  # rows tell apart
        for ty in range(nty):
            row = [(tx, ty) for tx in range(ntx)]
            if module is streaming_mod:  # the row's counters and keys
                want = streaming_mod.render_tile_streaming(
                    row, camera, store.grid, records, None,
                    projection_cache(camera, store.grid, records))[1:]
            else:  # each tile's (tile, splat) records: the valid splats whose disc meets it
                want = np.array([[np.count_nonzero(disc_overlaps_rect(batch.mean2d[keep],
                                                                      batch.radius[keep],
                                                                      tile_rects([tile])))
                                  for tile in row]])
            assert forked[ty] == _as_lists(want)
