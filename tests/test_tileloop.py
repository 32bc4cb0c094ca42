"""Tile rows on forked worker processes: the same bits as one process, pools
no larger than the frame needs, worker errors that keep their class, and no
process left behind."""

import multiprocessing
import os
from concurrent.futures.process import BrokenProcessPool, _RemoteTraceback
from contextlib import nullcontext
from unittest import mock

import numpy as np
import pytest

import voxsplat.tileloop as tileloop
from voxsplat import VoxelStore, look_at_camera, render_frame_reference, render_frame_streaming
from voxsplat.errors import CodebookCorruptionError
from voxsplat.voxelstore import gather_attribute, scene_from_records
from voxsplat.vq import ATTRIBUTES, train_codebook

from conftest import constrained_scene, leave_rows_to_workers

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(), reason="needs the fork start method"
)


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
    ref, ref_ledger = render_frame_reference(
        camera, scene_from_records(store.grid, store.records), threads=threads)
    return (image.tobytes(), ledger.as_dict(), stats.as_dict(), ref.tobytes(),
            ref_ledger.as_dict())


class _RecordingPool:
    """Stands in for the process pool: records the requested size and runs
    the workers' share in this process through the worker entry point,
    before the parent takes its own share."""

    def __init__(self, sizes):
        self.sizes = sizes

    def __call__(self, max_workers, mp_context, initializer, initargs):
        self.sizes.append(max_workers)
        initializer(*initargs)
        return self

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn):
        result = fn()
        return mock.Mock(result=lambda: result)


def _pool_sizes(camera, store, threads, cpus):
    """(frames, pool sizes requested) with the process pool replaced in-process."""
    sizes = []
    with mock.patch.object(tileloop, "ProcessPoolExecutor", _RecordingPool(sizes)), \
            mock.patch.object(tileloop.os, "cpu_count", return_value=cpus), \
            mock.patch.object(tileloop, "_worker", None):
        frames = _frames(camera, store, threads)
    return frames, sizes


@needs_fork
@pytest.mark.parametrize("threads, rows, cpus, processes", [
    (8, 2, 8, 2),  # capped by the tile rows
    (1000, 6, 3, 3),  # capped by the CPUs
    (2, 6, 64, 2),  # the requested count
    (5, 6, None, 1),  # an unknown CPU count renders in-process
    (1, 6, 8, 1),
])
def test_worker_cap_is_threads_rows_and_cpus(store, threads, rows, cpus, processes):
    camera = _camera(rows)
    frames, sizes = _pool_sizes(camera, store, threads, cpus)
    # the parent renders too, so each renderer's frame forks one process fewer
    assert sizes == ([processes - 1] * 2 if processes > 1 else [])
    assert frames == _frames(camera, store, 1)


@needs_fork
@pytest.mark.parametrize("rows, threads", [(3, 2), (2, 4)])
@pytest.mark.parametrize("workers_only", [False, True])
def test_pooled_frames_match_one_process_and_leave_no_children(store, rows, threads,
                                                               workers_only):
    camera = _camera(rows)
    with leave_rows_to_workers() if workers_only else nullcontext():
        pooled = _frames(camera, store, threads)
    assert pooled == _frames(camera, store, 1)
    assert multiprocessing.active_children() == []
    assert tileloop._worker is None


def test_one_row_frame_starts_no_process(store):
    camera = _camera(1, cols=5)
    with mock.patch.object(tileloop, "ProcessPoolExecutor",
                           side_effect=AssertionError("pool started")):
        pooled = _frames(camera, store, 4)
    assert pooled == _frames(camera, store, 1)


@needs_fork
def test_codebook_error_in_a_worker_reaches_the_caller_as_its_class(store):
    books = {name: train_codebook(gather_attribute(store.records, name), 16, seed=0,
                                  attribute=name) for name in ATTRIBUTES}
    encoded = store.encode(books)
    for rec in encoded.records:
        rec.scale_idx = np.full_like(rec.scale_idx, books["scale"].entry_count)
    with leave_rows_to_workers(), \
            pytest.raises(CodebookCorruptionError, match="scale index 16 out of range") as info:
        render_frame_streaming(_camera(2), encoded.grid, encoded.records, books, threads=2)
    # raised in a worker: the pool attaches the worker's traceback as the cause
    assert isinstance(info.value.__cause__, _RemoteTraceback)
    assert multiprocessing.active_children() == []


@needs_fork
def test_a_worker_that_dies_mid_frame_raises_instead_of_hanging(store):
    parent, drain = os.getpid(), tileloop._drain

    def die_in_worker(state):
        if os.getpid() != parent:
            os._exit(3)
        return drain(state)

    with mock.patch.object(tileloop, "_drain", die_in_worker), pytest.raises(BrokenProcessPool):
        render_frame_streaming(_camera(3), store.grid, store.records, threads=2)
    assert multiprocessing.active_children() == []


def test_threads_below_one_is_an_error(store):
    camera = _camera(2)
    for threads in (0, -3):
        with pytest.raises(ValueError, match="threads must be at least 1"):
            render_frame_streaming(camera, store.grid, store.records, threads=threads)
        with pytest.raises(ValueError, match="threads must be at least 1"):
            render_frame_reference(camera, scene_from_records(store.grid, store.records),
                                   threads=threads)


@needs_fork
def test_more_workers_than_cores_render_every_row_once(store):
    """Eight processes on however few cores: a row taken twice or skipped
    would change the frame or double its ledger's pixel writebacks."""
    camera = _camera(8, cols=3)
    with mock.patch.object(tileloop.os, "cpu_count", return_value=8):
        pooled = _frames(camera, store, 8)
    assert pooled == _frames(camera, store, 1)
    assert pooled[1]["records"]["pixel-writeback"] == 8 * 3 * 256
    assert multiprocessing.active_children() == []
