"""Vectorized hot loops against their per-splat / per-visit test oracles.

``blend`` evaluates blocks of splats as one array, ``traverse`` walks the
rays of a whole tile row at once, ``schedule`` runs Kahn over array-built
edges, the filters project each voxel once per frame, the store encodes all
voxels in one call per attribute, and the metrics scan whole arrays; all
must reproduce the straightforward forms in ``oracles.py`` bit for bit.
"""

import warnings
from contextlib import ExitStack
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import voxsplat.reference as reference_mod
import voxsplat.streaming as streaming_mod
from voxsplat import (
    Aabb,
    Scene,
    VoxelStore,
    cbp_loss,
    cross_boundary_stats,
    generate_scene,
    look_at_camera,
    train_codebook,
)
from voxsplat.blending import (
    ALPHA_CAP,
    ALPHA_MIN,
    BLEND_BLOCK,
    T_FREEZE,
    blend,
)
from voxsplat.filtering import (
    FilterStats,
    ProjectedBatch,
    ProjectionCache,
    fine_filter,
    project_splats,
    tile_rect,
)
from voxsplat.reference import render_frame_reference
from voxsplat.scene import tile_pixels
from voxsplat.scheduler import schedule, traverse
from voxsplat.streaming import render_frame_streaming, render_tile_streaming
from voxsplat.traffic import TrafficLedger
from voxsplat.voxelstore import VoxelGrid, build_grid, gather_attribute
from voxsplat.vq import ATTRIBUTE_DIMS, ATTRIBUTES

from conftest import constrained_scene
from oracles import (
    blend_per_splat,
    cbp_loss_loop,
    coarse_filter_per_visit,
    depth_table,
    encode_per_voxel,
    fine_filter_per_visit,
    per_voxel_crossings_loop,
    rows_of,
    schedule_dict_based,
    stream_fine_per_visit,
    survivor_rows,
    traverse_per_visit,
    visits_of,
)

B = BLEND_BLOCK
LENGTHS = [0, 1, B - 1, B, B + 1, 3 * B + 5]
TILE = (1, 2)
CENTERS = tile_pixels([TILE])[0] + 0.5


def _batch(rng, n, opaque_share, clamp_share):
    """Depth-sorted splats around TILE; a share of wide, near-opaque splats
    makes pixels freeze part-way through, and a share sits exactly on the
    alpha clamps."""
    wide = rng.random(n) < opaque_share
    mean2d = CENTERS[rng.integers(0, len(CENTERS), n)] + rng.normal(0.0, 6.0, (n, 2))
    sigma = np.where(wide, rng.uniform(8.0, 40.0, n), rng.uniform(0.4, 6.0, n))
    a = 1.0 / sigma**2 * rng.uniform(0.5, 2.0, n)
    c = 1.0 / sigma**2 * rng.uniform(0.5, 2.0, n)
    b = rng.uniform(-0.9, 0.9, n) * np.sqrt(a * c)
    opacity = np.where(wide, rng.uniform(0.6, 1.0, n), rng.uniform(0.0, 1.0, n))
    # splats centered on a pixel center: alpha == opacity there, so these
    # opacities put that pixel's alpha exactly on (or next to) the clamps
    clamp = rng.random(n) < clamp_share
    on_grid = CENTERS[rng.integers(0, len(CENTERS), n)]
    mean2d = np.where(clamp[:, None], on_grid, mean2d)
    edges = np.array([ALPHA_MIN, np.nextafter(ALPHA_MIN, 0.0), np.nextafter(ALPHA_MIN, 1.0),
                      ALPHA_CAP, np.nextafter(ALPHA_CAP, 0.0), 1.0])
    opacity = np.where(clamp, edges[rng.integers(0, len(edges), n)], opacity)
    depth = np.sort(rng.uniform(1.0, 30.0, n))
    return ProjectedBatch(
        mean2d=mean2d,
        conic=np.stack([a, b, c], axis=1),
        radius=3.0 * sigma,
        depth=depth,
        rgb=rng.random((n, 3)),
        opacity=opacity,
        max_scale=rng.uniform(0.01, 1.0, n),
        ids=np.arange(n),
    )


def _pixel_state(rng, frozen_share, edge_share):
    """Entry state: some pixels frozen on entry, some a hair above T_FREEZE."""
    n = len(CENTERS)
    transmittance = rng.uniform(0.0, 1.0, n) ** 3
    transmittance[rng.random(n) < frozen_share] = rng.uniform(0.0, T_FREEZE)
    edge = rng.random(n) < edge_share
    transmittance[edge] = T_FREEZE * rng.uniform(1.0, 1.05, edge.sum())
    transmittance[rng.random(n) < edge_share] = T_FREEZE
    color = rng.random((n, 3)) * (1.0 - transmittance[:, None])
    color[rng.random(n) < 0.05] = -0.0
    return color, transmittance


def _run_both(batch, color, transmittance, pixel):
    results = []
    for fn in (blend, blend_per_splat):
        col, t = color.copy(), transmittance.copy()
        trace, pixel_trace = [], (pixel, [])
        n = fn(batch, CENTERS, col, t, trace, pixel_trace)
        results.append((n, col, t, trace, pixel_trace[1]))
    return results


def _assert_same(got, want):
    n, col, t, trace, pixel_trace = got
    assert n == want[0]
    assert col.tobytes() == want[1].tobytes()
    assert t.tobytes() == want[2].tobytes()
    assert trace == want[3]
    assert pixel_trace == want[4]


@settings(max_examples=120, deadline=None)
@given(
    length=st.sampled_from(LENGTHS),
    seed=st.integers(0, 2**32 - 1),
    opaque_share=st.sampled_from([0.0, 0.05, 0.3, 1.0]),
    clamp_share=st.sampled_from([0.0, 0.2, 1.0]),
    frozen_share=st.sampled_from([0.0, 0.5, 0.97, 1.0]),
    edge_share=st.sampled_from([0.0, 0.1]),
    pixel=st.integers(0, 255),
)
def test_block_blend_matches_per_splat_oracle(
    length, seed, opaque_share, clamp_share, frozen_share, edge_share, pixel
):
    rng = np.random.default_rng(seed)
    batch = _batch(rng, length, opaque_share, clamp_share)
    color, transmittance = _pixel_state(rng, frozen_share, edge_share)
    got, want = _run_both(batch, color, transmittance, pixel)
    _assert_same(got, want)


@pytest.mark.parametrize("length", LENGTHS)
def test_block_blend_freezing_every_pixel_mid_block(length):
    """Wide opaque splats freeze the whole tile a few splats in, so blend
    stops early; the count, the traces and the frozen state must agree."""
    rng = np.random.default_rng(length)
    batch = _batch(rng, length, opaque_share=1.0, clamp_share=0.0)
    color = np.zeros((len(CENTERS), 3))
    transmittance = np.ones(len(CENTERS))
    got, want = _run_both(batch, color, transmittance, pixel=17)
    _assert_same(got, want)
    if length > 8:
        assert got[0] < length
        assert np.all(got[2] < T_FREEZE)


def test_block_blend_all_frozen_on_entry_processes_nothing():
    rng = np.random.default_rng(3)
    batch = _batch(rng, B + 1, opaque_share=0.3, clamp_share=0.2)
    color, transmittance = _pixel_state(rng, frozen_share=1.0, edge_share=0.0)
    got, want = _run_both(batch, color, transmittance, pixel=0)
    _assert_same(got, want)
    assert got[0] == 0 and got[3] == []


def test_block_blend_alpha_clamps_at_a_pixel_center():
    """A splat centered on a pixel has alpha == opacity there: 1/255 is
    blended, the next float below is skipped, and opacity 1 caps at 0.99."""
    opacity = np.array([np.nextafter(ALPHA_MIN, 0.0), ALPHA_MIN, 1.0])
    n = len(opacity)
    batch = ProjectedBatch(
        mean2d=np.repeat(CENTERS[5:6], n, axis=0),
        conic=np.tile([4.0, 0.0, 4.0], (n, 1)),
        radius=np.ones(n),
        depth=np.arange(1.0, n + 1.0),
        rgb=np.ones((n, 3)),
        opacity=opacity,
        max_scale=np.ones(n),
        ids=np.arange(n),
    )
    got, want = _run_both(batch, np.zeros((256, 3)), np.ones(256), pixel=5)
    _assert_same(got, want)
    assert [d for d, _ in got[4]] == [2.0, 3.0]
    assert got[2][5] == (1.0 - ALPHA_MIN) * (1.0 - ALPHA_CAP)


def _grid(seed):
    return VoxelStore.build(constrained_scene(seed, count=300), 2.0).grid


def _walks(camera, grid):
    """Every tile's walk four ways: one ``traverse`` per tile row (as the
    renderer walks), one per tile, one for the whole frame, and the per-tile
    per-visit oracle."""
    ntx, nty = camera.tile_counts
    rows = [[(tx, ty) for tx in range(ntx)] for ty in range(nty)]
    tiles = [tile for row in rows for tile in row]
    return (
        [visits for row in rows for visits in traverse(row, camera, grid)],
        [visits for tile in tiles for visits in traverse([tile], camera, grid)],
        traverse(tiles, camera, grid),
        traverse_per_visit(tiles, camera, grid),
    )


def _assert_same_walks(walks):
    first = walks[0]
    for other in walks[1:]:
        assert len(other) == len(first)
        for got, want in zip(first, other):
            assert got.ids.dtype == want.ids.dtype
            assert got.ids.tobytes() == want.ids.tobytes()
            assert got.counts.tobytes() == want.counts.tobytes()


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    distance=st.floats(2.0, 40.0),
    away=st.booleans(),
    tiles=st.tuples(st.integers(1, 4), st.integers(1, 4)),
)
@example(seed=0, distance=10.0, away=False, tiles=(1, 1))
@example(seed=1, distance=10.0, away=True, tiles=(3, 2))
def test_array_built_ray_table_matches_per_visit_builder(seed, distance, away, tiles):
    rng = np.random.default_rng(seed)
    grid = _grid(seed % 7)
    direction = rng.normal(size=3)
    direction /= np.linalg.norm(direction)
    eye = direction * distance + rng.uniform(-4.0, 4.0, 3)
    # looking away from the grid makes every ray miss; otherwise the frame
    # edges of a wide view still miss while the middle crosses the grid
    target = eye + direction if away else rng.uniform(-6.0, 6.0, 3)
    camera = look_at_camera(eye, target, width=16 * tiles[0], height=16 * tiles[1],
                            focal=rng.uniform(10.0, 200.0))
    _assert_same_walks(_walks(camera, grid))


def test_ray_table_covers_hits_and_misses():
    """A camera inside the grid's slab: some rays cross voxels, some miss.
    Turned away from the grid, every ray misses."""
    grid = _grid(0)
    camera = look_at_camera([0.0, 0.0, -10.0], [0.0, 0.0, 0.0], width=64, height=64, focal=12.0)
    walks = _walks(camera, grid)
    _assert_same_walks(walks)
    lengths = [len(row) for visits in walks[0] for row in rows_of(visits)]
    assert min(lengths) == 0 and max(lengths) > 1
    away = look_at_camera([0.0, 0.0, -10.0], [0.0, 0.0, -20.0], width=48, height=32, focal=12.0)
    walks = _walks(away, grid)
    _assert_same_walks(walks)
    assert all(len(visits.ids) == 0 and not visits.counts.any() for visits in walks[0])


def test_walk_of_no_tiles_is_empty():
    camera = look_at_camera([0.0, 0.0, -10.0], [0.0, 0.0, 0.0], width=64, height=64)
    assert traverse([], camera, _grid(0)) == []


def _cluttered_fixture():
    scene = generate_scene(
        count=8000,
        bounds=Aabb([-4.0, -4.0, 2.0], [4.0, 4.0, 12.0]),
        seed=5,
        max_extent_fraction=1.0,
        voxel_edge=2.0,
        opacity_range=(0.5, 0.98),
    )
    camera = look_at_camera([0.0, 0.0, -8.0], [0.0, 0.0, 7.0], width=48, height=48, focal=100.0)
    return scene, camera


def _frames(scene, camera, store):
    stream, stream_ledger, stats = render_frame_streaming(camera, store.grid, store.records)
    ref, ref_ledger = render_frame_reference(camera, scene)
    return (
        stream.tobytes(),
        ref.tobytes(),
        stream_ledger.as_dict(),
        ref_ledger.as_dict(),
        stats.as_dict(),
    )


@pytest.mark.parametrize("kind", ["constrained", "cluttered"])
def test_whole_frames_match_with_the_oracles_patched_in(kind, monkeypatch):
    if kind == "constrained":
        scene = constrained_scene(2, count=300)
        camera = look_at_camera([0.0, 0.0, -10.0], [0.0, 0.0, 0.0], width=64, height=64,
                                focal=75.0)
    else:
        scene, camera = _cluttered_fixture()
    store = VoxelStore.build(scene, 2.0)
    fast = _frames(scene, camera, store)
    monkeypatch.setattr(streaming_mod, "blend", blend_per_splat)
    monkeypatch.setattr(reference_mod, "blend", blend_per_splat)
    monkeypatch.setattr(streaming_mod, "traverse", traverse_per_visit)
    slow = _frames(scene, camera, store)
    assert fast == slow
    if kind == "cluttered":
        # the fixture exercises early exit, not just blending to the end
        assert fast[4]["voxels_skipped_early"] > 0


@st.composite
def _ordering_tables(draw):
    """A few voxels with tied and distinct depths, and per-pixel rows that
    repeat voxels, contradict each other (cycles) or are empty."""
    vids = draw(st.lists(st.integers(0, 5000), min_size=1, max_size=10, unique=True))
    depth = st.one_of(st.sampled_from([1.0, 2.5, 4.0]), st.floats(0.1, 60.0))
    depths = {v: draw(depth) for v in vids}
    rows = draw(st.lists(st.lists(st.sampled_from(vids), max_size=7), max_size=20))
    return rows, depths


@settings(max_examples=300, deadline=None)
@given(case=_ordering_tables())
@example(case=([[3, 9], [9, 3], []], {3: 2.0, 9: 2.0}))
@example(case=([[5, 5, 7], [7, 1, 5]], {1: 1.0, 5: 1.0, 7: 0.5}))
@example(case=([[], []], {4: 1.0}))
def test_array_schedule_matches_dict_based_oracle(case):
    table, depths = case
    visits, depth = visits_of(table), depth_table(depths)
    order, broken = schedule(visits, depth)
    want, want_broken = schedule_dict_based(visits, depth)
    assert order == want
    assert broken == want_broken


def _voxel_splats(rng, n, behind_share, degenerate_share):
    """One voxel's splats in front of a camera at z = -10, some straddling or
    behind its near plane, some with scales that overflow the covariance."""
    pos = rng.uniform([-3.0, -3.0, -2.0], [3.0, 3.0, 2.0], size=(n, 3))
    near = rng.random(n) < behind_share
    pos[near, 2] = -10.0 + rng.uniform(-1.0, 0.3, near.sum())
    scales = rng.uniform(0.01, 0.6, size=(n, 3))
    scales[rng.random(n) < degenerate_share] = 1e160
    q = rng.normal(size=(n, 4))
    q /= np.linalg.norm(q, axis=1, keepdims=True)
    opac = rng.uniform(0.05, 0.99, size=n)
    sh = rng.normal(0.0, 0.3, size=(n, 16, 3))
    ids = rng.permutation(10 * n)[:n]
    return pos, scales, q, opac, sh, ids


def _batch_bytes(batch):
    return [getattr(batch, f).tobytes() for f in ProjectedBatch.__dataclass_fields__]


@settings(max_examples=150, deadline=None)
@given(
    n=st.sampled_from([1, 2, 9, 64]),
    seed=st.integers(0, 2**32 - 1),
    behind_share=st.sampled_from([0.0, 0.3, 1.0]),
    degenerate_share=st.sampled_from([0.0, 0.3]),
    keep_share=st.sampled_from([0.0, 0.5, 1.0]),
    oblique=st.booleans(),
)
# one survivor of two under an oblique camera: a one-row projection of it
# differs from the whole voxel's in the last bit unless the oracle keeps it
# on the matrix-matrix path
@example(n=2, seed=8, behind_share=0.0, degenerate_share=0.0, keep_share=0.5, oblique=True)
def test_projecting_a_whole_voxel_then_taking_equals_projecting_survivors(
    n, seed, behind_share, degenerate_share, keep_share, oblique
):
    rng = np.random.default_rng(seed)
    eye = [6.0, 4.0, -7.0] if oblique else [0.0, 0.0, -10.0]
    camera = look_at_camera(eye, [0.0, 0.0, 0.0], width=64, height=64, focal=60.0)
    splats = _voxel_splats(rng, n, behind_share, degenerate_share)
    survivors = np.flatnonzero(rng.random(n) < keep_share)
    rows = survivor_rows(survivors, n)
    with np.errstate(all="ignore"):
        valid, whole, _ = project_splats(camera, *splats)
        valid_s, alone, _ = project_splats(camera, *(a[rows] for a in splats))
        kept = np.arange(len(survivors))
        assert valid[survivors].tobytes() == valid_s[kept].tobytes()
        assert _batch_bytes(whole.take(survivors)) == _batch_bytes(alone.take(kept))

        for tile in [(1, 1), (2, 1), (0, 3)]:
            got_stats, want_stats = FilterStats(), FilterStats()
            got = fine_filter(ProjectionCache(camera, np.empty(0)), tile_rect(*tile), 0,
                              survivors, splats, got_stats)
            want = fine_filter_per_visit(
                ProjectionCache(camera, np.empty(0)), tile_rect(*tile), 0, survivors,
                tuple(a[rows] for a in splats), want_stats,
            )
            assert _batch_bytes(got) == _batch_bytes(want)
            assert got_stats.as_dict() == want_stats.as_dict()


def test_voxel_splats_cover_the_near_plane_and_degenerate_covariances():
    camera = look_at_camera([0.0, 0.0, -10.0], [0.0, 0.0, 0.0], width=64, height=64,
                            focal=60.0)
    splats = _voxel_splats(np.random.default_rng(0), 64, 0.3, 0.3)
    with np.errstate(all="ignore"):
        valid, batch, degenerate = project_splats(camera, *splats)
    assert degenerate > 0
    assert np.any(batch.depth <= camera.near)
    assert np.any(valid)


def _small_store(seed, encoded):
    scene = generate_scene(
        count=5000,
        bounds=Aabb([-4.0, -4.0, 2.0], [4.0, 4.0, 10.0]),
        seed=seed,
        max_extent_fraction=1.0,
        voxel_edge=2.0,
        opacity_range=(0.5, 0.98),
    )
    store = VoxelStore.build(scene, 2.0)
    if not encoded:
        return store, None
    books = {name: train_codebook(gather_attribute(store.records, name), 16, seed=0,
                                  attribute=name) for name in ATTRIBUTES}
    return store.encode(books), books


@settings(max_examples=16, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    encoded=st.booleans(),
    threads=st.sampled_from([1, 2]),
    early_exit=st.booleans(),
)
@example(seed=81, encoded=False, threads=1, early_exit=True)
@example(seed=0, encoded=True, threads=2, early_exit=True)
def test_frames_match_with_the_per_visit_filters_and_dict_scheduler(
    seed, encoded, threads, early_exit
):
    store, books = _small_store(seed, encoded)
    camera = look_at_camera([0.0, 0.0, -6.0], [0.0, 0.0, 6.0], width=48, height=48,
                            focal=100.0)

    def frame(early_exit=early_exit):
        image, ledger, stats = render_frame_streaming(
            camera, store.grid, store.records, books, threads=threads, early_exit=early_exit
        )
        return image.tobytes(), ledger.as_dict(), stats.as_dict()

    fast = frame()
    with ExitStack() as patches:
        for name, oracle in [
            ("coarse_filter", coarse_filter_per_visit),
            ("stream_fine", stream_fine_per_visit),
            ("fine_filter", fine_filter_per_visit),
            ("schedule", schedule_dict_based),
        ]:
            patches.enter_context(mock.patch.object(streaming_mod, name, oracle))
        slow = frame()
    assert fast == slow
    if not early_exit:
        assert fast[2]["voxels_skipped_early"] == 0
        return
    # early exit changes no pixel, and it skips a voxel exactly when it streams fewer
    # splats; some seeds (81) freeze no tile before its last voxel and skip none
    exhaustive = frame(early_exit=False)
    assert fast[0] == exhaustive[0]
    assert fast[2]["voxels_scheduled"] == exhaustive[2]["voxels_scheduled"]
    assert ((fast[2]["voxels_skipped_early"] > 0)
            == (fast[2]["filter"]["loaded"] < exhaustive[2]["filter"]["loaded"]))


def _one_voxel_store():
    """Every splat inside one voxel, so each tile that sees it schedules it alone."""
    scene = generate_scene(count=60, bounds=Aabb([0.3, 0.3, 0.3], [1.7, 1.7, 1.7]), seed=4,
                           max_extent_fraction=0.2, voxel_edge=2.0, constrained=True)
    return VoxelStore.build(scene, 2.0)


@settings(max_examples=12, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    one_voxel=st.booleans(),
    threads=st.sampled_from([1, 2]),
    early_exit=st.booleans(),
)
@example(seed=0, one_voxel=True, threads=1, early_exit=True)
def test_frame_tiles_match_tiles_rendered_alone(seed, one_voxel, threads, early_exit):
    rng = np.random.default_rng(seed)
    if one_voxel:
        store = _one_voxel_store()
        direction = rng.normal(size=3)
        eye = 1.0 + direction / np.linalg.norm(direction) * rng.uniform(6.0, 12.0)
        camera = look_at_camera(eye, [1.0, 1.0, 1.0], width=48, height=32, focal=40.0)
    else:
        store, _ = _small_store(seed, encoded=False)
        camera = look_at_camera(rng.uniform(-2.0, 2.0, 3) + [0.0, 0.0, -6.0], [0.0, 0.0, 6.0],
                                width=48, height=32, focal=100.0)
    in_frame = {}
    render_tile = streaming_mod.render_tile_streaming

    def recording(tile, camera, grid, records, books, ledger, **kwargs):
        color, stats = render_tile(tile, camera, grid, records, books, ledger, **kwargs)
        in_frame[tile] = (color.tobytes(), ledger.as_dict(), stats.as_dict())
        return color, stats

    def frame(threads):
        image, ledger, stats = render_frame_streaming(camera, store.grid, store.records,
                                                      threads=threads, early_exit=early_exit)
        return image.tobytes(), ledger.as_dict(), stats.as_dict()

    # the recording closure cannot see tiles rendered in worker processes, so
    # tiles are recorded in-process and a pooled frame must equal that frame
    with mock.patch.object(streaming_mod, "render_tile_streaming", recording):
        one = frame(1)
    if threads > 1:
        assert frame(threads) == one
    assert len(in_frame) == 6
    for tile, want in in_frame.items():
        ledger = TrafficLedger()
        color, stats = render_tile_streaming(tile, camera, store.grid, store.records, None,
                                             ledger, early_exit=early_exit)
        assert (color.tobytes(), ledger.as_dict(), stats.as_dict()) == want
    if one_voxel:
        assert any(tile_stats["voxels_scheduled"] == 1 for _, _, tile_stats in in_frame.values())


def _cell_scene(n, seed):
    """``n`` random splats over a 3x3x3 lattice of 2-unit cells, so small
    scenes leave many voxels holding a single splat."""
    rng = np.random.default_rng(seed)
    rotations = rng.normal(size=(n, 4))
    return Scene(
        positions=rng.integers(0, 3, (n, 3)) * 2.0 + rng.uniform(0.1, 1.9, (n, 3)),
        scales=rng.uniform(0.01, 0.6, (n, 3)),
        rotations=rotations / np.linalg.norm(rotations, axis=1, keepdims=True),
        opacities=rng.uniform(0.0, 1.0, n),
        sh=rng.normal(0.0, 0.5, (n, 16, 3)),
        ids=rng.permutation(n),
        bounds=Aabb([0.0] * 3, [6.0] * 3),
    )


@settings(max_examples=40, deadline=None)
@given(n=st.integers(0, 30), seed=st.integers(0, 2**16), k=st.sampled_from([1, 2, 8, 64]))
@example(n=0, seed=0, k=8)  # an empty store
@example(n=1, seed=0, k=8)  # one voxel holding one splat
def test_flat_encode_matches_per_voxel_encode(n, seed, k):
    store = VoxelStore.build(_cell_scene(n, seed), 2.0)
    rng = np.random.default_rng(seed + 1)
    books = {name: train_codebook(rng.normal(0.0, 0.5, (4 * k, dim)), k, seed=0, attribute=name)
             for name, dim in ATTRIBUTE_DIMS.items()}
    encoded = store.encode(books).records
    got = [encoded.scale_idx, encoded.rot_idx, encoded.dc_idx, encoded.sh_idx]
    want = encode_per_voxel(store.records, books)
    assert [a.tolist() for a in got] == [a.tolist() for a in want]
    assert all(len(a) == n for a in got)


_DEPTHS = st.one_of(st.sampled_from([0.0, -0.0, 1.0, 2.0, -1.0]),
                    st.floats(allow_nan=True, allow_infinity=True))
_SCALES = st.one_of(st.sampled_from([0.0, -0.0, 0.5, 1.0]),
                    st.floats(allow_nan=False, allow_infinity=True))


def _bits(x: float) -> bytes:
    return np.float64(x).tobytes()


@settings(max_examples=300, deadline=None)
@given(order=st.lists(st.tuples(_DEPTHS, _SCALES), max_size=40))
@example(order=[])
@example(order=[(1.0, 0.5), (1.0, 0.5), (0.5, -0.0), (1.0, -0.0)])  # depth ties
@example(order=[(2.0, -0.0), (1.0, -0.0), (0.0, -0.0)])  # only -0.0 scales violate
@example(order=[(0.0, 1.0), (-0.0, 1.0), (-1.0, 0.25)])
@example(order=[(float("nan"), 1.0), (1.0, 0.5), (0.0, 0.25)])  # NaN never raises the max
def test_cbp_loss_matches_the_loop_bit_for_bit(order):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the loop never warns, so neither may this
        assert _bits(cbp_loss(order)) == _bits(cbp_loss_loop(order))
        assert _bits(cbp_loss(iter(order))) == _bits(cbp_loss_loop(order))


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**16), count=st.integers(1, 200),
       fraction=st.floats(0.1, 1.0), edge=st.sampled_from([1.0, 2.0, 4.0]))
def test_per_voxel_crossings_match_the_loop(seed, count, fraction, edge):
    scene = generate_scene(count=count, bounds=Aabb([-4, -4, -2], [4, 4, 2]), seed=seed,
                           max_extent_fraction=fraction, voxel_edge=edge)
    grid = VoxelStore.build(scene, edge).grid
    out = cross_boundary_stats(scene, grid)
    assert out["per_voxel"] == per_voxel_crossings_loop(scene, grid)
    assert sum(out["per_voxel"].values()) == out["crossing"]
    assert all(isinstance(k, int) and isinstance(v, int) for k, v in out["per_voxel"].items())
