"""Vectorized hot loops against their per-splat / per-visit test oracles.

``blend`` evaluates blocks of splats as one array and ``_walk_rays`` builds
the ray table from one gather; both must reproduce the straightforward loops
in ``oracles.py`` bit for bit.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import voxsplat.reference as reference_mod
import voxsplat.scheduler as scheduler_mod
import voxsplat.streaming as streaming_mod
from voxsplat import Aabb, VoxelStore, generate_scene, look_at_camera
from voxsplat.blending import (
    ALPHA_CAP,
    ALPHA_MIN,
    BLEND_BLOCK,
    T_FREEZE,
    blend,
    tile_pixel_centers,
)
from voxsplat.filtering import ProjectedBatch
from voxsplat.reference import render_frame_reference
from voxsplat.streaming import render_frame_streaming

from conftest import constrained_scene
from oracles import blend_per_splat, walk_rays_per_visit

B = BLEND_BLOCK
LENGTHS = [0, 1, B - 1, B, B + 1, 3 * B + 5]
TILE = (1, 2)
CENTERS = tile_pixel_centers(*TILE)


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


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    distance=st.floats(2.0, 40.0),
    away=st.booleans(),
)
def test_array_built_ray_table_matches_per_visit_builder(seed, distance, away):
    rng = np.random.default_rng(seed)
    grid = _grid(seed % 7)
    direction = rng.normal(size=3)
    direction /= np.linalg.norm(direction)
    eye = direction * distance + rng.uniform(-4.0, 4.0, 3)
    # looking away from the grid makes every ray miss; otherwise the frame
    # edges of a wide view still miss while the middle crosses the grid
    target = eye + direction if away else rng.uniform(-6.0, 6.0, 3)
    camera = look_at_camera(eye, target, width=48, height=32, focal=rng.uniform(10.0, 200.0))
    py, px = np.mgrid[0 : camera.height, 0 : camera.width]
    dirs = camera.ray_directions(px.ravel(), py.ravel())
    table = scheduler_mod._walk_rays(camera.position, dirs, grid)
    assert table == walk_rays_per_visit(camera.position, dirs, grid)


def test_ray_table_covers_hits_and_misses():
    """A camera inside the grid's slab: some rays cross voxels, some miss."""
    grid = _grid(0)
    camera = look_at_camera([0.0, 0.0, -10.0], [0.0, 0.0, 0.0], width=64, height=64, focal=12.0)
    py, px = np.mgrid[0:64, 0:64]
    dirs = camera.ray_directions(px.ravel(), py.ravel())
    table = scheduler_mod._walk_rays(camera.position, dirs, grid)
    assert table == walk_rays_per_visit(camera.position, dirs, grid)
    lengths = [len(row) for row in table]
    assert min(lengths) == 0 and max(lengths) > 1


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
    monkeypatch.setattr(scheduler_mod, "_walk_rays", walk_rays_per_visit)
    slow = _frames(scene, camera, store)
    assert fast == slow
    if kind == "cluttered":
        # the fixture exercises early exit, not just blending to the end
        assert fast[4]["voxels_skipped_early"] > 0
