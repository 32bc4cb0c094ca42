from unittest import mock

import numpy as np
import pytest

from voxsplat import (
    Aabb,
    Scene,
    build_grid,
    cli,
    generate_scene,
    look_at_camera,
    psnr,
    render_frame_reference,
    render_frame_streaming,
    render_tile_streaming,
    streaming,
)
from voxsplat.blending import T_FREEZE, blend
from voxsplat.filtering import ProjectedBatch
from voxsplat.scene import tile_pixels
from voxsplat.streaming import COUNTERS
from voxsplat.traffic import INTERMEDIATE_STAGES
from voxsplat.voxelstore import encode_records, gather_attribute
from voxsplat.vq import DEFAULT_ENTRIES, train_codebook

from conftest import constrained_scene, projection_cache
from oracles import render_frame_per_visit


def _scene_of(splats, bounds):
    return Scene(
        positions=np.array([s[0] for s in splats], dtype=np.float64),
        scales=np.array([s[1] for s in splats], dtype=np.float64),
        rotations=np.array([s[2] for s in splats], dtype=np.float64),
        opacities=np.array([s[3] for s in splats], dtype=np.float64),
        sh=np.array([s[4] for s in splats], dtype=np.float64),
        ids=np.arange(len(splats), dtype=np.int64),
        bounds=bounds,
    )


def _solid_sh(rgb):
    sh = np.zeros((16, 3))
    sh[0] = (np.asarray(rgb, dtype=np.float64) - 0.5) / 0.28209479177387814
    return sh


def test_empty_scene_renders_background_with_zero_intermediate_bytes():
    scene = Scene(positions=np.empty((0, 3)), scales=np.empty((0, 3)),
                  rotations=np.empty((0, 4)), opacities=np.empty(0),
                  sh=np.empty((0, 16, 3)), ids=np.empty(0, dtype=np.int64))
    grid, records = build_grid(scene, 2.0)
    camera = look_at_camera([0, 0, -5], [0, 0, 0])
    frame, ledger, stats = render_frame_streaming(camera, grid, records,
                                                  background=(0.1, 0.2, 0.3))
    assert np.allclose(frame[..., 0], np.float32(0.1))
    assert np.allclose(frame[..., 2], np.float32(0.3))
    assert ledger.intermediate_bytes == 0
    assert ledger.bytes["coarse-load"] == 0 and ledger.bytes["fine-load"] == 0
    ref, ref_ledger = render_frame_reference(camera, scene, background=(0.1, 0.2, 0.3))
    assert np.array_equal(ref, frame)
    assert ref_ledger.total_bytes == ref_ledger.bytes["pixel-writeback"]


def test_opaque_front_splat_occludes_back_splat():
    # both splats interior to the voxel [0,8]^3 (grid lattice is edge-aligned)
    bounds = Aabb([1, 1, 1], [7, 7, 7])
    front = ([4.0, 4.0, 3.0], [0.6] * 3, [1, 0, 0, 0], 0.999, _solid_sh([1, 0, 0]))
    back = ([4.0, 4.0, 6.0], [0.5] * 3, [1, 0, 0, 0], 0.999, _solid_sh([0, 1, 0]))
    scene = _scene_of([front, back], bounds)
    camera = look_at_camera([4, 4, -6], [4, 4, 4])
    grid, records = build_grid(scene, 8.0)
    frame, _, _ = render_frame_streaming(camera, grid, records)
    center = frame[128, 128].astype(np.float64)
    # alpha is capped at 0.99, so the occluded green contributes ~1% at most
    assert center[0] > 0.95
    assert center[1] < 0.015


def test_single_splat_matches_reference_exactly():
    bounds = Aabb([1, 1, 1], [3, 3, 3])
    scene = _scene_of(
        [([2.0, 2.0, 2.0], [0.3, 0.2, 0.25], [1, 0, 0, 0], 0.8, _solid_sh([0.9, 0.4, 0.2]))],
        bounds,
    )
    camera = look_at_camera([2, 2, -6], [2, 2, 2])
    grid, records = build_grid(scene, 8.0)
    got, _, _ = render_frame_streaming(camera, grid, records)
    want, _ = render_frame_reference(camera, scene)
    assert np.array_equal(got, want)


@pytest.mark.parametrize("seed", [0, 1])
def test_constrained_scene_matches_reference(seed):
    scene = constrained_scene(seed=seed, count=400)
    camera = look_at_camera([0, 0, -10], [0, 0, 0])
    grid, records = build_grid(scene, 2.0)
    got, ledger, stats = render_frame_streaming(camera, grid, records)
    want, _ = render_frame_reference(camera, scene)
    assert np.array_equal(got, want)
    assert psnr(got, want) >= 60.0


def test_streaming_intermediate_stages_stay_zero():
    scene = generate_scene(count=800, bounds=Aabb([-6, -6, -2], [6, 6, 4]), seed=3,
                           max_extent_fraction=0.6)
    camera = look_at_camera([0, 0, -10], [0, 0, 0])
    grid, records = build_grid(scene, 2.0)
    _, ledger, _ = render_frame_streaming(camera, grid, records)
    for stage in INTERMEDIATE_STAGES:
        assert ledger.bytes[stage] == 0
        assert ledger.records[stage] == 0
    assert ledger.bytes["coarse-load"] > 0
    assert ledger.bytes["pixel-writeback"] == 12 * 256 * 256


def test_render_deterministic_across_worker_counts():
    scene = constrained_scene(seed=5, count=300)
    camera = look_at_camera([0, 0, -10], [0, 0, 0])
    grid, records = build_grid(scene, 2.0)
    frames = []
    ledgers = []
    for threads in (1, 3, 8):
        frame, ledger, _ = render_frame_streaming(camera, grid, records, threads=threads)
        frames.append(frame)
        ledgers.append(ledger)
    assert np.array_equal(frames[0], frames[1])
    assert np.array_equal(frames[0], frames[2])
    assert ledgers[0].as_dict() == ledgers[1].as_dict() == ledgers[2].as_dict()

    ref = [render_frame_reference(camera, scene, threads=t)[0] for t in (1, 4)]
    assert np.array_equal(ref[0], ref[1])


def test_early_exit_equals_exhaustive_blending():
    # opaque wall in front of a large backdrop forces T below threshold early
    bounds = Aabb([-4, -4, -2], [4, 4, 6])
    splats = []
    rng = np.random.default_rng(8)
    for x in np.linspace(-2, 2, 9):
        for y in np.linspace(-2, 2, 9):
            splats.append(([x, y, 0.0], [0.5] * 3, [1, 0, 0, 0], 0.999,
                           _solid_sh(rng.uniform(0, 1, 3))))
    for x in np.linspace(-3, 3, 5):
        splats.append(([x, 0.0, 5.0], [0.6] * 3, [1, 0, 0, 0], 0.9,
                       _solid_sh([0, 0, 1])))
    scene = _scene_of(splats, bounds)
    camera = look_at_camera([0, 0, -8], [0, 0, 0])
    grid, records = build_grid(scene, 2.0)
    fast, _, stats = render_frame_streaming(camera, grid, records)
    slow, _, _ = render_frame_per_visit(camera, grid, records, None, early_exit=False)
    assert stats.voxels_skipped_early > 0
    assert np.array_equal(fast, slow)


def test_transmittance_monotone_and_frozen_pixels_stop():
    rng = np.random.default_rng(9)
    n = 30
    batch = ProjectedBatch(
        mean2d=rng.uniform(0, 16, size=(n, 2)),
        conic=np.tile([0.05, 0.0, 0.05], (n, 1)),
        radius=np.full(n, 50.0),
        depth=np.sort(rng.uniform(1, 5, n)),
        rgb=rng.uniform(0, 1, size=(n, 3)),
        opacity=np.full(n, 0.97),
        ids=np.arange(n),
    )
    centers = tile_pixels([(0, 0)]) + 0.5
    color = np.zeros((1, 256, 3))
    t = np.ones((1, 256))
    prev = t.copy()
    for i in range(n):
        blend(batch, np.array([i]), [0, 1], centers, color, t)
        assert np.all(t <= prev + 1e-15)
        frozen = prev < T_FREEZE
        assert np.array_equal(t[frozen], prev[frozen])  # frozen pixels unchanged
        prev = t.copy()
    assert np.all(color >= 0)


def test_vq_render_stays_close_to_reference():
    scene = constrained_scene(seed=6, count=600)
    camera = look_at_camera([0, 0, -10], [0, 0, 0])
    grid, records = build_grid(scene, 2.0)
    books = {name: train_codebook(gather_attribute(records, name), k, seed=0, attribute=name)
             for name, k in DEFAULT_ENTRIES.items()}
    enc = encode_records(records, books)
    got, ledger, stats = render_frame_streaming(camera, grid, enc, books)
    want, _ = render_frame_reference(camera, scene)
    assert not books["sh_rest"].padded  # 600 vectors > 512 entries: genuinely lossy
    assert psnr(got, want) >= 59.0
    assert ledger.bytes["fine-load"] == 12 * ledger.records["fine-load"]


def _tile(tile, camera, grid, records, cache=None, **kwargs):
    """One tile rendered on its own, with a fresh projection cache unless
    ``cache`` is given: (color, {counter name: value})."""
    if cache is None:
        cache = projection_cache(camera, grid, records)
    colors, counts, _ = render_tile_streaming([tile], camera, grid, records, None, cache,
                                              **kwargs)
    return colors[0], dict(zip(COUNTERS, counts[:, 0].tolist()))


def test_sort_buffer_overflow_splits_without_changing_output():
    scene = generate_scene(count=1500, bounds=Aabb([-3, -3, -2], [3, 3, 2]), seed=7,
                           max_extent_fraction=0.6)
    camera = look_at_camera([0, 0, -9], [0, 0, 0])
    grid, records = build_grid(scene, 2.0)
    tile = (8, 8)
    base, base_counts = _tile(tile, camera, grid, records)
    assert base_counts["fine_survivors"] > 4
    with mock.patch.object(streaming, "VOXEL_BATCH_CAPACITY", 2):
        tiny, counts = _tile(tile, camera, grid, records)
    assert counts["batch_splits"] > 0
    assert np.array_equal(base, tiny)


def test_blend_traces_tile_and_pixel():
    scene = constrained_scene(seed=8, count=400)
    camera = look_at_camera([0, 0, -10], [0, 0, 0])
    grid, records = build_grid(scene, 2.0)
    cache = projection_cache(camera, grid, records)
    tile_trace = []
    _, counts = _tile((8, 8), camera, grid, records, trace=[tile_trace], cache=cache)
    # each blended splat once, by its projected row
    assert len(tile_trace) == len(set(tile_trace)) == counts["blended"]
    assert cache.valid[tile_trace].all()
    px_trace = cli._pixel_trace(cache.batch, tile_trace, tile_pixels([(8, 8)])[0, 136] + 0.5)
    # a pixel's trace holds the splats that reached it, in the tile trace's order
    reached = set(px_trace)
    assert px_trace == [row for row in tile_trace if row in reached]


def test_blend_traces_of_many_tiles_equal_each_tile_rendered_alone():
    scene = generate_scene(count=1500, bounds=Aabb([-3, -3, -2], [3, 3, 2]), seed=7,
                           max_extent_fraction=0.6)
    camera = look_at_camera([0, 0, -9], [0, 0, 0], width=512)
    grid, records = build_grid(scene, 2.0)
    tiles = [(14, 7), (16, 8), (17, 8), (31, 15), (16, 10)]  # (31, 15) sees no splat
    traces = [[] for _ in tiles]
    render_tile_streaming(tiles, camera, grid, records, None,
                          projection_cache(camera, grid, records), trace=traces)
    for tile, trace in zip(tiles, traces):
        alone = []
        _tile(tile, camera, grid, records, trace=[alone])
        assert trace == alone
    assert traces[3] == [] and all(traces[:3])


def test_tile_render_empty_schedule_is_background():
    grid, records = build_grid(
        Scene(positions=np.empty((0, 3)), scales=np.empty((0, 3)), rotations=np.empty((0, 4)),
              opacities=np.empty(0), sh=np.empty((0, 16, 3)), ids=np.empty(0, dtype=np.int64)),
        2.0,
    )
    camera = look_at_camera([0, 0, -5], [0, 0, 0])
    color, counts = _tile((3, 4), camera, grid, records, background=(0.25, 0.5, 0.75))
    assert np.allclose(color, [0.25, 0.5, 0.75])
    assert counts["voxels_scheduled"] == 0
