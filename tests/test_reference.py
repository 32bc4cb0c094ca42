from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import voxsplat.reference as reference_mod
from voxsplat import (Aabb, Scene, VoxelStore, generate_scene, look_at_camera,
                      render_frame_reference)
from voxsplat.blending import blend
from voxsplat.filtering import disc_overlaps_rect, project_splats, tile_rects
from voxsplat.scene import TILE_EDGE
from voxsplat.frameio import write_png, write_ppm

from conftest import constrained_scene, read_png


def test_per_tile_sort_is_depth_correct_permutation(monkeypatch):
    """Each tile's share of the batch the reference hands ``blend`` holds
    exactly the valid splats whose disc meets the tile, ascending in depth
    with ties broken by id."""
    rng = np.random.default_rng(40)
    n = 500
    positions = rng.uniform([-4.0, -4.0, -2.0], [4.0, 4.0, 2.0], (n, 3))
    positions[100:120, 2] = positions[50, 2]  # force depth ties: this camera's depth is z + 10
    rotations = rng.normal(size=(n, 4))
    scene = Scene(positions=positions, scales=rng.uniform(0.05, 0.4, (n, 3)),
                  rotations=rotations / np.linalg.norm(rotations, axis=1, keepdims=True),
                  opacities=rng.uniform(0, 1, n), sh=rng.normal(0.0, 0.3, (n, 16, 3)),
                  ids=rng.permutation(n))
    camera = look_at_camera([0.0, 0.0, -10.0], [0.0, 0.0, 0.0], width=64, height=64, focal=60.0)
    calls = []

    def recording(batch, rows, bounds, centers, *args):
        calls.append((batch, rows, list(bounds), centers.copy()))
        return blend(batch, rows, bounds, centers, *args)

    monkeypatch.setattr(reference_mod, "blend", recording)
    reference_mod.render_frame_reference(camera, scene)
    valid, projected, _ = project_splats(camera, scene.positions, scene.scales, scene.rotations,
                                         scene.opacities, scene.sh, scene.ids)
    ties = 0
    for batch, rows, bounds, centers in calls:
        for t, (a, b) in enumerate(zip(bounds, bounds[1:])):
            tile = (centers[t, 0] // TILE_EDGE).astype(int)
            meets = valid & disc_overlaps_rect(projected.mean2d, projected.radius,
                                               tile_rects([tile]))
            depth, ids = batch.depth[rows[a:b]], batch.ids[rows[a:b]]
            assert sorted(ids.tolist()) == sorted(projected.ids[meets].tolist())
            assert np.all(np.diff(depth) >= 0)
            same = np.flatnonzero(np.diff(depth) == 0)
            assert np.all(ids[same] < ids[same + 1])  # ties broken by id
            ties += len(same)
    assert len(calls) == camera.tile_counts[1] and ties > 0


def test_projection_stage_load_bytes():
    scene = generate_scene(count=321, bounds=Aabb([-4, -4, -2], [4, 4, 2]), seed=1,
                           max_extent_fraction=0.5)
    camera = look_at_camera([0, 0, -9], [0, 0, 0])
    _, ledger = render_frame_reference(camera, scene)
    assert ledger.bytes["projection"] == 321 * 59 * 4
    assert ledger.records["projection"] == 321
    assert ledger.bytes["projection-writeback"] <= 48 * 321
    assert ledger.bytes["pixel-writeback"] == 12 * 256 * 256


def test_png_round_trip(tmp_path):
    rng = np.random.default_rng(2)
    img = rng.uniform(0, 1, size=(32, 48, 3))
    path = tmp_path / "img.png"
    write_png(path, img)
    back = read_png(path)
    assert back.shape == img.shape
    assert np.max(np.abs(back - img)) <= 0.5 / 255 + 1e-9  # 8-bit quantization only


def test_ppm_output(tmp_path):
    img = np.zeros((16, 16, 3))
    img[..., 1] = 1.0
    path = tmp_path / "img.ppm"
    write_ppm(path, img)
    blob = path.read_bytes()
    assert blob.startswith(b"P6\n16 16\n255\n")
    assert blob[-3:] == bytes([0, 255, 0])


@pytest.mark.parametrize("threads", [1, 2])
@settings(max_examples=6, deadline=None)
@given(seed=st.integers(0, 2**16), constrained=st.booleans())
@example(seed=0, constrained=True)
@example(seed=0, constrained=False)
def test_any_row_order_renders_the_same_frame_and_ledger(threads, seed, constrained):
    """The id-order scene, the store's records in voxel order and a random
    row permutation of them give the same frame bytes and ledger.  The
    unconstrained scene has depth ties, which the splat ids break."""
    if constrained:
        scene = constrained_scene(seed, count=300)
    else:
        scene = generate_scene(count=400, bounds=Aabb([-4, -4, -2], [4, 4, 2]), seed=seed,
                               max_extent_fraction=0.8)
        scene.positions[::5, 2] = scene.positions[0, 2]  # depth is z + 10 for this camera
    records = VoxelStore.build(scene, 2.0).records
    perm = np.random.default_rng(seed).permutation(len(records.ids))
    shuffled = replace(records, **{name: getattr(records, name)[perm] for name in
                                   ("positions", "scales", "rotations", "opacities", "sh", "ids")})
    camera = look_at_camera([0.0, 0.0, -10.0], [0.0, 0.0, 0.0], width=64, height=64, focal=75.0)
    renders = [render_frame_reference(camera, splats, threads=threads)
               for splats in (scene, records, shuffled)]
    assert len({frame.tobytes() for frame, _ in renders}) == 1
    assert all(ledger.as_dict() == renders[0][1].as_dict() for _, ledger in renders)
