import numpy as np

from voxsplat import Aabb, generate_scene, look_at_camera, render_frame_reference
from voxsplat.filtering import ProjectedBatch
from voxsplat.frameio import write_png, write_ppm

from conftest import read_png


def test_per_tile_sort_is_depth_correct_permutation():
    rng = np.random.default_rng(40)
    n = 500
    depths = rng.uniform(1, 9, n)
    depths[100:120] = depths[50]  # force ties
    batch = ProjectedBatch(
        mean2d=rng.uniform(0, 256, (n, 2)),
        conic=np.tile([1.0, 0.0, 1.0], (n, 1)),
        radius=np.ones(n),
        depth=depths,
        rgb=rng.uniform(0, 1, (n, 3)),
        opacity=rng.uniform(0, 1, n),
        max_scale=np.ones(n),
        ids=rng.permutation(n),
    )
    out = batch.sorted_by_depth()
    assert sorted(out.ids.tolist()) == sorted(batch.ids.tolist())
    assert np.all(np.diff(out.depth) >= 0)
    same = np.flatnonzero(np.diff(out.depth) == 0)
    assert np.all(out.ids[same] < out.ids[same + 1])  # ties broken by id


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
