from dataclasses import replace

import numpy as np
import pytest

from voxsplat import Aabb, Scene, build_grid, cbp_loss, cross_boundary_stats, generate_scene, psnr
from voxsplat.filtering import quat_to_rotmat

from conftest import constrained_scene


def test_psnr_identical_images_is_infinite():
    img = np.random.default_rng(0).uniform(0, 1, size=(8, 8, 3))
    assert psnr(img, img.copy()) == float("inf")


def test_psnr_zero_vs_one_is_zero_db():
    assert psnr(np.zeros((4, 4, 3)), np.ones((4, 4, 3))) == pytest.approx(0.0)


def test_psnr_mse_hundredth_is_twenty_db():
    a = np.zeros((10, 10, 3))
    b = np.full((10, 10, 3), 0.1)  # MSE = 0.01
    assert psnr(a, b) == pytest.approx(20.0)


def test_psnr_rejects_mismatched_shapes():
    with pytest.raises(ValueError):
        psnr(np.zeros((4, 4, 3)), np.zeros((5, 4, 3)))


def test_constrained_scene_has_zero_crossing_ratio():
    grid, records = build_grid(constrained_scene(seed=3, count=300), 2.0)
    out = cross_boundary_stats(grid, records)
    assert out["ratio"] == 0.0
    assert out["per_voxel"] == {}


def test_splat_on_voxel_face_crosses():
    scene = Scene(
        positions=np.array([[0.0, -1.0, -1.0]]),  # on the x=0 face of a 2-unit grid
        scales=np.full((1, 3), 0.05),
        rotations=np.array([[1.0, 0, 0, 0]]),
        opacities=np.array([0.5]),
        sh=np.zeros((1, 16, 3)),
        ids=np.array([0]),
        bounds=Aabb([-2, -2, -2], [2, 2, 2]),
    )
    out = cross_boundary_stats(*build_grid(scene, 2.0))
    assert out["ratio"] == 1.0
    assert out["crossing"] == 1


def test_a_record_far_outside_its_voxel_crosses_that_voxel():
    """Each record is measured against the voxel holding it, wherever its
    position lies: here past the grid, where no voxel is."""
    grid, records = build_grid(constrained_scene(seed=3, count=300), 2.0)
    r = grid.nonempty_count // 2
    positions = records.positions.copy()
    positions[records.offsets[r]] += [100.0, -100.0, 0.0]
    out = cross_boundary_stats(grid, replace(records, positions=positions))
    assert out["per_voxel"] == {r: 1}
    assert (out["crossing"], out["total"]) == (1, 300)


def _corner_oracle(scene, grid):
    """Brute force: any corner of the rotated 3-sigma box outside the voxel."""
    crossing = 0
    signs = np.array([[sx, sy, sz] for sx in (-1, 1) for sy in (-1, 1) for sz in (-1, 1)])
    for i in range(len(scene)):
        rot = quat_to_rotmat(scene.rotations[i : i + 1])[0]
        cell = np.floor((scene.positions[i] - grid.origin) / grid.edge)
        lo = grid.origin + cell * grid.edge
        hi = lo + grid.edge
        outside = False
        for s in signs:
            corner = scene.positions[i] + rot @ (3.0 * s * scene.scales[i])
            if np.any(corner < lo) or np.any(corner > hi):
                outside = True
                break
        crossing += outside
    return crossing / len(scene)


def test_crossing_ratio_matches_corner_oracle():
    scene = generate_scene(count=400, bounds=Aabb([-4, -4, -2], [4, 4, 2]), seed=9,
                           max_extent_fraction=0.9)
    grid, records = build_grid(scene, 2.0)
    got = cross_boundary_stats(grid, records)["ratio"]
    assert got == pytest.approx(_corner_oracle(scene, grid))


def test_cbp_zero_for_increasing_depths():
    order = [(1.0, 0.5), (2.0, 0.5), (3.0, 0.5)]
    assert cbp_loss(order) == 0.0


def test_cbp_single_violation_of_two():
    assert cbp_loss([(2.0, 1.0), (1.0, 1.0)]) == pytest.approx(0.5)


def test_cbp_matches_brute_force_on_random_trace():
    rng = np.random.default_rng(4)
    order = [(float(d), float(s)) for d, s in zip(rng.uniform(0, 10, 200),
                                                  rng.uniform(0.1, 2.0, 200))]
    got = cbp_loss(order)
    # independent scan
    total = 0.0
    for i, (d, s) in enumerate(order):
        earlier = [order[j][0] for j in range(i)]
        if earlier and d < max(earlier):
            total += s
    assert got == pytest.approx(total / len(order))
    assert cbp_loss([]) == 0.0


def test_cbp_zero_iff_depth_monotone():
    rng = np.random.default_rng(5)
    depths = rng.uniform(0, 10, 50)
    order = [(float(d), 1.0) for d in np.sort(depths)]
    assert cbp_loss(order) == 0.0
    shuffled = [(float(d), 1.0) for d in rng.permutation(depths)]
    if any(np.diff([d for d, _ in shuffled]) < 0):
        assert cbp_loss(shuffled) > 0.0
