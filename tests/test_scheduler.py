import numpy as np
import pytest

from voxsplat import Aabb, Camera, generate_scene, look_at_camera
from voxsplat.scene import tile_pixels
from voxsplat.scheduler import schedule, traverse, visibility_key, voxel_depths
from voxsplat.voxelstore import VoxelGrid, build_grid

from oracles import key_table, rows_of, visits_of


def _walk(tile, camera, grid):
    """One tile's walk through ``traverse``, as one list per ray."""
    return rows_of(traverse([tile], camera, grid))


def _schedule(visits, key):
    """``schedule`` of a one-tile walk, as a list."""
    plan = schedule(visits, key)
    assert plan.offsets.tolist() == [0, len(plan.ids)]
    return plan.ids.tolist()


def _axis_camera():
    # cx/cy at half-pixel so pixel (128,128) shoots an exactly axis-aligned ray
    return Camera(width=256, height=256, fx=300, fy=300, cx=128.5, cy=128.5,
                  rotation=np.eye(3), translation=np.array([-0.5, -0.5, 2.0]))


def test_axis_ray_visits_column_in_order():
    grid = VoxelGrid(origin=[0, 0, 0], edge=1.0, dims=[1, 1, 4],
                     vids=[0, 1, 2, 3])
    table = _walk((8, 8), _axis_camera(), grid)
    assert table[0] == [0, 1, 2, 3]


def test_empty_voxels_skipped_in_lists():
    grid = VoxelGrid(origin=[0, 0, 0], edge=1.0, dims=[1, 1, 4], vids=[0, 2, 3])
    table = _walk((8, 8), _axis_camera(), grid)
    assert table[0] == [0, 1, 2]  # voxel 1 is empty; renamed ids are contiguous


def test_ray_missing_grid_gives_empty_list():
    grid = VoxelGrid(origin=[100, 100, 100], edge=1.0, dims=[2, 2, 2], vids=[0])
    table = _walk((0, 0), _axis_camera(), grid)
    assert all(row == [] for row in table)


def _slab_oracle(origin, direction, grid):
    """Independent ray/AABB test over every non-empty voxel."""
    hits = []
    inv = grid.vids
    for vid_r in range(grid.nonempty_count):
        cell = grid.cell_of_vid(np.array(inv[vid_r]))
        lo = grid.origin + np.asarray(cell) * grid.edge
        hi = lo + grid.edge
        t0, t1 = 0.0, np.inf
        ok = True
        for ax in range(3):
            if abs(direction[ax]) < 1e-300:
                if origin[ax] < lo[ax] or origin[ax] > hi[ax]:
                    ok = False
                    break
                continue
            a = (lo[ax] - origin[ax]) / direction[ax]
            b = (hi[ax] - origin[ax]) / direction[ax]
            t0 = max(t0, min(a, b))
            t1 = min(t1, max(a, b))
        if ok and t0 < t1:
            hits.append((t0, vid_r))
    hits.sort()
    return [v for _, v in hits]


def test_traversal_matches_slab_oracle_on_random_scenes():
    rng = np.random.default_rng(31)
    for trial in range(8):
        scene = generate_scene(count=200, bounds=Aabb([-5, -5, -3], [5, 5, 3]),
                               seed=trial, max_extent_fraction=0.5)
        grid, _ = build_grid(scene, rng.uniform(1.0, 3.0))
        eye = rng.uniform([-3, -3, -14], [3, 3, -8])
        camera = look_at_camera(eye, rng.uniform(-2, 2, size=3), focal=rng.uniform(200, 400))
        tile = (int(rng.integers(0, 16)), int(rng.integers(0, 16)))
        table = _walk(tile, camera, grid)
        pixels = tile_pixels([tile])[0]
        dirs = camera.ray_directions(pixels[:, 0], pixels[:, 1])
        for k in range(0, 256, 17):  # sample rays across the tile
            want = _slab_oracle(camera.position, dirs[k], grid)
            assert table[k] == want


def test_per_pixel_lists_are_duplicate_free():
    scene = generate_scene(count=500, bounds=Aabb([-5, -5, -3], [5, 5, 3]), seed=2,
                           max_extent_fraction=0.5)
    grid, _ = build_grid(scene, 1.5)
    camera = look_at_camera([0, 0, -9], [0, 0, 0])
    for tile in [(0, 0), (8, 8), (15, 15)]:
        for row in _walk(tile, camera, grid):
            assert len(row) == len(set(row))


def _violations(order, table):
    pos = {v: i for i, v in enumerate(order)}
    bad = 0
    for row in table:
        for a, b in zip(row, row[1:]):
            if pos[a] >= pos[b]:
                bad += 1
    return bad


def _full_order_violations(order, table):
    pos = {v: i for i, v in enumerate(order)}
    bad = 0
    for row in table:
        for i in range(len(row)):
            for j in range(i + 1, len(row)):
                if pos[row[i]] >= pos[row[j]]:
                    bad += 1
    return bad


def test_single_pixel_schedule_is_its_list():
    table = [[3, 1, 2]]
    depths = {1: 5.0, 2: 6.0, 3: 4.0}
    assert _schedule(visits_of(table), key_table(depths)) == [3, 1, 2]


def test_two_pixel_chain_satisfies_all_constraints():
    table = [[0, 1], [1, 2]]
    order = _schedule(visits_of(table), key_table({0: 1.0, 1: 2.0, 2: 3.0}))
    assert _violations(order, table) == 0
    assert _full_order_violations(order, table) == 0
    assert sorted(order) == [0, 1, 2]


def test_crafted_two_cycle_gives_a_permutation():
    """No camera walks two rays through one pair of voxels in opposite
    orders, but a table that does still gets each voxel once, in key order."""
    table = [[0, 1], [1, 0]]
    order = _schedule(visits_of(table), key_table({0: 2.0, 1: 3.0}))
    assert order == [0, 1]
    assert _violations(order, table) == 1  # exactly one constraint had to give


def test_schedule_deterministic():
    rng = np.random.default_rng(33)
    table = [list(rng.permutation(10)[: rng.integers(2, 8)]) for _ in range(40)]
    table = [[int(v) for v in row] for row in table]
    depths = {v: float(rng.uniform(1, 9)) for v in range(10)}
    a = _schedule(visits_of(table), key_table(depths))
    b = _schedule(visits_of([list(r) for r in table]), key_table(dict(depths)))
    assert a == b


def test_random_tiles_acyclic_constraints_all_hold():
    rng = np.random.default_rng(34)
    scene = generate_scene(count=800, bounds=Aabb([-6, -6, -3], [6, 6, 3]), seed=5,
                           max_extent_fraction=0.5)
    grid, _ = build_grid(scene, 2.0)
    for trial in range(30):
        eye = rng.uniform([-3, -3, -14], [3, 3, -8])
        camera = look_at_camera(eye, rng.uniform(-2, 2, size=3))
        tile = (int(rng.integers(0, 16)), int(rng.integers(0, 16)))
        visits = traverse([tile], camera, grid)
        table = rows_of(visits)
        seen = {v for row in table for v in row}
        order = _schedule(visits, visibility_key(camera, grid, voxel_depths(camera, grid)))
        assert sorted(order) == sorted(seen)
        assert _violations(order, table) == 0
        assert _full_order_violations(order, table) == 0


def _key_order(eye_z, edge):
    """The renamed ids of a 3x1x2 grid of every cell, in ``visibility_key``
    order, from an eye at (1.5, 0.5, ``eye_z``) looking down +z."""
    grid = VoxelGrid(origin=[0, 0, 0], edge=edge, dims=[3, 1, 2], vids=np.arange(6))
    camera = Camera(width=16, height=16, fx=8.0, fy=8.0, cx=8.0, cy=8.0, rotation=np.eye(3),
                    translation=[-1.5, -0.5, -eye_z])
    return np.argsort(visibility_key(camera, grid, voxel_depths(camera, grid))).tolist()


def test_visibility_key_ranks_by_cell_distance_then_depth_then_id():
    """Renamed id r is cell (r % 3, 0, r // 3).  From the eye's cell (1, 0, 0)
    the distances are 1, 0, 1, 2, 1, 2: ties go to the nearer center, then
    to the lower id.  From (1, 0, -50) they are 51, 50, 51, 52, 51, 52, and
    the eye's cell clipped to (1, 0, -1) gives the same order."""
    assert _key_order(0.5, 1.0) == [1, 0, 2, 4, 3, 5]
    assert _key_order(-50.0, 1.0) == [1, 0, 2, 4, 3, 5]


def test_visibility_key_of_an_eye_whose_cell_overflows_int64():
    """At edge 1e-12 the eye (1.5, 0.5, -1e9) is in cell (1.5e12, 5e11, -1e21),
    past int64 on z.  Clipped to (3, 1, -1), it ranks the cells as the exact
    distances do: (2, 0, 0) first, then (1, 0, 0) and (2, 0, 1), whose depths
    round to one value, then (0, 0, 0) and (1, 0, 1), and (0, 0, 1) last."""
    assert _key_order(-1e9, 1e-12) == [2, 1, 5, 0, 4, 3]


def test_tile_outside_image_rejected():
    grid = VoxelGrid(origin=[0, 0, 0], edge=1.0, dims=[1, 1, 1], vids=[0])
    with pytest.raises(ValueError, match="tile"):
        traverse([(16, 0)], _axis_camera(), grid)
