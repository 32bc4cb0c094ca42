import struct

import numpy as np
import pytest

from voxsplat import Aabb, Camera, Gaussian, Scene, generate_scene, load_ply, save_ply
from voxsplat.errors import PlyParseError, PlySchemaError
from voxsplat.scene import scene_fingerprint

from conftest import constrained_scene


def _write_fixture_ply(path, rows, extra_header=None, props=None):
    """Hand-rolled binary PLY so the reader is checked against independent bytes."""
    names = props or (
        ["x", "y", "z", "nx", "ny", "nz"]
        + [f"f_dc_{i}" for i in range(3)]
        + [f"f_rest_{i}" for i in range(45)]
        + ["opacity"]
        + [f"scale_{i}" for i in range(3)]
        + [f"rot_{i}" for i in range(4)]
    )
    with open(path, "wb") as f:
        f.write(b"ply\nformat binary_little_endian 1.0\n")
        f.write(f"element vertex {len(rows)}\n".encode())
        for nm in names:
            f.write(f"property float {nm}\n".encode())
        if extra_header:
            f.write(extra_header)
        f.write(b"end_header\n")
        for row in rows:
            assert len(row) == len(names)
            f.write(struct.pack(f"<{len(names)}f", *row))


def _row(x=0.0, y=0.0, z=0.0, dc=(0.0, 0.0, 0.0), opacity_logit=0.0,
         scale_log=(0.0, 0.0, 0.0), rot=(1.0, 0.0, 0.0, 0.0), rest=None):
    rest = rest if rest is not None else [0.0] * 45
    return [x, y, z, 0, 0, 0, *dc, *rest, opacity_logit, *scale_log, *rot]


def test_zero_log_scale_loads_as_unit_scale(tmp_path):
    p = tmp_path / "one.ply"
    _write_fixture_ply(p, [_row(scale_log=(0, 0, 0))])
    scene = load_ply(p)
    assert np.allclose(scene.scales[0], 1.0)


def test_zero_opacity_logit_loads_as_half(tmp_path):
    p = tmp_path / "one.ply"
    _write_fixture_ply(p, [_row(opacity_logit=0.0)])
    assert load_ply(p).opacities[0] == pytest.approx(0.5)


def test_three_splat_fixture_ids_and_bounds(tmp_path):
    p = tmp_path / "three.ply"
    rows = [_row(x=1, y=2, z=3), _row(x=-1, y=0, z=5), _row(x=4, y=-2, z=0)]
    _write_fixture_ply(p, rows)
    scene = load_ply(p)
    assert list(scene.ids) == [0, 1, 2]
    # oracle: re-read the same bytes independently of the loader
    raw = np.array([r[:3] for r in rows], dtype=np.float32).astype(np.float64)
    assert np.allclose(scene.positions, raw)
    assert np.allclose(scene.bounds.lo, raw.min(axis=0))
    assert np.allclose(scene.bounds.hi, raw.max(axis=0))


def test_quaternions_normalized_on_load(tmp_path):
    p = tmp_path / "q.ply"
    _write_fixture_ply(p, [_row(rot=(2.0, 0.0, 0.0, 0.0))])
    scene = load_ply(p)
    assert np.allclose(scene.rotations[0], [1, 0, 0, 0])


def test_missing_property_is_schema_error(tmp_path):
    p = tmp_path / "bad.ply"
    names = ["x", "y", "z"]
    _write_fixture_ply(p, [[0.0, 0.0, 0.0]], props=names)
    with pytest.raises(PlySchemaError, match="f_dc_0"):
        load_ply(p)


def test_malformed_header_is_parse_error(tmp_path):
    p = tmp_path / "bad.ply"
    p.write_bytes(b"ply\nformat ascii 1.0\nend_header\n")
    with pytest.raises(PlyParseError, match="format"):
        load_ply(p)
    p.write_bytes(b"not a ply\n")
    with pytest.raises(PlyParseError, match="magic"):
        load_ply(p)


def test_list_property_rejected(tmp_path):
    p = tmp_path / "list.ply"
    p.write_bytes(
        b"ply\nformat binary_little_endian 1.0\nelement vertex 1\n"
        b"property list uchar int vertex_indices\nend_header\n"
    )
    with pytest.raises(PlyParseError, match="vertex_indices"):
        load_ply(p)


def test_save_load_round_trip_is_fixed_point(tmp_path):
    scene = generate_scene(count=64, bounds=Aabb([-4, -4, -2], [4, 4, 2]), seed=9,
                           max_extent_fraction=0.5)
    p1, p2 = tmp_path / "a.ply", tmp_path / "b.ply"
    save_ply(scene, p1)
    once = load_ply(p1)
    save_ply(once, p2)
    twice = load_ply(p2)
    # 32-bit exactness: a second round trip changes nothing
    assert p1.read_bytes() == p2.read_bytes()
    for a, b in [
        (once.positions, twice.positions),
        (once.scales, twice.scales),
        (once.rotations, twice.rotations),
        (once.opacities, twice.opacities),
        (once.sh, twice.sh),
    ]:
        assert np.array_equal(a, b)


def test_generate_scene_deterministic():
    kwargs = dict(count=40, bounds=Aabb([-4, -4, -2], [4, 4, 2]), seed=7)
    a, b = generate_scene(**kwargs), generate_scene(**kwargs)
    assert np.array_equal(a.positions, b.positions)
    assert np.array_equal(a.sh, b.sh)
    assert scene_fingerprint(a) == scene_fingerprint(b)


def test_generate_scene_honors_extent_bound():
    scene = generate_scene(count=1000, bounds=Aabb([-8, -8, -2], [8, 8, 2]), seed=1,
                           max_extent_fraction=0.4, voxel_edge=2.0)
    assert np.all(3.0 * scene.scales.max(axis=1) < 0.4 * 2.0 / 2.0)
    assert np.all(scene.bounds.contains(scene.positions))


def test_generate_scene_rejects_bad_count():
    with pytest.raises(ValueError):
        generate_scene(count=0, bounds=Aabb([-1, -1, -1], [1, 1, 1]), seed=0)


def test_constrained_scene_margins():
    scene = constrained_scene(seed=12)
    edge = 2.0
    cells = np.floor((scene.positions - scene.bounds.lo) / edge)
    lo = scene.bounds.lo + cells * edge
    s_max = scene.scales.max(axis=1)
    margin = 6.0 * s_max
    assert np.all(scene.positions >= lo + margin[:, None] - 1e-12)
    assert np.all(scene.positions <= lo + edge - margin[:, None] + 1e-12)


def test_gaussian_validation():
    with pytest.raises(ValueError, match="opacity"):
        Gaussian(position=[0, 0, 0], scale=[1, 1, 1], rotation=[1, 0, 0, 0],
                 opacity=1.5, sh=np.zeros((16, 3)), id=0)
    with pytest.raises(ValueError, match="scale"):
        Gaussian(position=[0, 0, 0], scale=[0, 1, 1], rotation=[1, 0, 0, 0],
                 opacity=0.5, sh=np.zeros((16, 3)), id=0)
    with pytest.raises(ValueError, match="quaternion"):
        Gaussian(position=[0, 0, 0], scale=[1, 1, 1], rotation=[2, 0, 0, 0],
                 opacity=0.5, sh=np.zeros((16, 3)), id=0)


def test_camera_validation_and_json(tmp_path):
    with pytest.raises(ValueError, match="multiple"):
        Camera(width=100, height=256, fx=100, fy=100, cx=50, cy=128,
               rotation=np.eye(3), translation=np.zeros(3))
    with pytest.raises(ValueError, match="near"):
        Camera(width=256, height=256, fx=100, fy=100, cx=128, cy=128,
               rotation=np.eye(3), translation=np.zeros(3), near=0.0)
    cam = Camera(width=256, height=256, fx=100, fy=100, cx=128, cy=128,
                 rotation=np.eye(3), translation=np.array([1.0, 2.0, 3.0]))
    path = tmp_path / "cam.json"
    cam.save(path)
    back = Camera.load(path)
    assert back.to_json() == cam.to_json()
    assert np.allclose(cam.position, [-1, -2, -3])


@pytest.mark.parametrize("field", ["positions", "scales", "rotations", "opacities", "sh"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_scene_rejects_non_finite_values(field, bad):
    scene = constrained_scene(1, count=20)
    arrays = {
        name: getattr(scene, name).copy()
        for name in ("positions", "scales", "rotations", "opacities", "sh", "ids")
    }
    arrays[field].reshape(-1)[7] = bad
    with pytest.raises(ValueError, match=f"non-finite values in splat {field}"):
        Scene(**arrays, bounds=Aabb([-100.0] * 3, [100.0] * 3))
