import hashlib
import struct
from unittest import mock

import numpy as np
import pytest

from voxsplat import Aabb, Camera, Scene, generate_scene, load_ply, save_ply
from voxsplat.errors import PlyParseError, PlySchemaError
from voxsplat.scene import CAMERA_ROTATION_TOL

from conftest import constrained_scene
from oracles import scene_fingerprint


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
    _write_fixture_ply(p, [_row(), _row(rot=(0.0, 0.0, 0.0, 0.0))])
    with pytest.raises(PlySchemaError, match="zero-norm rotation quaternion"):
        load_ply(p)


def test_an_element_after_the_vertex_block_is_skipped(tmp_path):
    """A mesh's faces, list property included, follow the vertices they index."""
    p = tmp_path / "mesh.ply"
    rows = [_row(x=1, y=2, z=3), _row(x=-1, y=0, z=5), _row(x=4, y=-2, z=0)]
    _write_fixture_ply(p, rows, extra_header=b"element face 1\n"
                                             b"property list uchar int vertex_indices\n")
    with open(p, "ab") as f:
        f.write(struct.pack("<B3i", 3, 0, 1, 2))
    scene = load_ply(p)
    assert scene.positions.tolist() == [r[:3] for r in rows]
    assert list(scene.ids) == [0, 1, 2]


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


def test_generated_scenes_and_ply_bytes_are_pinned(tmp_path):
    """Fingerprints of a constrained, an unconstrained and a narrowed-opacity
    scene, and the PLY bytes of the first, fixed before the generator's
    distribution parameters became constants and the PLY header came from
    ``_REQUIRED_PROPS``."""
    bounds = Aabb([-4, -4, -2], [4, 4, 2])
    base = dict(count=120, bounds=bounds, seed=31)
    constrained = generate_scene(**base, max_extent_fraction=0.135, voxel_edge=2.0,
                                 constrained=True)
    scenes = [
        constrained,
        generate_scene(**base, max_extent_fraction=0.4),
        generate_scene(**base, max_extent_fraction=0.4, opacity_range=(0.5, 0.98)),
    ]
    assert [scene_fingerprint(s) for s in scenes] == [
        "bf70d4ba44dff7f3", "7e28d3452a8d0961", "3302c3a66e42d803"]
    path = tmp_path / "pinned.ply"
    save_ply(constrained, path)
    data = path.read_bytes()
    assert len(data) == 31288
    assert hashlib.sha256(data).hexdigest() == (
        "5446369455ea12e5076669e49d0c733833023a5242600d3b537478f57cce2f4d"
    )


def test_generate_scene_honors_extent_bound():
    scene = generate_scene(count=1000, bounds=Aabb([-8, -8, -2], [8, 8, 2]), seed=1,
                           max_extent_fraction=0.4, voxel_edge=2.0)
    assert np.all(3.0 * scene.scales.max(axis=1) < 0.4 * 2.0 / 2.0)
    assert np.all(scene.bounds.contains(scene.positions))


def test_scene_checks_only_the_bounds_a_caller_passes():
    """Bounds a caller passes must hold every position.  Bounds the scene
    derives from its own positions, which are finite by then, hold them by
    construction, so the containment test is skipped."""
    splats = dict(positions=[[0.0, 0.0, 0.0], [1.0, 2.0, 3.0]], scales=np.full((2, 3), 0.1),
                  rotations=[[1.0, 0.0, 0.0, 0.0]] * 2, opacities=[0.5, 0.5],
                  sh=np.zeros((2, 16, 3)), ids=[0, 1])
    with mock.patch.object(Aabb, "contains", side_effect=AssertionError("containment tested")):
        derived = Scene(**splats)
    assert np.all(derived.bounds.contains(derived.positions))
    Scene(**splats, bounds=derived.bounds)
    with pytest.raises(ValueError, match="^scene bounds do not contain all positions$"):
        Scene(**splats, bounds=Aabb([0.0, 0.0, 0.0], [1.0, 2.0, 2.5]))


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


def _one_splat(scale=(1, 1, 1), rotation=(1, 0, 0, 0), opacity=0.5):
    return Scene(positions=[[0, 0, 0]], scales=[scale], rotations=[rotation],
                 opacities=[opacity], sh=np.zeros((1, 16, 3)), ids=[0])


def test_splat_validation():
    _one_splat()
    with pytest.raises(ValueError, match="opacity"):
        _one_splat(opacity=1.5)
    with pytest.raises(ValueError, match="scale"):
        _one_splat(scale=(0, 1, 1))
    with pytest.raises(ValueError, match="quaternion"):
        _one_splat(rotation=(2, 0, 0, 0))


def _root(gram):
    """The symmetric W with W W^T = ``gram``."""
    lam, v = np.linalg.eigh(gram)
    return (v * np.sqrt(lam)) @ v.T


def _camera(rotation):
    return Camera(width=256, height=256, fx=100, fy=100, cx=128, cy=128, rotation=rotation,
                  translation=np.zeros(3))


def test_camera_rotation_tolerance_holds_on_every_entry():
    """Each entry of W W^T may stray CAMERA_ROTATION_TOL from the identity's,
    off the diagonal as on it, and no further: no relative tolerance widens
    the diagonal.  Every rotation that np.allclose(W W^T, I, atol=1e-8)
    takes is taken."""
    tol = CAMERA_ROTATION_TOL
    for i, j in ((0, 0), (2, 2), (0, 1), (1, 2)):
        for e, ok in ((0.999 * tol, True), (-0.999 * tol, True), (1.001 * tol, False),
                      (-1.001 * tol, False)):
            gram = np.eye(3)
            gram[i, j] = gram[j, i] = gram[i, j] + e
            if ok:
                _camera(_root(gram))
            else:
                with pytest.raises(ValueError, match="orthonormal"):
                    _camera(_root(gram))
    rng = np.random.default_rng(29)
    taken = 0
    for _ in range(300):
        # diagonal drifts around allclose's reach of rtol + atol = 1.001e-5
        e = np.diag(rng.choice([-1.0, 1.0], 3) * rng.uniform(0.999e-5, 1.0011e-5, 3))
        e[0, 1] = e[1, 0] = rng.uniform(-1.0, 1.0) * 1.01e-8
        w = _root(np.eye(3) + e)
        if np.allclose(w @ w.T, np.eye(3), atol=1e-8):
            _camera(w)
            taken += 1
    assert 0 < taken < 300


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
