"""The PLY, GSVX and GSVQ loaders against hostile bytes, and camera JSON
against hostile values: whatever a file holds, a loader returns or raises a
``VoxsplatError``, never anything else."""

import contextlib
import io
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from voxsplat import (
    Aabb,
    Camera,
    VoxelStore,
    generate_scene,
    look_at_camera,
    render_frame_reference,
    render_frame_streaming,
    load_codebooks,
    load_ply,
    load_store,
    save_codebooks,
    save_ply,
    save_store,
    train_codebook,
)
from voxsplat.errors import (
    CameraFormatError,
    CodebookCorruptionError,
    PlyParseError,
    PlySchemaError,
    StoreFormatError,
    VoxsplatError,
)
from voxsplat.cli import main
from voxsplat.filtering import quat_to_rotmat
from voxsplat.scene import FOCAL_RANGE, PRINCIPAL_POINT_RANGE, TRANSLATION_RANGE
from voxsplat.voxelstore import gather_attribute
from voxsplat.vq import ATTRIBUTES

from conftest import double_ply, restamp

LOADERS = {"ply": load_ply, "gsvx": load_store, "gsvq": load_codebooks}
NAN = np.array([np.nan], dtype="<f4").tobytes()


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """Valid bytes of each format, from one small scene, and a scratch path."""
    tmp = tmp_path_factory.mktemp("fuzz")
    scene = generate_scene(count=3, bounds=Aabb([-1.0, -1.0, -1.0], [1.0, 1.0, 1.0]), seed=0,
                           max_extent_fraction=0.3)
    store = VoxelStore.build(scene, 1.0)
    books = {name: train_codebook(gather_attribute(store.records, name), 2, seed=0,
                                  attribute=name) for name in ATTRIBUTES}
    save_ply(scene, tmp / "scene.ply")
    save_store(store, tmp / "scene.gsvx")
    save_codebooks(books, tmp / "books.gsvq")
    valid = {
        "ply": (tmp / "scene.ply").read_bytes(),
        "gsvx": (tmp / "scene.gsvx").read_bytes(),
        "gsvq": (tmp / "books.gsvq").read_bytes(),
    }
    return valid, tmp / "mutated", store.grid.nonempty_count


@pytest.fixture(scope="module")
def compare_argv(tmp_path_factory):
    """``compare`` on a 32x32 camera facing the fuzzed scene, less ``--voxels``."""
    tmp = tmp_path_factory.mktemp("compare")
    look_at_camera([0.0, 0.0, -4.0], [0.0, 0.0, 0.0], width=32, height=32, focal=40.0).save(
        tmp / "cam.json")
    return ["compare", "--camera", str(tmp / "cam.json"), "--report", str(tmp / "report.json")]


def _load(kind, path, data):
    path.write_bytes(bytes(data))
    return LOADERS[kind](path)


_edits = st.lists(
    st.tuples(st.sampled_from(["flip", "set", "insert", "delete"]), st.floats(0.0, 1.0),
              st.integers(0, 255)),
    max_size=6,
)


@pytest.mark.parametrize("kind", sorted(LOADERS))
@settings(max_examples=150, deadline=None)
@given(edits=_edits, cut=st.one_of(st.none(), st.floats(0.0, 1.0)))
@example(edits=[], cut=None)
@example(edits=[], cut=0.999)
def test_mutated_and_truncated_files_raise_only_voxsplat_errors(files, compare_argv, kind, edits,
                                                                cut):
    """A store that loads also goes through ``compare``: it exits 0, or 1
    with one line."""
    valid, path, _ = files
    data = bytearray(valid[kind])
    for op, where, byte in edits:
        at = min(int(where * len(data)), max(len(data) - 1, 0))
        if op == "insert":
            data.insert(at, byte)
        elif not data:
            continue
        elif op == "flip":
            data[at] ^= 1 << (byte % 8)
        elif op == "set":
            data[at] = byte
        else:
            del data[at]
    if cut is not None:
        data = data[: int(cut * len(data))]
    # a store's digest catches the edit; re-stamped, the edit meets the checks behind it
    for variant in [data, restamp(data)] if kind == "gsvx" and len(data) >= 32 else [data]:
        try:
            _load(kind, path, variant)
        except VoxsplatError:
            continue
        if kind == "gsvx":
            err = io.StringIO()
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                code = main([*compare_argv, "--voxels", str(path)])
            assert code == 0 or (code == 1 and err.getvalue().count("\n") == 1), err.getvalue()


def test_hostile_store_bytes_give_one_format_error_and_one_compare_line(files, compare_argv,
                                                                        capsys):
    """Every truncation, every appended suffix of 1-8 bytes, a second store
    appended and every single-byte flip of a small store: one
    ``StoreFormatError``, and through ``compare`` one line with exit 1."""
    valid, path, _ = files
    data = valid["gsvx"]
    hostile = [data[:size] for size in range(len(data))]
    hostile += [data + tail[:size] for size in range(1, 9)
                for tail in (bytes(8), b"\xff" * 8, data)]
    hostile.append(data + data)
    hostile += [data[:at] + bytes([data[at] ^ 0xFF]) + data[at + 1 :] for at in range(len(data))]
    for bad in hostile:
        with pytest.raises(StoreFormatError):
            _load("gsvx", path, bad)
        assert main([*compare_argv, "--voxels", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("voxsplat: ") and err.count("\n") == 1, err


def test_ply_property_line_without_a_type_is_a_parse_error(files):
    valid, path, _ = files
    data = valid["ply"].replace(b"property float nx\n", b"property\n", 1)
    with pytest.raises(PlyParseError, match="malformed property line"):
        _load("ply", path, data)


def test_ply_header_problems_are_parse_errors(files):
    valid, path, _ = files
    for old, new, message in [
        (b"element vertex 3\n", b"element vertex -1\n", "negative vertex count"),
        (b"element vertex 3\n", b"element vertex three\n", "bad vertex count"),
        (b"element vertex 3\n", b"element vertex 3 4\n", "malformed element line"),
        (b"element vertex 3\n", b"", "no vertex element in header"),
        (b"property float nx\n", b"property float x\n", "duplicate property 'x'"),
    ]:
        with pytest.raises(PlyParseError, match=message):
            _load("ply", path, valid["ply"].replace(old, new, 1))


def test_truncated_ply_payload_is_a_parse_error(files):
    valid, path, _ = files
    with pytest.raises(PlyParseError, match="truncated vertex payload"):
        _load("ply", path, valid["ply"][:-1])


def test_non_finite_values_raise_each_loaders_error(files):
    valid, path, nonempty = files
    ply = valid["ply"]
    payload = ply.index(b"end_header\n") + len(b"end_header\n")
    # the first float of the payload: x of the first vertex / splat, first centroid
    first_splat = 4 + 3 + 8 + 24 + 12 + 4 + 8 * nonempty
    for kind, at, error in [
        ("ply", payload, PlySchemaError),
        ("gsvx", first_splat, StoreFormatError),
        ("gsvq", 4 + 9, CodebookCorruptionError),
    ]:
        data = valid[kind][:at] + NAN + valid[kind][at + 4:]
        if kind == "gsvx":  # so the NaN, not the digest, is what the loader refuses
            data = restamp(data)
        with pytest.raises(error, match="non-finite"):
            _load(kind, path, data)


_CAMERA = {
    "width": 64, "height": 48, "fx": 60.0, "fy": 60.0, "cx": 32.0, "cy": 24.0,
    "world_to_camera": {"rotation": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
                        "translation": [0.0, 0.0, 10.0]},
    "near": 0.1,
}
_ODD_VALUES = st.sampled_from([float("nan"), float("inf"), -float("inf"), 0, 0.0, -1.0, 1e300,
                               2**64, 1600000, -16, True, False, None, "x", "64", 64.5, [],
                               [1.0], {}, [[1.0]]])


@st.composite
def _camera_json(draw):
    """The valid camera with keys deleted, values swapped for other types and
    NaN, infinite, zero and huge values, or replaced by a non-object."""
    if draw(st.integers(0, 9)) == 0:
        return draw(st.sampled_from([[], [1, 2], "camera", 3.5, None]))
    obj = {k: (dict(v) if isinstance(v, dict) else v) for k, v in _CAMERA.items()}
    for _ in range(draw(st.integers(1, 3))):
        key = draw(st.sampled_from(sorted(obj) + ["rotation", "translation"]))
        target = obj.get("world_to_camera") if key in ("rotation", "translation") else obj
        if not isinstance(target, dict):
            continue
        if draw(st.booleans()):
            target.pop(key, None)
        elif key == "translation" and draw(st.booleans()):
            target[key] = [0.0, 0.0, draw(_ODD_VALUES)]
        else:
            target[key] = draw(_ODD_VALUES)
    return obj


@settings(max_examples=300, deadline=None)
@given(obj=_camera_json())
@example(obj={})
@example(obj=[1, 2])
@example(obj={**_CAMERA, "fx": float("nan")})
@example(obj={**_CAMERA, "near": float("nan")})
@example(obj={**_CAMERA, "width": 1600000, "height": 1600000})
@example(obj={**_CAMERA, "width": "64"})
@example(obj={**_CAMERA, "height": 48.5})
@example(obj={**_CAMERA, "fx": True})
@example(obj={**_CAMERA, "world_to_camera": {**_CAMERA["world_to_camera"],
                                             "translation": [0.0, 0.0, "10"]}})
def test_camera_json_raises_only_camera_format_errors(obj):
    try:
        camera = Camera.from_json(obj)
    except CameraFormatError:
        return
    # a loaded camera came from JSON numbers only, and from integral sizes
    w2c = obj["world_to_camera"]
    read = [obj[k] for k in ("width", "height", "fx", "fy", "cx", "cy")] + [obj.get("near", 0.1)]
    read += [*np.array(w2c["rotation"], dtype=object).flat,
             *np.array(w2c["translation"], dtype=object).flat]
    assert all(type(v) in (int, float) for v in read)
    assert (camera.width, camera.height) == (obj["width"], obj["height"])
    assert camera.width * camera.height <= 1 << 24
    assert all(np.isfinite(v) for v in (camera.fx, camera.fy, camera.cx, camera.cy, camera.near))
    assert camera.fx > 0 and camera.fy > 0 and camera.near > 0


_LOOKING = {"fx": 60.0, "fy": 60.0, "cx": 16.0, "cy": 16.0, "near": 0.1,
            "translation": [0.0, 0.0, 10.0]}


def _inside(bounds):
    """Values inside ``bounds``: anywhere, at its ends, or near the origin."""
    lo, hi = bounds
    return st.one_of(st.floats(lo, hi), st.sampled_from(bounds), st.floats(max(lo, -30.0), 30.0))


@pytest.fixture(scope="module")
def tiny_store():
    """A 50-splat store and the flat scene the reference renders."""
    scene = generate_scene(count=50, bounds=Aabb([-2.0, -2.0, -1.0], [2.0, 2.0, 1.0]), seed=2,
                           max_extent_fraction=0.5)
    return VoxelStore.build(scene, 2.0), scene


@settings(max_examples=200, deadline=None)
@given(
    values=st.fixed_dictionaries({
        "fx": _inside(FOCAL_RANGE), "fy": _inside(FOCAL_RANGE),
        "cx": _inside(PRINCIPAL_POINT_RANGE), "cy": _inside(PRINCIPAL_POINT_RANGE),
        "near": st.floats(0.0, 1e3, exclude_min=True),
        "translation": st.lists(_inside(TRANSLATION_RANGE), min_size=3, max_size=3),
    }),
    wild=st.sampled_from([None, "fx", "fy", "cx", "cy", "near", "translation"]),
    wild_value=st.floats(allow_nan=False, allow_infinity=False),
    quaternion=st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4),
)
@example(values=_LOOKING, wild=None, wild_value=0.0, quaternion=[1.0, 0.0, 0.0, 0.0])
@example(values=_LOOKING, wild="fx", wild_value=1e300, quaternion=[1.0, 0.0, 0.0, 0.0])
@example(values=_LOOKING, wild="cx", wild_value=1e300, quaternion=[1.0, 0.0, 0.0, 0.0])
@example(values=_LOOKING, wild="translation", wild_value=1e300, quaternion=[1.0, 0.0, 0.0, 0.0])
def test_finite_camera_values_render_or_raise_camera_format_errors(
    tiny_store, values, wild, wild_value, quaternion
):
    """Finite intrinsics, near plane and translation, inside the camera's
    ranges or with one value anywhere: the camera renders a finite frame
    through both pipelines without a warning, or is refused with
    ``CameraFormatError`` where it comes in."""
    values = dict(values)
    if wild == "translation":
        values["translation"] = [0.0, 0.0, wild_value]
    elif wild is not None:
        values[wild] = wild_value
    q = np.asarray(quaternion)
    if np.linalg.norm(q) < 1e-3:
        q = np.array([1.0, 0.0, 0.0, 0.0])
    rotation = quat_to_rotmat((q / np.linalg.norm(q))[None])[0]
    obj = {**_CAMERA, **{k: values[k] for k in ("fx", "fy", "cx", "cy", "near")},
           "width": 32, "height": 32,
           "world_to_camera": {"rotation": rotation.tolist(),
                               "translation": values["translation"]}}
    store, scene = tiny_store
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            camera = Camera.from_json(obj)
        except CameraFormatError:
            return
        stream, _, _ = render_frame_streaming(camera, store.grid, store.records)
        ref, _ = render_frame_reference(camera, scene)
    assert np.all(np.isfinite(stream)) and np.all(np.isfinite(ref))


@settings(max_examples=100, deadline=None)
@given(
    xs=st.lists(st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                          st.sampled_from([1e308, -1e308, 3.4e38, -3.4e38, 1e300, 0.0])),
                min_size=1, max_size=4),
    edge=st.sampled_from([2.0, 1e-300, 1e300]),
)
@example(xs=[1e308, -1e308], edge=2.0)
@example(xs=[1e300, 1e300], edge=2.0)
@example(xs=[3e38, -3e38], edge=2.0)
def test_extreme_ply_coordinates_build_a_store_or_raise_one_error(files, xs, edge):
    """``double`` coordinates anywhere in the finite range: loading and
    building either give a store that saves without a warning, or raise a
    ``VoxsplatError`` or ``ValueError`` (one line on the command line)."""
    tmp = files[1].parent
    double_ply(tmp / "double.ply", xs)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            store = VoxelStore.build(load_ply(tmp / "double.ply"), edge)
        except (VoxsplatError, ValueError):
            return
        save_store(store, tmp / "double.gsvx")
    assert np.all(np.isfinite(load_store(tmp / "double.gsvx").records.positions))
