"""The PLY, GSVX and GSVQ loaders against hostile bytes, and camera JSON
against hostile values: whatever a file holds, a loader returns or raises a
``VoxsplatError``, never anything else."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from voxsplat import (
    Aabb,
    Camera,
    VoxelStore,
    generate_scene,
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
from voxsplat.voxelstore import gather_attribute
from voxsplat.vq import ATTRIBUTES

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
def test_mutated_and_truncated_files_raise_only_voxsplat_errors(files, kind, edits, cut):
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
    try:
        _load(kind, path, data)
    except VoxsplatError:
        pass


def test_ply_property_line_without_a_type_is_a_parse_error(files):
    valid, path, _ = files
    data = valid["ply"].replace(b"property float nx\n", b"property\n", 1)
    with pytest.raises(PlyParseError, match="malformed property line"):
        _load("ply", path, data)


def test_ply_header_problems_are_parse_errors(files):
    valid, path, _ = files
    for old, new, message in [
        (b"element vertex 3\n", b"element vertex -1\n", "negative vertex count"),
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
    first_splat = 4 + 3 + 8 + 24 + 12 + 4 + 4 * nonempty + 4
    for kind, at, error in [
        ("ply", payload, PlySchemaError),
        ("gsvx", first_splat, StoreFormatError),
        ("gsvq", 4 + 9, CodebookCorruptionError),
    ]:
        data = valid[kind][:at] + NAN + valid[kind][at + 4:]
        with pytest.raises(error, match="non-finite"):
            _load(kind, path, data)


_CAMERA = {
    "width": 64, "height": 48, "fx": 60.0, "fy": 60.0, "cx": 32.0, "cy": 24.0,
    "world_to_camera": {"rotation": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
                        "translation": [0.0, 0.0, 10.0]},
    "near": 0.1,
}
_ODD_VALUES = st.sampled_from([float("nan"), float("inf"), -float("inf"), 0, 0.0, -1.0, 1e300,
                               2**64, 1600000, -16, True, None, "x", [], [1.0], {}, [[1.0]]])


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
def test_camera_json_raises_only_camera_format_errors(obj):
    try:
        camera = Camera.from_json(obj)
    except CameraFormatError:
        return
    assert camera.width * camera.height <= 1 << 24
    assert all(np.isfinite(v) for v in (camera.fx, camera.fy, camera.cx, camera.cy, camera.near))
    assert camera.fx > 0 and camera.fy > 0 and camera.near > 0
