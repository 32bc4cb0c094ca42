import hashlib
import struct
import warnings

import numpy as np
import pytest

from voxsplat import Aabb, Scene, TrafficLedger, VoxelStore, build_grid, generate_scene
from voxsplat.errors import CodebookCorruptionError, StoreFormatError
from voxsplat.voxelstore import (
    COARSE_BYTES_PER_GAUSSIAN,
    ENCODED_FINE_BYTES,
    MAX_GRID_CELLS,
    RAW_FINE_STREAM_BYTES,
    encode_records,
    gather_attribute,
    load_store,
    save_store,
    scene_from_records,
    stream_coarse,
    stream_fine,
    VoxelGrid,
)
from voxsplat.vq import DEFAULT_ENTRIES, train_codebook


def _single_splat_scene(position, scale=0.1):
    return Scene(
        positions=np.array([position], dtype=np.float64),
        scales=np.full((1, 3), scale),
        rotations=np.array([[1.0, 0, 0, 0]]),
        opacities=np.array([0.5]),
        sh=np.zeros((1, 16, 3)),
        ids=np.array([0]),
        bounds=Aabb([-2, -2, -2], [4, 4, 4]),
    )


def _random_scene(seed=0, count=1000):
    return generate_scene(
        count=count, bounds=Aabb([-4, -4, -4], [4, 4, 4]), seed=seed, max_extent_fraction=0.5
    )


def test_single_splat_single_voxel():
    grid, records = build_grid(_single_splat_scene([0.0, 0.0, 0.0]), 2.0)
    assert grid.nonempty_count == 1
    assert len(records) == 1 and records.offsets.tolist() == [0, 1]
    assert grid.dense_renaming()[grid.vids].tolist() == [0]


def test_face_position_goes_to_higher_voxel():
    # center exactly on the x = 0 face; origin at -2 so the face is a cell edge
    grid, records = build_grid(_single_splat_scene([0.0, -1.0, -1.0]), 2.0)
    cell = grid.cell_of(np.array([[0.0, -1.0, -1.0]]))[0]
    assert cell[0] == 1  # (0 - (-2)) / 2 -> floor(1.0) = 1: the higher-coordinate voxel
    assert grid.cell_of(np.array([[-1e-9, -1.0, -1.0]]))[0][0] == 0


def test_occupancy_matches_brute_force_histogram():
    scene = _random_scene(seed=3)
    grid, records = build_grid(scene, 2.0)
    counts = np.diff(records.offsets)
    assert counts.sum() == len(scene)
    # oracle: independent per-splat floor histogram
    hist = {}
    for p in scene.positions:
        key = tuple(int(np.floor((p[i] - grid.origin[i]) / 2.0)) for i in range(3))
        hist[key] = hist.get(key, 0) + 1
    by_cell = {tuple(grid.cell_of_vid(np.array(grid.vids[r]))): counts[r]
               for r in range(len(records))}
    assert by_cell == hist


def test_vids_are_a_dense_bijection():
    grid, records = build_grid(_random_scene(seed=4), 2.0)
    assert np.all(np.diff(grid.vids) > 0)
    dense = grid.dense_renaming()
    assert dense[grid.vids].tolist() == list(range(grid.nonempty_count))
    assert np.count_nonzero(dense >= 0) == grid.nonempty_count
    # every splat in exactly one voxel; ids partition the scene
    assert len(records.ids) == len(set(records.ids.tolist()))


def test_vids_lookup_tables():
    grid = VoxelGrid(origin=[0, 0, 0], edge=1.0, dims=[2, 2, 2], vids=[1, 6])
    dense = grid.dense_renaming()
    assert dense.tolist() == [-1, 0, -1, -1, -1, -1, 1, -1]
    assert grid.vids.tolist() == [1, 6]
    assert grid.dense_renaming() is dense  # built once
    grid = VoxelGrid(origin=[0, 0, 0], edge=1.0, dims=[2, 2, 2], vids=[2, 7])
    assert grid.dense_renaming().tolist() == [-1, -1, 0, -1, -1, -1, -1, 1]
    assert grid.centers(np.arange(2)).tolist() == [[0.5, 1.5, 0.5], [1.5, 1.5, 1.5]]
    grid = VoxelGrid(origin=[0, 0, 0], edge=1.0, dims=[2, 2, 2], vids=[0, 3, 5])
    assert grid.dense_renaming().tolist() == [0, -1, -1, 1, -1, 2, -1, -1]
    assert grid.vids.tolist() == [0, 3, 5]
    for vids in ([3, 1], [2, 2], [-1, 0], [0, 8]):
        with pytest.raises(ValueError, match="ascending below 8"):
            VoxelGrid(origin=[0, 0, 0], edge=1.0, dims=[2, 2, 2], vids=vids)


def test_records_sorted_by_renamed_id_and_by_splat_id():
    grid, records = build_grid(_random_scene(seed=5), 2.0)
    assert records.offsets[0] == 0 and records.offsets[-1] == len(records.ids)
    assert np.all(np.diff(records.offsets) > 0)
    for r in range(len(records)):
        assert np.all(np.diff(records.ids[records.rows(r)]) > 0)
    assert np.allclose(records.max_scales, np.maximum.reduce(records.scales.T))


def test_stream_coarse_charges_16_bytes_per_splat():
    grid, records = build_grid(_random_scene(seed=6, count=10), 8.0)
    assert len(records) >= 1
    counts = np.diff(records.offsets)
    r = int(np.argmax(counts))
    ledger = TrafficLedger()
    pos, smax = stream_coarse(records, r, ledger)
    assert ledger.bytes["coarse-load"] == 16 * counts[r]
    assert COARSE_BYTES_PER_GAUSSIAN == 16
    assert len(pos) == counts[r] and len(smax) == counts[r]


def test_stream_fine_charges_survivors_only():
    scene = _random_scene(seed=7, count=50)
    grid, records = build_grid(scene, 8.0)
    counts = np.diff(records.offsets)
    r = int(np.argmax(counts))
    ledger = TrafficLedger()
    out = stream_fine(records, r, np.array([], dtype=np.int64), None, ledger, decode=True)
    assert ledger.bytes["fine-load"] == 0
    survivors = np.arange(min(3, counts[r]))
    stream_fine(records, r, survivors, None, ledger, decode=True)
    assert ledger.bytes["fine-load"] == RAW_FINE_STREAM_BYTES * len(survivors)

    books = {name: train_codebook(gather_attribute(records, name), 16, seed=0, attribute=name)
             for name in DEFAULT_ENTRIES}
    enc = encode_records(records, books)
    ledger2 = TrafficLedger()
    stream_fine(enc, r, np.array([0]), books, ledger2, decode=True)
    assert ledger2.bytes["fine-load"] == 12
    assert ENCODED_FINE_BYTES == 12


def test_fine_bytes_never_touch_non_survivors():
    scene = _random_scene(seed=8, count=200)
    grid, records = build_grid(scene, 4.0)
    ledger = TrafficLedger()
    total = 0
    for r in range(len(records)):
        max_scales = records.max_scales[records.rows(r)]
        survivors = np.flatnonzero(max_scales > np.median(max_scales))
        stream_fine(records, r, survivors, None, ledger, decode=True)
        total += len(survivors)
    assert ledger.bytes["fine-load"] == RAW_FINE_STREAM_BYTES * total
    assert ledger.records["fine-load"] == total


def test_full_sweep_coarse_bytes_scale_with_visits():
    scene = _random_scene(seed=9, count=300)
    grid, records = build_grid(scene, 2.0)
    ledger = TrafficLedger()
    visits = 3
    for _ in range(visits):
        for r in range(len(records)):
            stream_coarse(records, r, ledger)
    assert ledger.bytes["coarse-load"] == 16 * len(scene) * visits


def test_scene_round_trips_through_records():
    scene = _random_scene(seed=10, count=123)
    grid, records = build_grid(scene, 2.0)
    back = scene_from_records(grid, records)
    assert np.array_equal(back.positions, scene.positions)
    assert np.array_equal(back.sh, scene.sh)
    assert np.array_equal(back.ids, scene.ids)


def test_store_file_round_trip(tmp_path):
    scene = _random_scene(seed=11, count=77)
    store = VoxelStore.build(scene, 2.0)
    path = tmp_path / "scene.gsvx"
    save_store(store, path)
    back = load_store(path)
    assert np.array_equal(back.grid.dims, store.grid.dims)
    assert np.array_equal(back.grid.vids, store.grid.vids)
    assert np.array_equal(back.records.offsets, store.records.offsets)
    assert np.array_equal(back.records.ids, store.records.ids)
    assert np.array_equal(back.records.positions,
                          store.records.positions.astype(np.float32).astype(np.float64))
    # loading is a fixed point at float32
    save_store(back, tmp_path / "again.gsvx")
    assert (tmp_path / "again.gsvx").read_bytes() == path.read_bytes()


def test_store_file_bytes_are_pinned(tmp_path):
    """The GSVX v1 bytes of a fixed seeded scene, as written before the store
    moved to flat arrays; the digest also pins ``generate_scene``'s output."""
    scene = generate_scene(count=300, bounds=Aabb([-4, -4, -4], [4, 4, 4]), seed=2024,
                           max_extent_fraction=0.5)
    path = tmp_path / "pinned.gsvx"
    save_store(VoxelStore.build(scene, 2.0), path)
    data = path.read_bytes()
    assert len(data) == 73759
    assert hashlib.sha256(data).hexdigest() == (
        "1017e60931609a340d2227c10a34585d59481ac2f68d5338d1baeae63d9d1feb"
    )


def test_store_rejects_garbage(tmp_path):
    path = tmp_path / "bad.gsvx"
    path.write_bytes(b"XXXX" + b"\x00" * 32)
    with pytest.raises(StoreFormatError):
        load_store(path)


def test_encoded_records_refuse_double_encode():
    scene = _random_scene(seed=12, count=30)
    grid, records = build_grid(scene, 4.0)
    books = {name: train_codebook(gather_attribute(records, name), 8, seed=0, attribute=name)
             for name in DEFAULT_ENTRIES}
    enc = encode_records(records, books)
    with pytest.raises(ValueError, match="already encoded"):
        encode_records(enc, books)
    with pytest.raises(ValueError, match="codebooks"):
        ledger = TrafficLedger()
        stream_fine(enc, 0, np.array([0]), None, ledger, decode=True)


def test_encode_rejects_a_codebook_of_the_wrong_dim():
    _, records = build_grid(_random_scene(seed=12, count=40), 4.0)
    books = {name: train_codebook(gather_attribute(records, name), 8, seed=0, attribute=name)
             for name in DEFAULT_ENTRIES}
    books["dc"] = train_codebook(np.random.default_rng(0).normal(size=(30, 4)), 8, seed=0)
    with pytest.raises(ValueError, match="codebook 'dc' has dim 4"):
        encode_records(records, books)


def test_empty_scene_builds_empty_grid():
    scene = Scene(
        positions=np.empty((0, 3)), scales=np.empty((0, 3)), rotations=np.empty((0, 4)),
        opacities=np.empty(0), sh=np.empty((0, 16, 3)), ids=np.empty(0, dtype=np.int64),
    )
    grid, records = build_grid(scene, 2.0)
    assert grid.nonempty_count == 0
    assert len(records) == 0 and records.offsets.tolist() == [0]


def test_every_truncation_of_a_store_file_is_a_format_error(tmp_path):
    path = tmp_path / "small.gsvx"
    save_store(VoxelStore.build(_random_scene(seed=13, count=6), 2.0), path)
    data = path.read_bytes()
    cut = tmp_path / "cut.gsvx"
    for size in range(len(data)):
        cut.write_bytes(data[:size])
        with pytest.raises(StoreFormatError):
            load_store(cut)


@pytest.mark.parametrize("attribute, field", [
    ("scale", "scale_idx"), ("rotation", "rot_idx"), ("dc", "dc_idx"), ("sh_rest", "sh_idx"),
])
@pytest.mark.parametrize("bad", ["negative", "entry_count"])
def test_out_of_range_vq_index_is_corruption_error_naming_attribute_and_voxel(
    attribute, field, bad
):
    scene = _random_scene(seed=14, count=40)
    _, records = build_grid(scene, 4.0)
    books = {name: train_codebook(gather_attribute(records, name), 8, seed=0, attribute=name)
             for name in DEFAULT_ENTRIES}
    enc = encode_records(records, books)
    idx = getattr(enc, field).copy()
    idx[-1] = -1 if bad == "negative" else books[attribute].entry_count
    setattr(enc, field, idx)
    last = len(enc) - 1
    with pytest.raises(CodebookCorruptionError,
                       match=f"{attribute} index .* in voxel {last}$"):
        stream_fine(enc, last, np.array([0]), books, TrafficLedger(), decode=True)


def _store_header(edge=2.0, origin=(0.0, 0.0, 0.0), dims=(2, 2, 2), vids=(0, 3)):
    """A GSVX header and renaming table, laid out as save_store writes them."""
    return (
        b"GSVX" + struct.pack("<HB", 1, 0) + struct.pack("<d", edge)
        + np.asarray(origin, dtype="<f8").tobytes() + np.asarray(dims, dtype="<u4").tobytes()
        + struct.pack("<I", len(vids)) + np.asarray(vids, dtype="<u4").tobytes()
    )


@pytest.mark.parametrize("header, message", [
    (_store_header(edge=float("nan")), "edge"),
    (_store_header(edge=float("inf")), "edge"),
    (_store_header(edge=0.0), "edge"),
    (_store_header(edge=-2.0), "edge"),
    (_store_header(origin=(0.0, float("nan"), 0.0)), "origin"),
    (_store_header(origin=(float("-inf"), 0.0, 0.0)), "origin"),
    (_store_header(vids=(3, 0)), "ascending"),
    (_store_header(vids=(3, 3)), "ascending"),
    (_store_header(vids=(0, 8)), "ascending below 8"),
    (_store_header(dims=(4000, 4000, 4000)), "cap"),
    (_store_header(dims=(2**32 - 1,) * 3), "cap"),
    (_store_header(dims=(2, 2, 2), vids=tuple(range(9))), "9 non-empty voxels"),
    (_store_header(vids=(0,)) + struct.pack("<I", 2**32 - 1), "truncated record payload"),
])
def test_bad_store_headers_are_format_errors(tmp_path, header, message):
    path = tmp_path / "bad.gsvx"
    path.write_bytes(header)
    with pytest.raises(StoreFormatError, match=message):
        load_store(path)


def test_grid_cap_is_shared_by_build_grid_and_the_loader():
    assert MAX_GRID_CELLS == 1 << 24
    VoxelGrid(origin=[0, 0, 0], edge=1.0, dims=[256, 256, 256])
    with pytest.raises(ValueError, match="cap"):
        VoxelGrid(origin=[0, 0, 0], edge=1.0, dims=[256, 256, 257])
    scene = _single_splat_scene([0.0, 0.0, 0.0])
    with pytest.raises(ValueError, match="cap"):
        build_grid(scene, 6.0 / 300)  # 300^3 cells over the scene's 6-unit bounds
    for edge in (float("nan"), float("inf"), 0.0):
        with pytest.raises(ValueError, match="edge"):
            build_grid(scene, edge)


def _edit_first_splat(tmp_path, column, value):
    """A saved store whose first record's first splat has float32 ``column``
    (0-3 coarse half, 4-59 fine half) replaced by the raw bits ``value``;
    returns (path, the original float32)."""
    store = VoxelStore.build(_random_scene(seed=15, count=20), 2.0)
    path = tmp_path / "edit.gsvx"
    save_store(store, path)
    data = bytearray(path.read_bytes())
    first = 55 + 4 * store.grid.nonempty_count + 4  # header, renaming table, count
    count = int(store.records.offsets[1])
    offset = first + 4 * column if column < 4 else first + 16 * count + 4 * (column - 4)
    original = np.frombuffer(bytes(data[offset : offset + 4]), dtype="<f4")[0]
    data[offset : offset + 4] = value(original).tobytes()
    path.write_bytes(bytes(data))
    return path, original


@pytest.mark.parametrize("value", [
    lambda v: np.array([np.nan], dtype="<f4"),
    lambda v: np.nextafter(np.array([v], dtype="<f4"), np.float32(0)),  # the least shrink
    lambda v: np.nextafter(np.array([v], dtype="<f4"), np.float32(np.inf)),
], ids=["nan", "shrunk", "grown"])
def test_coarse_max_scale_must_be_the_max_of_the_scales(tmp_path, value):
    path, _ = _edit_first_splat(tmp_path, 3, value)
    with pytest.raises(StoreFormatError, match="voxel 0: a coarse max scale"):
        load_store(path)


@pytest.mark.parametrize("column", [0, 3, 4, 20, 59])
def test_signalling_nan_in_a_store_is_one_format_error_without_warnings(tmp_path, column):
    path, _ = _edit_first_splat(tmp_path, column, lambda v: np.array([0x7FA00000], dtype="<u4"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(StoreFormatError):
            load_store(path)
