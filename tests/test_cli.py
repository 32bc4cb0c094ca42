import hashlib
import json
import os
import re
import signal
import struct
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

import voxsplat
import voxsplat.streaming as streaming_mod
import voxsplat.tileloop as tileloop
from voxsplat import (
    Camera,
    Scene,
    VoxelStore,
    cli,
    cross_boundary_stats,
    load_store,
    look_at_camera,
    render_frame_reference,
    render_frame_streaming,
    save_ply,
    save_store,
)
from voxsplat.cli import main
from voxsplat.errors import CodebookCorruptionError
from voxsplat.scheduler import traverse, visibility_key, voxel_depths
from voxsplat.traffic import BUFFER_BYTES

from conftest import (double_ply, leave_rows_to_workers, leaves_no_process_or_thread, read_png,
                      restamp, usable_cpus)
from oracles import dependency_graph_unique


def _run(argv, capsys=None):
    return main([str(a) for a in argv])


@pytest.fixture
def workspace(tmp_path):
    """gen-scene -> build-voxels pipeline shared by the CLI tests."""
    scene = tmp_path / "scene.ply"
    cam = tmp_path / "cam.json"
    store = tmp_path / "scene.gsvx"
    assert _run(["gen-scene", "--count", 150, "--seed", 4, "--constrained",
                 "--extent-fraction", "0.135", "--out", scene, "--camera-out", cam]) == 0
    assert _run(["build-voxels", "--scene", scene, "--edge", "2.0", "--out", store]) == 0
    return tmp_path


def test_full_pipeline_and_compare_report(workspace):
    books = workspace / "books.gsvq"
    report = workspace / "report.json"
    csv_path = workspace / "report.csv"
    assert _run(["train-codebook", "--voxels", workspace / "scene.gsvx",
                 "--seed", 1, "--out", books]) == 0
    assert _run(["compare", "--voxels", workspace / "scene.gsvx", "--books", books,
                 "--camera", workspace / "cam.json", "--report", report,
                 "--csv", csv_path]) == 0
    data = json.loads(report.read_text())
    assert data["psnr_vs_reference"] >= 59.0
    assert data["reductions"]["stream_intermediate_bytes"] == 0
    assert data["reductions"]["second_half_reduction"] == pytest.approx(1 - 12 / 220)
    assert data["estimate"]["bottleneck"] in data["estimate"]["stage_cycles"]
    assert data["cross_boundary"] == 0.0
    # neighbouring tiles share voxels, and the largest tile set bounds the buffer
    stream = data["stages"]["stream"]["records"]
    stream_stats = data["stream_stats"]
    assert data["reductions"]["first_half_reuse"] == (
        1 - stream["coarse-load"] / stream_stats["filter"]["loaded"]) > 0.0
    assert data["reductions"]["second_half_reuse"] == (
        1 - stream["fine-load"] / stream_stats["filter"]["coarse_survivors"]) > 0.0
    assert 16 + 12 <= stream_stats["buffer_peak_bytes"] <= stream_stats["buffer_capacity_bytes"]
    assert stream_stats["buffer_capacity_bytes"] == BUFFER_BYTES
    # a constrained scene blends each pixel's contributions in depth order
    assert data["depth_order_penalty"]["per_pixel_trace"] == 0.0
    assert data["depth_order_penalty"]["per_tile_trace"] >= 0.0
    assert data["depth_order_penalty"]["beta"] == 0.05
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "pipeline,stage,bytes,records"
    assert len(lines) == 1 + 2 * 7


def test_compare_without_books_hits_oracle_floor(workspace):
    report = workspace / "raw.json"
    assert _run(["compare", "--voxels", workspace / "scene.gsvx",
                 "--camera", workspace / "cam.json", "--report", report]) == 0
    data = json.loads(report.read_text())
    assert data["max_abs_diff"] <= 1e-4
    assert data["psnr_vs_reference"] >= 60.0 or data["psnr_vs_reference"] is None


def test_render_modes_write_images_and_stats(workspace):
    """Both modes stamp the store's scene hash.  The stats files' digests
    were re-taken when ``scene_hash`` became the store file's digest; with
    the hash blanked, each file is byte-identical to the one pinned when the
    reference renderer still hashed the scene itself.  The streaming digest
    was re-taken when the coarse radius began to follow the Jacobian's
    spectral norm: fewer coarse survivors, so fewer fine-load records and
    fine MACs in its ledger; the reference digest did not move.  It was
    re-taken again when each tile began to reuse the halves the tile before
    it held on chip: fewer coarse-load and fine-load bytes and records, and
    the stats' ``buffer_peak_bytes`` and ``reuse`` entries.  It was re-taken
    once more when the coarse margin became the proven 1 + 1.9e-5 in place
    of 1.1: fewer coarse survivors, fine-load bytes and records and fine
    MACs, and a lower ``second_half_reuse``.  It was re-taken when one 1 MiB
    buffer began to serve the whole frame in raster order: fewer coarse-load
    and fine-load bytes and records, higher reuse shares, a
    ``buffer_peak_bytes`` that is the buffer's peak occupancy, and the new
    ``buffer_capacity_bytes``."""
    digests = {
        "streaming": "2dc251a557d87e62f2e72490184483a97a8628fea7a91a9e50f30cb01af1ee5a",
        "reference": "7df3b0f688b9aca12347f47cb6a473482c97af1a8ea6746c9a9b5be9d3057ce3",
    }
    scene_hash = load_store(workspace / "scene.gsvx").scene_hash
    for mode in ("streaming", "reference"):
        out = workspace / f"{mode}.png"
        stats = workspace / f"{mode}.json"
        assert _run(["render", "--mode", mode, "--voxels", workspace / "scene.gsvx",
                     "--camera", workspace / "cam.json", "--out", out,
                     "--stats", stats, "--threads", 2]) == 0
        img = read_png(out)
        assert img.shape == (256, 256, 3)
        payload = json.loads(stats.read_text())
        assert payload["ledger"]["scene_hash"] == scene_hash
        assert hashlib.sha256(stats.read_bytes()).hexdigest() == digests[mode]
        if mode == "streaming":
            assert payload["intermediate_bytes"] == 0
            assert 0 < payload["stream"]["buffer_peak_bytes"] <= BUFFER_BYTES
            assert payload["stream"]["buffer_capacity_bytes"] == BUFFER_BYTES
            assert sorted(payload["reuse"]) == ["first_half_reuse", "second_half_reuse"]
    ppm = workspace / "frame.ppm"
    dag = workspace / "edges.txt"
    assert _run(["render", "--mode", "streaming", "--voxels", workspace / "scene.gsvx",
                 "--camera", workspace / "cam.json", "--out", ppm, "--dump-dag", dag]) == 0
    assert ppm.read_bytes().startswith(b"P6")
    for line in dag.read_text().splitlines():
        src, dst = line.split()
        assert src != dst
    assert _run(["render", "--mode", "reference", "--voxels", workspace / "scene.gsvx",
                 "--camera", workspace / "cam.json", "--out", ppm, "--dump-dag", dag]) == 1


@pytest.mark.parametrize("flags, digests", [
    (["--count", 150, "--seed", 4, "--constrained", "--extent-fraction", "0.135"], {
        "stream-1": "769e64a6801c6219ae7587a8b4fb39c156be0ce200f8a73673fe9b3e88625e7c",
        "stream-2": "769e64a6801c6219ae7587a8b4fb39c156be0ce200f8a73673fe9b3e88625e7c",
        "reference": "769e64a6801c6219ae7587a8b4fb39c156be0ce200f8a73673fe9b3e88625e7c",
        "report": "a34409d86e77a229c982bd817ab852862cbe377f78e3c692fa4d0e8037739fc9",
        "csv": "85b8a0f5f2f5773ba9e9640c4ce0286762e30c6dc9581ce442dcdd9c132c6e7c",
    }),
    (["--count", 500, "--seed", 1, "--extent-fraction", "1.0"], {
        "stream-1": "fb021d10f3b90aad94a41917642c748920369b729a0c272bc79ccc08ff599d0a",
        "stream-2": "fb021d10f3b90aad94a41917642c748920369b729a0c272bc79ccc08ff599d0a",
        "reference": "f60a339924c96114a3b8c6d03177c6b438edb649e6c2980091674d8c87d2f338",
        "report": "d06ceeda2dda5392f24e9dec284cd7d32ed89bd03b49a6b51054da72dd087485",
        "csv": "d33a74c97e4ef00b63e059474f74d5c2be0776b86b93dfb6617280d6f6da9d8f",
    }),
])
def test_frames_and_compare_report_keep_their_pinned_bits(tmp_path, flags, digests):
    """Digests taken while ``blend`` still read gathered copies of the
    projection: the float32 frames of both renderers and the bytes of the
    ``compare`` report, whose depth-order penalty comes from blend traces.
    The report digests were re-taken when ``scene_hash`` became the store
    file's digest; with the two hashes blanked, the report is byte-identical
    to the one pinned before.  The report and CSV digests were re-taken
    again when the coarse radius began to follow the Jacobian's spectral
    norm: the stream ledger's coarse survivors, fine-load bytes and records
    and fine MACs fell and the report gained ``coarse_overfetch``; the frame
    digests did not move.  The unconstrained scene's streaming frames and
    report were re-taken when tiles began to stream their voxels in
    visibility-key order: voxels that no ray orders against each other
    swapped places in some tiles, which moved its PSNR by 5e-6 dB and no
    byte of its CSV.  The report and CSV digests of both scenes were re-taken
    when each tile began to reuse the halves the tile before it held on
    chip: the stream ledger's coarse-load and fine-load bytes and records
    fell, and the report gained ``first_half_reuse``, ``second_half_reuse``
    and ``buffer_peak_bytes``; no frame digest moved.  They were re-taken
    once more when the coarse margin became the proven 1 + 1.9e-5 in place
    of 1.1: the coarse survivors, fine-load bytes and records, fine MACs and
    cycles, ``coarse_overfetch``, ``second_half_reuse``, the stream totals
    and, on the unconstrained scene, ``buffer_peak_bytes`` fell; no frame
    digest moved.  The report and CSV digests of both scenes were re-taken
    again when one 1 MiB buffer began to serve the whole frame in raster
    order: the stream ledger's coarse-load and fine-load bytes and records
    and the stream totals fell, both reuse shares rose, ``buffer_peak_bytes``
    became the buffer's peak occupancy and the stats gained
    ``buffer_capacity_bytes``; no frame digest moved.  The unconstrained
    scene blends out of depth order in tiles and pixels."""
    scene, cam, store = tmp_path / "scene.ply", tmp_path / "cam.json", tmp_path / "scene.gsvx"
    report, csv_path = tmp_path / "report.json", tmp_path / "report.csv"
    assert _run(["gen-scene", *flags, "--out", scene, "--camera-out", cam]) == 0
    assert _run(["build-voxels", "--scene", scene, "--out", store]) == 0
    assert _run(["compare", "--voxels", store, "--camera", cam, "--report", report,
                 "--csv", csv_path]) == 0
    loaded, camera = load_store(store), Camera.load(cam)
    frames = {f"stream-{threads}": render_frame_streaming(camera, loaded.grid, loaded.records,
                                                          threads=threads)[0]
              for threads in (1, 2)}
    frames["reference"] = render_frame_reference(camera, loaded.records)[0]
    got = {name: hashlib.sha256(frame.tobytes()).hexdigest() for name, frame in frames.items()}
    got["report"] = hashlib.sha256(report.read_bytes()).hexdigest()
    got["csv"] = hashlib.sha256(csv_path.read_bytes()).hexdigest()
    assert got == digests
    stages = json.loads(report.read_text())["stages"]
    assert stages["stream"]["scene_hash"] == stages["reference"]["scene_hash"] == loaded.scene_hash
    penalty = json.loads(report.read_text())["depth_order_penalty"]
    assert (penalty["per_tile_trace"] > 0) == ("--constrained" not in flags)
    assert (penalty["per_pixel_trace"] > 0) == ("--constrained" not in flags)


def test_dump_dag_of_a_reference_render_is_refused_before_any_load(tmp_path, capsys):
    """The inputs do not exist: the refusal comes before anything is read,
    rendered or written."""
    out, dag = tmp_path / "never.png", tmp_path / "never.txt"
    assert _run(["render", "--mode", "reference", "--voxels", tmp_path / "none.gsvx",
                 "--camera", tmp_path / "none.json", "--out", out, "--dump-dag", dag]) == 1
    assert capsys.readouterr().err == "voxsplat: --dump-dag applies to streaming renders only\n"
    assert not out.exists() and not dag.exists()


def test_streaming_render_on_empty_scene(tmp_path, capsys):
    empty = Scene(positions=np.empty((0, 3)), scales=np.empty((0, 3)),
                  rotations=np.empty((0, 4)), opacities=np.empty(0),
                  sh=np.empty((0, 16, 3)), ids=np.empty(0, dtype=np.int64))
    ply = tmp_path / "empty.ply"
    save_ply(empty, ply)
    store = tmp_path / "empty.gsvx"
    cam = tmp_path / "cam.json"
    from voxsplat import look_at_camera
    look_at_camera([0, 0, -5], [0, 0, 0]).save(cam)
    assert _run(["build-voxels", "--scene", ply, "--out", store]) == 0
    out = tmp_path / "empty.png"
    stats = tmp_path / "empty.json"
    assert _run(["render", "--mode", "streaming", "--voxels", store, "--camera", cam,
                 "--out", out, "--stats", stats, "--background", "0.2,0.2,0.2"]) == 0
    img = read_png(out)
    assert np.allclose(img, 51 / 255.0)
    assert json.loads(stats.read_text())["intermediate_bytes"] == 0
    capsys.readouterr()
    books = tmp_path / "empty.gsvq"
    assert _run(["train-codebook", "--voxels", store, "--out", books]) == 1
    assert capsys.readouterr().err == ("voxsplat: voxel store holds no splats; "
                                       "nothing to train on\n")
    assert not books.exists()


def test_codebook_training_is_byte_deterministic(workspace):
    b1, b2 = workspace / "b1.gsvq", workspace / "b2.gsvq"
    for out in (b1, b2):
        assert _run(["train-codebook", "--voxels", workspace / "scene.gsvx",
                     "--seed", 9, "--out", out]) == 0
    assert b1.read_bytes() == b2.read_bytes()


def test_gen_scene_rejects_zero_count(tmp_path, capsys):
    rc = _run(["gen-scene", "--count", 0, "--out", tmp_path / "x.ply"])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("voxsplat:") and err.count("\n") == 1


@pytest.mark.parametrize("argv, message", [
    (["--count", 10**12], "count must be in [1, 16777216], got 1000000000000"),
    (["--bounds", "0,0,0:nan,1,1"], "bounds must be finite float32 values"),
    (["--bounds", "0,0,0:1e300,1,1"], "bounds must be finite float32 values"),
    (["--edge", "nan"], "voxel_edge must be finite and positive, got nan"),
    (["--edge", "inf"], "voxel_edge must be finite and positive, got inf"),
    (["--bounds", "1,2:3,4"], "bounds must look like 'x0,y0,z0:x1,y1,z1', got '1,2:3,4'"),
])
def test_bad_gen_scene_input_exits_1_with_one_line(tmp_path, capsys, argv, message):
    out = tmp_path / "x.ply"
    argv = ["gen-scene", "--count", 10, *argv, "--out", out]  # a later --count wins
    assert _run(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("voxsplat: ") and message in err and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("entries", [2**40, 2**13])
def test_codebook_wider_than_its_index_exits_1_with_one_line(workspace, capsys, entries):
    out = workspace / "wide.gsvq"
    capsys.readouterr()
    assert _run(["train-codebook", "--voxels", workspace / "scene.gsvx", "--entries",
                 f"scale={entries}", "--out", out]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"voxsplat: scale codebook of {entries} entries exceeds its 12-bit")
    assert err.count("\n") == 1 and not out.exists()


@pytest.mark.parametrize("entries, message", [
    ("sh=500", "sh_rest codebook entry count 500 is not a power of two"),
    ("scale=0", "scale codebook entry count 0 is not a power of two"),
    ("foo", "bad entries item 'foo'"),
    ("", "bad entries item ''"),
])
def test_bad_entries_exit_1_with_one_line_before_any_book_trains(workspace, capsys, entries,
                                                                  message):
    out = workspace / "odd.gsvq"
    capsys.readouterr()
    with mock.patch.object(voxsplat.vq, "kmeans_pp_init") as seeding:
        assert _run(["train-codebook", "--voxels", workspace / "scene.gsvx", "--entries",
                     entries, "--out", out]) == 1
    seeding.assert_not_called()
    assert capsys.readouterr().err == f"voxsplat: {message}\n"
    assert not out.exists()


def test_missing_input_file_is_error(tmp_path, capsys):
    rc = _run(["build-voxels", "--scene", tmp_path / "nope.ply", "--out", tmp_path / "v.gsvx"])
    assert rc == 1
    assert "voxsplat:" in capsys.readouterr().err


@pytest.mark.parametrize("flag, payload", [("--voxels", b"GSVX\x01"), ("--books", b"GSVQ\x01\x00")])
def test_truncated_store_and_codebook_headers_exit_1_with_one_line(
    workspace, capsys, flag, payload
):
    bad = workspace / "bad.bin"
    bad.write_bytes(payload)
    # the bad file comes last, so it wins over the good --voxels
    argv = ["render", "--mode", "streaming", "--voxels", workspace / "scene.gsvx",
            "--camera", workspace / "cam.json", "--out", workspace / "never.png", flag, bad]
    capsys.readouterr()
    assert _run(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("voxsplat: truncated ") and err.count("\n") == 1


def test_a_reference_render_never_reads_books(workspace, capsys):
    bad = workspace / "bad.gsvq"
    bad.write_bytes(b"GSVQ\x01")
    argv = ["render", "--voxels", workspace / "scene.gsvx", "--camera", workspace / "cam.json"]
    plain, with_books = workspace / "plain.png", workspace / "with_books.png"
    assert _run([*argv, "--mode", "reference", "--out", plain]) == 0
    assert _run([*argv, "--mode", "reference", "--out", with_books, "--books", bad]) == 0
    assert with_books.read_bytes() == plain.read_bytes()
    capsys.readouterr()
    assert _run([*argv, "--mode", "streaming", "--out", workspace / "never.png",
                 "--books", bad]) == 1
    assert capsys.readouterr().err == "voxsplat: truncated codebook header\n"
    assert not (workspace / "never.png").exists()


def test_store_header_with_a_huge_grid_exits_1_with_one_line(workspace, capsys):
    """A 4000^3 grid would need a 512 GB dense id table; the loader refuses it."""
    bad = workspace / "huge.gsvx"
    good = (workspace / "scene.gsvx").read_bytes()
    # magic, version and kind (7 B), edge (8 B), origin (24 B), then the dims
    bad.write_bytes(restamp(good[:39] + np.array([4000, 4000, 4000], dtype="<u4").tobytes()
                            + good[51:]))
    argv = ["render", "--mode", "streaming", "--voxels", bad,
            "--camera", workspace / "cam.json", "--out", workspace / "never.png"]
    capsys.readouterr()
    assert _run(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("voxsplat: bad voxel-store header: ") and err.count("\n") == 1
    assert "cap" in err


def test_build_voxels_on_a_bad_ply_exits_1_with_one_line(workspace, capsys):
    good = (workspace / "scene.ply").read_bytes()
    bad = workspace / "bad.ply"
    for data, message in [
        (good.replace(b"property float nx\n", b"property\n", 1), "malformed property line"),
        (good[:-1], "truncated vertex payload"),
    ]:
        bad.write_bytes(data)
        capsys.readouterr()
        assert _run(["build-voxels", "--scene", bad, "--out", workspace / "bad.gsvx"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("voxsplat: ") and message in err and err.count("\n") == 1


@pytest.mark.parametrize("xs, message", [
    ([1e308, -1e308], "splat positions, or values past the float32 range a store holds"),
    ([1e300, 1e300], "splat positions, or values past the float32 range a store holds"),
    ([3e38, -3e38], "fit no grid within the cap of 16777216 voxels"),
])
def test_build_voxels_on_extreme_ply_coordinates_exits_1_with_one_line(tmp_path, capsys, xs,
                                                                       message):
    double_ply(tmp_path / "far.ply", xs)
    out = tmp_path / "far.gsvx"
    assert _run(["build-voxels", "--scene", tmp_path / "far.ply", "--out", out]) == 1
    err = capsys.readouterr().err
    assert err.startswith("voxsplat: ") and message in err and err.count("\n") == 1
    assert not out.exists()


def test_dump_dag_is_the_union_of_single_tile_edges(workspace):
    """The dump is the union of every tile's graph as the oracle builds it,
    and the dump walks the rays one whole tile row at a time."""
    dag = workspace / "edges.txt"
    with mock.patch.object(cli, "traverse", wraps=traverse) as walk:
        assert _run(["render", "--mode", "streaming", "--voxels", workspace / "scene.gsvx",
                     "--camera", workspace / "cam.json", "--out", workspace / "frame.ppm",
                     "--dump-dag", dag]) == 0
    store = load_store(workspace / "scene.gsvx")
    camera = Camera.load(workspace / "cam.json")
    ntx, nty = camera.tile_counts
    assert [sorted(call.args[0]) for call in walk.call_args_list] == [
        [(tx, ty) for tx in range(ntx)] for ty in range(nty)]
    edges = set()
    for ty in range(nty):
        for tx in range(ntx):
            nodes, src, dst = dependency_graph_unique(traverse([(tx, ty)], camera, store.grid))
            edges |= set(zip(nodes[src].tolist(), nodes[dst].tolist()))
    assert edges
    assert dag.read_text() == "".join(f"{a} {b}\n" for a, b in sorted(edges))


@pytest.mark.parametrize("flags", [
    ["--count", 150, "--seed", 4, "--constrained", "--extent-fraction", "0.135"],
    ["--count", 500, "--seed", 1, "--extent-fraction", "1.0"],
])
def test_every_dumped_edge_runs_forward_in_the_frame_key(tmp_path, flags):
    """Each 'src dst' line of ``--dump-dag`` puts src before dst in the
    frame's visibility key, so every tile's schedule keeps it."""
    scene, cam, store, dag = (tmp_path / name for name in
                              ("scene.ply", "cam.json", "scene.gsvx", "edges.txt"))
    assert _run(["gen-scene", *flags, "--out", scene, "--camera-out", cam]) == 0
    assert _run(["build-voxels", "--scene", scene, "--out", store]) == 0
    assert _run(["render", "--mode", "streaming", "--voxels", store, "--camera", cam,
                 "--out", tmp_path / "frame.ppm", "--dump-dag", dag]) == 0
    grid, camera = load_store(store).grid, Camera.load(cam)
    key = visibility_key(camera, grid, voxel_depths(camera, grid))
    edges = np.array([line.split() for line in dag.read_text().splitlines()], dtype=np.int64)
    assert len(edges) > 100
    assert np.all(key[edges[:, 0]] < key[edges[:, 1]])


@pytest.mark.parametrize("width", [0, -16])
def test_camera_narrower_than_a_tile_exits_1_with_one_line(workspace, capsys, width):
    cam = json.loads((workspace / "cam.json").read_text())
    cam["width"] = width
    bad = workspace / "narrow.json"
    bad.write_text(json.dumps(cam))
    out = workspace / "never.png"
    capsys.readouterr()
    assert _run(["render", "--mode", "streaming", "--voxels", workspace / "scene.gsvx",
                 "--camera", bad, "--out", out]) == 1
    err = capsys.readouterr().err
    assert err.startswith("voxsplat: image size ") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("edit, message", [
    (lambda cam: {}, "camera JSON is missing 'world_to_camera'"),
    (lambda cam: [1, 2], "camera JSON must be an object, not list"),
    (lambda cam: {**cam, "fx": float("nan")}, "camera fx must be finite and positive"),
    (lambda cam: {**cam, "near": float("nan")}, "camera near must be finite and positive"),
    (lambda cam: {**cam, "width": 1600000, "height": 1600000}, "exceeds the cap of 16777216"),
    (lambda cam: {**cam, "world_to_camera": {**cam["world_to_camera"],
                                             "translation": [0, 0, float("inf")]}},
     "camera translation must be finite"),
    (lambda cam: {**cam, "fx": 1e300}, "camera fx must be finite and positive and in [0.001, 1e+06]"),
    (lambda cam: {**cam, "cx": 1e300}, "camera cx must be finite and in [-1e+07, 1e+07]"),
    (lambda cam: {**cam, "world_to_camera": {**cam["world_to_camera"],
                                             "translation": [0, 0, 1e300]}},
     "camera translation must be finite and in [-1e+09, 1e+09]"),
    (lambda cam: {**cam, "world_to_camera": {**cam["world_to_camera"],
                                             "rotation": [[1e300, 0, 0], [0, 1, 0], [0, 0, 1]]}},
     "world-to-camera rotation is not orthonormal"),
    (lambda cam: {**cam, "width": "256"}, "camera width must hold JSON numbers only, got '256'"),
    (lambda cam: {**cam, "width": 256.9}, "camera width must be an integer, got 256.9"),
    (lambda cam: {**cam, "fx": True}, "camera fx must hold JSON numbers only, got True"),
    (lambda cam: {**cam, "near": "0.1"}, "camera near must hold JSON numbers only"),
    (lambda cam: {**cam, "world_to_camera": {**cam["world_to_camera"],
                                             "rotation": [["1", 0, 0], [0, 1, 0], [0, 0, 1]]}},
     "camera rotation must hold JSON numbers only"),
    (lambda cam: {**cam, "world_to_camera": {**cam["world_to_camera"],
                                             "translation": [0, 0, "10"]}},
     "camera translation must hold JSON numbers only"),
])
def test_bad_camera_json_exits_1_with_one_line(workspace, capfd, edit, message):
    """Run as its own process, so a numpy warning or a traceback would show."""
    bad = workspace / "bad.json"
    bad.write_text(json.dumps(edit(json.loads((workspace / "cam.json").read_text()))))
    src = str(Path(voxsplat.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, "-m", "voxsplat.cli", "render", "--mode", "streaming", "--voxels",
         workspace / "scene.gsvx", "--camera", bad, "--out", workspace / "never.png"],
        capture_output=True, text=True, env=env, check=False,
    )
    assert proc.returncode == 1
    assert proc.stderr.startswith("voxsplat: ") and message in proc.stderr
    assert proc.stderr.count("\n") == 1
    assert not (workspace / "never.png").exists()


@pytest.mark.parametrize("background, message", [
    ("nan,0,0", "background values must be finite, got 'nan,0,0'"),
    ("1,2", "background needs three comma-separated values"),
    # finite, but the float32 frame would hold inf
    ("1e39,0,0", "background values must fit float32, got '1e39,0,0'"),
    ("0.1,abc,3", "background values must be numbers, got '0.1,abc,3'"),
])
def test_non_finite_background_is_rejected(workspace, capsys, background, message):
    capsys.readouterr()
    assert _run(["render", "--mode", "streaming", "--voxels", workspace / "scene.gsvx",
                 "--camera", workspace / "cam.json", "--out", workspace / "never.png",
                 "--background", background]) == 1
    assert capsys.readouterr().err == f"voxsplat: argument --background: {message}\n"
    assert not (workspace / "never.png").exists()


def test_a_negative_background_needs_the_equals_form(workspace, capsys):
    """argparse reads a value starting with '-' as an option; ``--help``
    shows the form that works."""
    argv = ["render", "--mode", "reference", "--voxels", workspace / "scene.gsvx",
            "--camera", workspace / "cam.json", "--out", workspace / "frame.png"]
    capsys.readouterr()
    assert _run(argv + ["--background", "-5,2,0.5"]) == 1
    assert capsys.readouterr().err == "voxsplat: argument --background: expected one argument\n"
    assert not (workspace / "frame.png").exists()
    assert _run(argv + ["--background=-5,2,0.5"]) == 0
    assert (workspace / "frame.png").exists()
    for command in ("render", "compare"):
        with pytest.raises(SystemExit):
            _run([command, "--help"])
        assert "--background=-5,2,0.5" in capsys.readouterr().out


@pytest.mark.parametrize("out", ["frame.bmp", "frame", "frame.png.gz", "frame.PNG"])
def test_render_refuses_other_image_suffixes_before_loading(workspace, capsys, out):
    """The store does not exist: the suffix is checked before anything loads."""
    capsys.readouterr()
    assert _run(["render", "--mode", "streaming", "--voxels", workspace / "missing.gsvx",
                 "--camera", workspace / "cam.json", "--out", workspace / out]) == 1
    assert capsys.readouterr().err == (
        f"voxsplat: --out must name a .png or .ppm file, got {str(workspace / out)!r}\n")
    assert not (workspace / out).exists()


def test_unknown_log_level_exits_1_with_one_line(tmp_path):
    """Run as its own process, so a traceback would show; ``--help`` alone
    would exit 0."""
    src = str(Path(voxsplat.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]),
           "VOXSPLAT_LOG": "bogus"}
    proc = subprocess.run([sys.executable, "-m", "voxsplat.cli", "--help"], capture_output=True,
                          text=True, env=env, cwd=tmp_path, check=False)
    assert proc.returncode == 1
    assert proc.stderr == "voxsplat: Unknown level: 'BOGUS'\n"
    assert proc.stdout == ""


def test_compare_encodes_once_and_builds_only_the_scene_load_store_checks(workspace):
    """Both renderers read the store's records: the one ``Scene`` built is
    the one ``load_store`` validates the loaded values with."""
    books = workspace / "books.gsvq"
    assert _run(["train-codebook", "--voxels", workspace / "scene.gsvx", "--entries",
                 "scale=16,rot=16,dc=16,sh=16", "--out", books]) == 0
    calls = {"encode": 0, "scene": 0, "scene in load_store": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def loading(path):
        before = calls["scene"]
        store = load_store(path)
        calls["scene in load_store"] += calls["scene"] - before
        return store

    with mock.patch.object(VoxelStore, "encode", counted("encode", VoxelStore.encode)), \
            mock.patch.object(Scene, "__post_init__", counted("scene", Scene.__post_init__)), \
            mock.patch.object(cli, "load_store", loading):
        assert _run(["compare", "--voxels", workspace / "scene.gsvx", "--books", books,
                     "--camera", workspace / "cam.json",
                     "--report", workspace / "report.json"]) == 0
    assert calls == {"encode": 1, "scene": 1, "scene in load_store": 1}


def test_compare_on_a_splat_saved_onto_its_voxels_far_face(tmp_path):
    """A float64 position 1e-10 below the far face of its voxel is saved as
    float32 exactly on that face.  ``cross_boundary`` measures it against the
    voxel holding its record, not the cell its position falls in, which lies
    outside this one-voxel grid."""
    scene = Scene(positions=[[0.5, 0.5, 0.5], [2.0 - 1e-10, 1.0, 1.0]],
                  scales=np.full((2, 3), 0.05), rotations=[[1.0, 0.0, 0.0, 0.0]] * 2,
                  opacities=[0.8, 0.8], sh=np.full((2, 16, 3), 0.1), ids=[0, 1])
    store, cam, report = tmp_path / "face.gsvx", tmp_path / "cam.json", tmp_path / "report.json"
    save_store(VoxelStore.build(scene, 2.0), store)
    look_at_camera([1.0, 1.0, -6.0], [1.0, 1.0, 1.0], width=32, height=32, focal=40.0).save(cam)
    loaded = load_store(store)
    assert loaded.grid.dims.tolist() == [1, 1, 1] and loaded.records.positions[1, 0] == 2.0
    assert _run(["compare", "--voxels", store, "--camera", cam, "--report", report]) == 0
    assert json.loads(report.read_text())["cross_boundary"] == 0.5
    stats = cross_boundary_stats(loaded.grid, loaded.records)
    assert stats["per_voxel"] == {0: 1} and stats["crossing"] == 1


@pytest.mark.parametrize("threads, message", [
    (0, "threads must be at least 1, got 0"),
    (-2, "threads must be at least 1, got -2"),
    ("x", "argument --threads: invalid int value: 'x'"),
])
def test_threads_below_one_exits_1_with_one_line(workspace, capsys, threads, message):
    for command in (["render", "--mode", "streaming", "--out", workspace / "never.png"],
                    ["compare", "--report", workspace / "never.json"]):
        capsys.readouterr()
        assert _run(command + ["--voxels", workspace / "scene.gsvx", "--camera",
                               workspace / "cam.json", "--threads", threads]) == 1
        err = capsys.readouterr().err
        assert err == f"voxsplat: {message}\n"


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_codebook_error_in_a_render_worker_exits_1_with_one_line(workspace, capfd):
    def corrupt(records, vids, *args, **kwargs):
        raise CodebookCorruptionError(f"scale index 99 out of range for 16 entries in voxel "
                                      f"{vids[0]}")

    argv = ["render", "--mode", "streaming", "--voxels", workspace / "scene.gsvx",
            "--camera", workspace / "cam.json", "--out", workspace / "never.png",
            "--threads", 2]
    capfd.readouterr()
    # forked workers inherit the patched attributes; capfd also sees their stderr
    with leaves_no_process_or_thread(), mock.patch.object(streaming_mod, "stream_fine", corrupt), \
            leave_rows_to_workers():
        assert _run(argv) == 1
    err = capfd.readouterr().err
    assert err.startswith("voxsplat: scale index 99 out of range") and err.count("\n") == 1


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_a_render_worker_killed_by_a_signal_exits_1_with_one_line(workspace, capfd):
    parent, drain = os.getpid(), tileloop._drain

    def killed_in_worker(state):
        if os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return drain(state)

    argv = ["render", "--mode", "streaming", "--voxels", workspace / "scene.gsvx",
            "--camera", workspace / "cam.json", "--out", workspace / "never.png",
            "--threads", 2]
    capfd.readouterr()
    with leaves_no_process_or_thread(), usable_cpus(2), \
            mock.patch.object(tileloop, "_drain", killed_in_worker):
        assert _run(argv) == 1
    err = capfd.readouterr().err
    assert re.fullmatch(r"voxsplat: render worker \d+ exited without a result "
                        rf"\(wait status {int(signal.SIGKILL)}\)\n", err)
    assert not (workspace / "never.png").exists()


def test_signalling_nan_in_a_store_exits_1_with_one_line(workspace):
    """Run as its own process, so numpy's warnings reach stderr unfiltered."""
    data = bytearray((workspace / "scene.gsvx").read_bytes())
    nonempty = struct.unpack("<I", data[51:55])[0]
    count = (len(data) - 55 - 8 * nonempty - 32) // 244
    # the first splat's first higher-order SH value, in the fine block
    offset = 55 + 8 * nonempty + 16 * count + 4 * 10
    data[offset : offset + 4] = np.array([0x7FA00000], dtype="<u4").tobytes()
    bad = workspace / "snan.gsvx"
    bad.write_bytes(restamp(data))
    src = str(Path(voxsplat.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, "-m", "voxsplat.cli", "render", "--mode", "streaming", "--voxels", bad,
         "--camera", workspace / "cam.json", "--out", workspace / "never.png"],
        capture_output=True, text=True, env=env, check=False,
    )
    assert proc.returncode == 1
    assert proc.stderr.startswith("voxsplat: invalid splat values: ")
    assert proc.stderr.count("\n") == 1
