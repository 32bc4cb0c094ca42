import json
import multiprocessing
import os
import struct
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

import voxsplat
import voxsplat.streaming as streaming_mod
from voxsplat import Camera, Scene, load_store, save_ply
from voxsplat.cli import main
from voxsplat.errors import CodebookCorruptionError
from voxsplat.frameio import read_png
from voxsplat.scheduler import dependency_graph, traverse

from conftest import leave_rows_to_workers


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
    for mode in ("streaming", "reference"):
        out = workspace / f"{mode}.png"
        stats = workspace / f"{mode}.json"
        assert _run(["render", "--mode", mode, "--voxels", workspace / "scene.gsvx",
                     "--camera", workspace / "cam.json", "--out", out,
                     "--stats", stats, "--threads", 2]) == 0
        img = read_png(out)
        assert img.shape == (256, 256, 3)
        payload = json.loads(stats.read_text())
        if mode == "streaming":
            assert payload["intermediate_bytes"] == 0
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


def test_streaming_render_on_empty_scene(tmp_path):
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


def test_store_header_with_a_huge_grid_exits_1_with_one_line(workspace, capsys):
    """A 4000^3 grid would need a 512 GB dense id table; the loader refuses it."""
    bad = workspace / "huge.gsvx"
    good = (workspace / "scene.gsvx").read_bytes()
    # magic, version and kind (7 B), edge (8 B), origin (24 B), then the dims
    bad.write_bytes(good[:39] + np.array([4000, 4000, 4000], dtype="<u4").tobytes() + good[51:])
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


def test_dump_dag_is_the_union_of_single_tile_edges(workspace):
    dag = workspace / "edges.txt"
    assert _run(["render", "--mode", "streaming", "--voxels", workspace / "scene.gsvx",
                 "--camera", workspace / "cam.json", "--out", workspace / "frame.ppm",
                 "--dump-dag", dag]) == 0
    store = load_store(workspace / "scene.gsvx")
    camera = Camera.load(workspace / "cam.json")
    ntx, nty = camera.tile_counts
    edges = set()
    for ty in range(nty):
        for tx in range(ntx):
            (visits,) = traverse([(tx, ty)], camera, store.grid)
            nodes, src, dst = dependency_graph(visits)
            edges |= set(zip(nodes[src].tolist(), nodes[dst].tolist()))
    assert edges
    assert dag.read_text() == "".join(f"{a} {b}\n" for a, b in sorted(edges))


@pytest.mark.parametrize("threads", [0, -2])
def test_threads_below_one_exits_1_with_one_line(workspace, capsys, threads):
    for command in (["render", "--mode", "streaming", "--out", workspace / "never.png"],
                    ["compare", "--report", workspace / "never.json"]):
        capsys.readouterr()
        assert _run(command + ["--voxels", workspace / "scene.gsvx", "--camera",
                               workspace / "cam.json", "--threads", threads]) == 1
        err = capsys.readouterr().err
        assert err == f"voxsplat: threads must be at least 1, got {threads}\n"


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                    reason="needs the fork start method")
def test_codebook_error_in_a_render_worker_exits_1_with_one_line(workspace, capfd):
    def corrupt(record, *args, **kwargs):
        raise CodebookCorruptionError(f"scale index 99 out of range for 16 entries in voxel "
                                      f"{record.vid_r}")

    argv = ["render", "--mode", "streaming", "--voxels", workspace / "scene.gsvx",
            "--camera", workspace / "cam.json", "--out", workspace / "never.png",
            "--threads", 2]
    capfd.readouterr()
    # forked workers inherit the patched attributes; capfd also sees their stderr
    with mock.patch.object(streaming_mod, "stream_fine", corrupt), leave_rows_to_workers():
        assert _run(argv) == 1
    err = capfd.readouterr().err
    assert err.startswith("voxsplat: scale index 99 out of range") and err.count("\n") == 1
    assert multiprocessing.active_children() == []


def test_signalling_nan_in_a_store_exits_1_with_one_line(workspace):
    """Run as its own process, so numpy's warnings reach stderr unfiltered."""
    data = bytearray((workspace / "scene.gsvx").read_bytes())
    nonempty = struct.unpack("<I", data[51:55])[0]
    count = struct.unpack("<I", data[55 + 4 * nonempty : 59 + 4 * nonempty])[0]
    # the first splat's first higher-order SH value, in its fine half
    offset = 59 + 4 * nonempty + 16 * count + 4 * 10
    data[offset : offset + 4] = np.array([0x7FA00000], dtype="<u4").tobytes()
    bad = workspace / "snan.gsvx"
    bad.write_bytes(bytes(data))
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
