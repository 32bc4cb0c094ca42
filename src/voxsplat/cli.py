"""Command-line front door: scene generation, voxelization, codebook training,
rendering, and the side-by-side pipeline comparison report."""

from __future__ import annotations

import argparse
import csv
import json
import logging
import os
import sys
from dataclasses import asdict

import numpy as np

from . import frameio
from .errors import VoxsplatError
from .metrics import CBP_BETA_DEFAULT, cbp_loss, cross_boundary_stats, psnr
from .reference import render_frame_reference, traffic_breakdown
from .scene import Aabb, Camera, generate_scene, load_ply, look_at_camera, save_ply
from .scheduler import TileVisits, dump_edges, traverse
from .traffic import PerfConfig, TrafficLedger, compare_pipelines, counts_from_stats, estimate
from .streaming import render_frame_streaming, render_tile_streaming
from .voxelstore import VoxelStore, load_store, save_store, scene_from_records, gather_attribute
from .vq import DEFAULT_ENTRIES, load_codebooks, save_codebooks, train_codebook

log = logging.getLogger("voxsplat")


def _parse_bounds(text: str) -> Aabb:
    try:
        lo_s, hi_s = text.split(":")
        lo = [float(v) for v in lo_s.split(",")]
        hi = [float(v) for v in hi_s.split(",")]
        return Aabb(lo, hi)
    except (ValueError, IndexError):
        raise argparse.ArgumentTypeError(f"bounds must look like 'x0,y0,z0:x1,y1,z1', got {text!r}")


def _parse_rgb(text: str):
    parts = [float(v) for v in text.split(",")]
    if len(parts) != 3:
        raise argparse.ArgumentTypeError("background needs three comma-separated values")
    return tuple(parts)


def _parse_entries(text: str) -> dict[str, int]:
    alias = {"scale": "scale", "rot": "rotation", "rotation": "rotation", "dc": "dc",
             "sh": "sh_rest", "sh_rest": "sh_rest"}
    entries = dict(DEFAULT_ENTRIES)
    for part in text.split(","):
        key, _, val = part.partition("=")
        if key not in alias or not val:
            raise argparse.ArgumentTypeError(f"bad entries item {part!r}")
        entries[alias[key]] = int(val)
    return entries


def cmd_gen_scene(args) -> int:
    scene = generate_scene(
        count=args.count,
        bounds=args.bounds,
        seed=args.seed,
        max_extent_fraction=args.extent_fraction,
        voxel_edge=args.edge,
        constrained=args.constrained,
    )
    save_ply(scene, args.out)
    log.info("wrote %d splats to %s", len(scene), args.out)
    if args.camera_out:
        center = (scene.bounds.lo + scene.bounds.hi) / 2.0
        extent = float(np.max(scene.bounds.extent))
        eye = center - np.array([0.0, 0.0, extent + 2.0])
        look_at_camera(eye, center).save(args.camera_out)
        log.info("wrote default camera to %s", args.camera_out)
    return 0


def cmd_build_voxels(args) -> int:
    scene = load_ply(args.scene)
    store = VoxelStore.build(scene, args.edge)
    save_store(store, args.out)
    occ = store.occupancy()
    print(
        f"{occ['gaussians']} splats in {occ['nonempty']}/{occ['voxels']} voxels "
        f"(per-voxel min {occ['min_per_voxel']}, max {occ['max_per_voxel']})"
    )
    return 0


def cmd_train_codebook(args) -> int:
    store = load_store(args.voxels)
    books = {}
    for name, k in _parse_entries(args.entries).items():
        vectors = gather_attribute(store.records, name)
        if len(vectors) == 0:
            raise VoxsplatError("voxel store holds no splats; nothing to train on")
        books[name] = train_codebook(vectors, k, seed=args.seed, attribute=name)
        log.info("%s: %d entries, mse %.3e, padded=%s", name, k, books[name].mse,
                 books[name].padded)
    save_codebooks(books, args.out)
    return 0


def _render_streaming(store, books, camera, background, threads):
    """Streaming frame of ``store``, whose records are already encoded when
    ``books`` is given."""
    return render_frame_streaming(
        camera,
        store.grid,
        store.records,
        books,
        background=background,
        threads=threads,
        scene_hash=store.scene_hash,
    )


def _dump_dag(path, store, camera) -> None:
    """Union of the per-tile dependency edges, one 'src dst' line each."""
    ntx, nty = camera.tile_counts
    walks = [
        visits
        for ty in range(nty)
        for visits in traverse([(tx, ty) for tx in range(ntx)], camera, store.grid)
    ]
    # rays are independent, so the tiles' walks concatenate into one
    text = dump_edges(TileVisits(*map(np.concatenate, zip(*walks))))
    with open(path, "w", encoding="utf-8") as f:
        f.write(text + "\n" if text else "")


def _cbp_diagnostics(store, books, camera, background) -> dict:
    """Depth-order penalty over sampled tile and center-pixel blend traces;
    ``store`` is encoded as for ``_render_streaming``."""
    ntx, nty = camera.tile_counts
    tile_vals, pixel_vals = [], []
    center = 8 * 16 + 8
    for ty in range(2, nty, 4):
        for tx in range(2, ntx, 4):
            tile_trace: list = []
            px_trace: list = []
            render_tile_streaming(
                (tx, ty), camera, store.grid, store.records, books, TrafficLedger(),
                background=background, trace=tile_trace, pixel_trace=(center, px_trace),
            )
            tile_vals.append(cbp_loss(tile_trace))
            pixel_vals.append(cbp_loss(px_trace))
    per_tile = float(np.mean(tile_vals)) if tile_vals else 0.0
    per_pixel = float(np.mean(pixel_vals)) if pixel_vals else 0.0
    return {
        "per_tile_trace": per_tile,
        "per_pixel_trace": per_pixel,
        "beta": CBP_BETA_DEFAULT,
        "beta_weighted_per_tile": CBP_BETA_DEFAULT * per_tile,
    }


def cmd_render(args) -> int:
    store = load_store(args.voxels)
    books = load_codebooks(args.books) if args.books else None
    camera = Camera.load(args.camera)
    if args.mode == "reference":
        scene = scene_from_records(store.grid, store.records)
        frame, ledger = render_frame_reference(
            camera, scene, background=args.background, threads=args.threads
        )
        stats = None
    else:
        streamed = store if books is None else store.encode(books)
        frame, ledger, stats = _render_streaming(
            streamed, books, camera, args.background, args.threads
        )
    if args.dump_dag:
        if args.mode != "streaming":
            raise VoxsplatError("--dump-dag applies to streaming renders only")
        _dump_dag(args.dump_dag, store, camera)
    if args.out.endswith(".ppm"):
        frameio.write_ppm(args.out, frame)
    else:
        frameio.write_png(args.out, frame)
    log.info("wrote %s", args.out)
    if args.stats:
        payload = {
            "mode": args.mode,
            "ledger": ledger.as_dict(),
            "intermediate_bytes": ledger.intermediate_bytes,
        }
        if stats is not None:
            payload["stream"] = stats.as_dict()
        with open(args.stats, "w", encoding="utf-8") as f:
            json.dump(payload, f, indent=2)
    return 0


def cmd_compare(args) -> int:
    store = load_store(args.voxels)
    books = load_codebooks(args.books) if args.books else None
    camera = Camera.load(args.camera)
    streamed = store if books is None else store.encode(books)
    scene = scene_from_records(store.grid, store.records)
    stream_frame, stream_ledger, stream_stats = _render_streaming(
        streamed, books, camera, args.background, args.threads
    )
    ref_frame, ref_ledger = render_frame_reference(
        camera, scene, background=args.background, threads=args.threads
    )
    report = {
        "psnr_vs_reference": psnr(stream_frame, ref_frame),
        "max_abs_diff": float(np.max(np.abs(stream_frame - ref_frame))),
        "stages": {
            "stream": stream_ledger.as_dict(),
            "reference": ref_ledger.as_dict(),
        },
        "macs": stream_ledger.macs,
        "reductions": compare_pipelines(stream_ledger, ref_ledger, stream_stats.filter),
        "reference_breakdown": traffic_breakdown(ref_ledger),
        "estimate": asdict(
            estimate(PerfConfig(), stream_stats.filter, counts_from_stats(stream_stats.filter))
        ),
        "config": asdict(PerfConfig()),
        "stream_stats": stream_stats.as_dict(),
        "cross_boundary": cross_boundary_stats(scene, store.grid)["ratio"],
        "depth_order_penalty": _cbp_diagnostics(streamed, books, camera, args.background),
    }
    with open(args.report, "w", encoding="utf-8") as f:
        json.dump(report, f, indent=2)
    if args.csv:
        with open(args.csv, "w", newline="", encoding="utf-8") as f:
            writer = csv.writer(f)
            writer.writerow(["pipeline", "stage", "bytes", "records"])
            for name, ledger in (("stream", stream_ledger), ("reference", ref_ledger)):
                for stage in ledger.bytes:
                    writer.writerow([name, stage, ledger.bytes[stage], ledger.records[stage]])
    psnr_db = report["psnr_vs_reference"]
    print(f"psnr_vs_reference={psnr_db:.2f}dB stream_intermediate_bytes="
          f"{stream_ledger.intermediate_bytes}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="voxsplat")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-scene", help="write a procedural splat point cloud")
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--bounds", type=_parse_bounds, default=_parse_bounds("-8,-8,-2:8,8,2"))
    p.add_argument("--edge", type=float, default=2.0, help="voxel edge the scene targets")
    p.add_argument("--extent-fraction", type=float, default=0.4)
    p.add_argument("--constrained", action="store_true",
                   help="keep every splat well inside its voxel (oracle regime)")
    p.add_argument("--out", required=True)
    p.add_argument("--camera-out", default=None, help="also write a framing camera JSON")
    p.set_defaults(func=cmd_gen_scene)

    p = sub.add_parser("build-voxels", help="partition a point cloud into a voxel store")
    p.add_argument("--scene", required=True)
    p.add_argument("--edge", type=float, default=2.0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_build_voxels)

    p = sub.add_parser("train-codebook", help="train per-attribute codebooks from a store")
    p.add_argument("--voxels", required=True)
    p.add_argument("--entries", default="scale=4096,rot=4096,dc=4096,sh=512")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train_codebook)

    p = sub.add_parser("render", help="render one frame")
    p.add_argument("--mode", choices=("streaming", "reference"), required=True)
    p.add_argument("--voxels", required=True)
    p.add_argument("--books", default=None)
    p.add_argument("--camera", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--stats", default=None)
    p.add_argument("--background", type=_parse_rgb, default=(0.0, 0.0, 0.0))
    p.add_argument("--threads", type=int, default=1,
                   help="worker processes, at most one per CPU and per tile row")
    p.add_argument("--dump-dag", default=None,
                   help="write the per-tile voxel dependency edges ('src dst' lines)")
    p.set_defaults(func=cmd_render)

    p = sub.add_parser("compare", help="render both pipelines and write a report")
    p.add_argument("--voxels", required=True)
    p.add_argument("--books", default=None)
    p.add_argument("--camera", required=True)
    p.add_argument("--report", required=True)
    p.add_argument("--csv", default=None)
    p.add_argument("--background", type=_parse_rgb, default=(0.0, 0.0, 0.0))
    p.add_argument("--threads", type=int, default=1,
                   help="worker processes, at most one per CPU and per tile row")
    p.set_defaults(func=cmd_compare)
    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=os.environ.get("VOXSPLAT_LOG", "WARNING").upper())
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (VoxsplatError, ValueError, OSError, RuntimeError) as exc:
        print(f"voxsplat: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
