"""Command-line front door: scene generation, voxelization, codebook training,
rendering, and the side-by-side pipeline comparison report."""

from __future__ import annotations

import argparse
import csv
import json
import logging
import math
import os
import sys
from dataclasses import asdict

import numpy as np

from . import frameio
from .blending import blend
from .errors import VoxsplatError
from .filtering import ProjectionCache
from .metrics import CBP_BETA_DEFAULT, cbp_loss, cross_boundary_stats, psnr
from .reference import render_frame_reference, traffic_breakdown
from .scene import (TILE_EDGE, Aabb, Camera, generate_scene, load_ply, look_at_camera, save_ply,
                    tile_pixels)
from .scheduler import traverse, visibility_key, voxel_depths
from .traffic import PerfConfig, buffer_reuse, compare_pipelines, counts_from_stats, estimate
from .streaming import render_frame_streaming, render_tile_streaming
from .voxelstore import VoxelStore, gather_attribute, load_store, save_store, stream_fine
from .vq import (DEFAULT_ENTRIES, check_entry_count, load_codebooks, save_codebooks,
                 train_codebook)

log = logging.getLogger("voxsplat")


def _parse_bounds(text: str) -> Aabb:
    try:
        lo, hi = ([float(v) for v in corner.split(",")] for corner in text.split(":"))
        if len(lo) == len(hi) == 3:
            return Aabb(lo, hi)
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"bounds must look like 'x0,y0,z0:x1,y1,z1', got {text!r}")


def _parse_rgb(text: str):
    try:
        parts = [float(v) for v in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"background values must be numbers, got {text!r}") from None
    if len(parts) != 3:
        raise argparse.ArgumentTypeError("background needs three comma-separated values")
    if not all(math.isfinite(v) for v in parts):
        raise argparse.ArgumentTypeError(f"background values must be finite, got {text!r}")
    if not all(abs(v) <= float(np.finfo(np.float32).max) for v in parts):  # the frame is float32
        raise argparse.ArgumentTypeError(f"background values must fit float32, got {text!r}")
    return tuple(parts)


def _parse_entries(text: str) -> dict[str, int]:
    alias = {"scale": "scale", "rot": "rotation", "rotation": "rotation", "dc": "dc",
             "sh": "sh_rest", "sh_rest": "sh_rest"}
    entries = dict(DEFAULT_ENTRIES)
    for part in text.split(","):
        key, _, val = part.partition("=")
        if key not in alias or not val:
            raise ValueError(f"bad entries item {part!r}")
        entries[alias[key]] = int(val)
    for name, k in entries.items():  # every book, before the first one trains
        check_entry_count(name, k)
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
    entries = _parse_entries(args.entries)
    store = load_store(args.voxels)
    books = {}
    for name, k in entries.items():
        vectors = gather_attribute(store.records, name)
        if len(vectors) == 0:
            raise VoxsplatError("voxel store holds no splats; nothing to train on")
        books[name] = train_codebook(vectors, k, seed=args.seed, attribute=name)
        log.info("%s: %d entries, mse %.3e, padded=%s", name, k, books[name].mse,
                 books[name].padded)
    save_codebooks(books, args.out)
    return 0


def _dump_dag(path, store, camera) -> None:
    """Every distinct pair of consecutive non-empty voxels on a pixel ray, the
    orders each tile's schedule extends, as one 'src dst' line of renamed ids
    in ascending order; the rays are walked one tile row at a time, as the
    render does."""
    grid, n = store.grid, store.grid.nonempty_count
    ntx, nty = camera.tile_counts
    codes = []
    for ty in range(nty):
        visits = traverse([(tx, ty) for tx in range(ntx)], camera, grid)
        ray = np.repeat(np.arange(visits.counts.size), visits.counts.ravel())
        same = ray[1:] == ray[:-1]
        codes.append(np.unique(visits.ids[:-1][same] * n + visits.ids[1:][same]))
    src, dst = np.divmod(np.unique(np.concatenate(codes)), n)
    with open(path, "w", encoding="utf-8") as f:
        f.writelines(f"{a} {b}\n" for a, b in zip(src.tolist(), dst.tolist()))


def _pixel_trace(batch, rows, center) -> list[int]:
    """The rows of ``rows`` that reach the pixel at ``center``: blended into
    it alone, a row per ``blend`` call, the ones that lower its transmittance."""
    color, transmittance, reached = np.zeros((1, 1, 3)), np.ones((1, 1)), []
    for row in rows:
        before = transmittance[0, 0]
        blend(batch, np.array([row]), [0, 1], center.reshape(1, 1, 2), color, transmittance)
        if transmittance[0, 0] < before:
            reached.append(row)
    return reached


def _cbp_diagnostics(store, books, camera) -> dict:
    """Depth-order penalty over sampled tile and center-pixel blend traces,
    all sampled tiles rendered in one call; ``store``'s records are already
    encoded when ``books`` is given."""
    ntx, nty = camera.tile_counts
    tiles = [(tx, ty) for ty in range(2, nty, 4) for tx in range(2, ntx, 4)]
    grid, records = store.grid, store.records
    key = visibility_key(camera, grid, voxel_depths(camera, grid))
    cache = ProjectionCache(camera, key, records.offsets)
    tile_traces = [[] for _ in tiles]
    render_tile_streaming(tiles, camera, grid, records, books, trace=tile_traces, cache=cache)
    centers = tile_pixels(tiles)[:, TILE_EDGE // 2 * (TILE_EDGE + 1)] + 0.5  # pixel (8, 8)
    pixel_traces = [_pixel_trace(cache.batch, rows, c) for rows, c in zip(tile_traces, centers)]
    # each row's (depth, max scale), from the one decode of every voxel in record order
    _, splats = stream_fine(records, np.arange(grid.nonempty_count), books)
    keys = np.stack([cache.batch.depth, splats[1].max(axis=1)], axis=1)
    per_tile, per_pixel = (float(np.mean([cbp_loss(keys[t]) for t in traces])) if tiles else 0.0
                           for traces in (tile_traces, pixel_traces))
    return {
        "per_tile_trace": per_tile,
        "per_pixel_trace": per_pixel,
        "beta": CBP_BETA_DEFAULT,
        "beta_weighted_per_tile": CBP_BETA_DEFAULT * per_tile,
    }


def _render_frame(args, store, camera, mode) -> tuple:
    """One ``mode`` frame of ``store``: (frame, ledger, stats, streamed, books).
    Only a streaming frame reads ``--books``; it streams ``streamed``, the
    store encoded with them.  A reference frame gives None for the last three."""
    common = dict(background=args.background, threads=args.threads, scene_hash=store.scene_hash)
    if mode == "reference":
        return (*render_frame_reference(camera, store.records, **common), None, None, None)
    books = load_codebooks(args.books) if args.books else None
    streamed = store if books is None else store.encode(books)
    rendered = render_frame_streaming(camera, streamed.grid, streamed.records, books, **common)
    return (*rendered, streamed, books)


def cmd_render(args) -> int:
    if args.dump_dag and args.mode != "streaming":
        raise VoxsplatError("--dump-dag applies to streaming renders only")
    if os.path.splitext(args.out)[1] not in (".png", ".ppm"):
        raise VoxsplatError(f"--out must name a .png or .ppm file, got {args.out!r}")
    store = load_store(args.voxels)
    camera = Camera.load(args.camera)
    frame, ledger, stats, *_ = _render_frame(args, store, camera, args.mode)
    if args.dump_dag:
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
            payload["reuse"] = buffer_reuse(ledger, stats.filter)
        with open(args.stats, "w", encoding="utf-8") as f:
            json.dump(payload, f, indent=2)
    return 0


def cmd_compare(args) -> int:
    store = load_store(args.voxels)
    camera = Camera.load(args.camera)
    stream_frame, stream_ledger, stream_stats, streamed, books = _render_frame(
        args, store, camera, "streaming")
    ref_frame, ref_ledger, *_ = _render_frame(args, store, camera, "reference")
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
        "cross_boundary": cross_boundary_stats(store.grid, store.records)["ratio"],
        "depth_order_penalty": _cbp_diagnostics(streamed, books, camera),
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


class _Parser(argparse.ArgumentParser):
    """Raises a bad command line as a ``VoxsplatError``, which ``main`` prints
    as one line with exit code 1 like any other bad input; subcommand
    parsers are of this class too."""

    def error(self, message):
        raise VoxsplatError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="voxsplat")
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
    p.add_argument("--entries", default=",".join(f"{k}={v}" for k, v in DEFAULT_ENTRIES.items()),
                   help="comma-separated attribute=entries items (default: %(default)s)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train_codebook)

    frame = argparse.ArgumentParser(add_help=False)  # the options of both rendering commands
    frame.add_argument("--voxels", required=True)
    frame.add_argument("--books", default=None)
    frame.add_argument("--camera", required=True)
    frame.add_argument("--background", type=_parse_rgb, default=(0.0, 0.0, 0.0),
                       help="r,g,b; write one that starts with '-' as --background=-5,2,0.5")
    frame.add_argument("--threads", type=int, default=1,
                       help="worker processes, at most one per usable CPU and per tile row")

    p = sub.add_parser("render", parents=[frame], help="render one frame")
    p.add_argument("--mode", choices=("streaming", "reference"), required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--stats", default=None)
    p.add_argument("--dump-dag", default=None,
                   help="write the voxel pairs consecutive on a pixel ray, which each "
                        "tile's order keeps ('src dst' lines)")
    p.set_defaults(func=cmd_render)

    p = sub.add_parser("compare", parents=[frame], help="render both pipelines and write a report")
    p.add_argument("--report", required=True)
    p.add_argument("--csv", default=None)
    p.set_defaults(func=cmd_compare)
    return parser


def main(argv=None) -> int:
    try:  # an unknown VOXSPLAT_LOG level raises ValueError
        logging.basicConfig(level=os.environ.get("VOXSPLAT_LOG", "WARNING").upper())
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (VoxsplatError, ValueError, OSError, RuntimeError) as exc:
        print(f"voxsplat: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
