"""One workload's timed runs: the untraced end-to-end run, the traced
per-layer run, and the output checks applied to every frame of both.

Host metrics are wall time of this process; modeled metrics come from the
traffic ledger and ``estimate``.  Counts, modeled metrics and PSNR are exact
for a seed: they come from the first frame of each scene and every later
frame must reproduce that frame's bits, ledger and counters.

Host times are scaled to a reference host speed.  A shared 2-core x86-64 VM
swings between a fast and a slow state (about 1.7x) that lasts seconds to a
minute, so raw run medians of unchanged code moved 10-35% between runs.
Before and after every timed operation the benchmark times ``host_probe``, a
fixed loop of small numpy calls that does not touch voxsplat, on as many
threads as the operation uses; the operation's wall time is multiplied by
``HOST_REFERENCE_S / mean(probe before, probe after)``.
A faster program lowers the scaled time exactly as it lowers wall time, while
a slower host cancels out.  Raw medians are printed beside the scaled ones.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import resource
import statistics
import sys
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from voxsplat import reference as reference_mod
from voxsplat import streaming as streaming_mod
from voxsplat.metrics import psnr
from voxsplat.traffic import STAGES, PerfConfig, counts_from_stats, estimate
from voxsplat.voxelstore import ENCODED_FINE_BYTES, RAW_FINE_STREAM_BYTES

from tracing import Tracer, span_name
from workloads import Prepared, Workload, set_up

# Identical frames have infinite PSNR; they read as this ceiling instead.
PSNR_CAP_DB = 200.0
# host_probe's time on an uncontended 2-core x86-64 VM (Python 3.11, numpy 2.4),
# by thread count: the unit of every scaled host time.  Two probe threads
# contend for the interpreter lock as two render workers do.
HOST_REFERENCE_S = {1: 0.008, 2: 0.0173}

_PROBE_POINTS = np.random.default_rng(0).random((256, 2))
_PROBE_WEIGHTS = np.random.default_rng(1).random(256)


def _probe_loop(_=None) -> None:
    total = 0.0
    seen = {}
    for i in range(1000):
        d = _PROBE_POINTS - _PROBE_POINTS[i % 256]
        hit = np.exp(-0.5 * (d[:, 0] ** 2 + d[:, 1] ** 2)) > 0.3
        total += float(_PROBE_WEIGHTS[hit].sum())
        seen[i] = total


def host_probe(threads: int = 1) -> float:
    """Seconds for a fixed loop of the small numpy calls and dict updates that
    dominate both renderers, run once per thread, without calling voxsplat:
    the host's speed now."""
    t0 = perf_counter()
    if threads == 1:
        _probe_loop()
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(_probe_loop, range(threads)))
    return perf_counter() - t0


# (name, unit, kind) of every end-to-end metric, printed in this order.
END_TO_END = (
    ("setup_s", "s", "host"),
    ("stream_frame_s", "s", "host"),
    ("stream_frame_2t_s", "s", "host"),
    ("reference_frame_s", "s", "host"),
    ("stream_splat_visits_per_s", "1/s", "host"),
    ("peak_rss_mb", "MB", "host"),
    ("stream_dram_bytes", "B/frame", "modeled"),
    ("model_cycles", "cycles/frame", "modeled"),
    ("psnr_db", "dB", "quality"),
)

# (name, unit) of every per-layer metric of the traced run.  Times are host
# seconds per frame (per set-up for set-up steps); counts and traffic are per
# frame, averaged over the run's scenes.
PER_LAYER = (
    ("scheduler.traverse_s", "s"),
    ("scheduler.schedule_s", "s"),
    ("scheduler.voxel_depths_s", "s"),
    ("scheduler.voxels_scheduled", "count"),
    ("scheduler.voxels_skipped_early", "count"),
    ("scheduler.cycles_broken", "count"),
    ("scheduler.early_skip_ratio", "ratio"),
    ("filtering.coarse_s", "s"),
    ("filtering.fine_s", "s"),
    ("filtering.project_s", "s"),
    ("filtering.loaded", "count"),
    ("filtering.coarse_survivors", "count"),
    ("filtering.fine_survivors", "count"),
    ("filtering.macs_coarse", "MAC"),
    ("filtering.macs_fine", "MAC"),
    ("filtering.coarse_pass_ratio", "ratio"),
    ("filtering.fine_pass_ratio", "ratio"),
    ("sh.evaluate_s", "s"),
    ("sh.reference_evaluate_s", "s"),
    ("blending.stream_blend_s", "s"),
    ("blending.reference_blend_s", "s"),
    ("blending.blended", "count"),
    ("blending.calls", "count"),
    ("voxelstore.stream_coarse_s", "s"),
    ("voxelstore.stream_fine_s", "s"),
    ("voxelstore.build_s", "s"),
    ("voxelstore.save_s", "s"),
    ("voxelstore.load_s", "s"),
    ("vq.train_s", "s"),
    ("vq.save_s", "s"),
    ("vq.load_s", "s"),
    ("vq.encode_s", "s"),
    ("vq.kmeans_iterations", "count"),
    ("scene.load_ply_s", "s"),
    ("streaming.tile_ms_p50", "ms"),
    ("streaming.tile_ms_p95", "ms"),
    ("streaming.tile_samples", "count"),
    ("streaming.self_s", "s"),
    ("reference.project_s", "s"),
    ("reference.bin_s", "s"),
    ("reference.self_s", "s"),
    ("reference.tile_records", "count"),
    *((f"traffic.{pipe}.{stage}_bytes", "B") for pipe in ("stream", "reference") for stage in STAGES),
    ("traffic.stream.intermediate_bytes", "B"),
    *((f"traffic.cycles.{stage}", "cycles") for stage in ("coarse", "fine", "sort", "render")),
    ("trace.stream_frame_s", "s"),
    ("trace.untraced_stream_frame_s", "s"),
    ("trace.reference_frame_s", "s"),
    ("trace.overhead", "ratio"),
    ("trace.stream_attributed_share", "ratio"),
    ("trace.reference_attributed_share", "ratio"),
)

# per-layer time metric <- (frame root, span name), summed per frame
FRAME_SPANS = {
    "scheduler.traverse_s": ("streaming.frame", "streaming.traverse"),
    "scheduler.schedule_s": ("streaming.frame", "streaming.schedule"),
    "scheduler.voxel_depths_s": ("streaming.frame", "streaming.voxel_depths"),
    "filtering.coarse_s": ("streaming.frame", "streaming.coarse_filter"),
    "filtering.fine_s": ("streaming.frame", "streaming.fine_filter"),
    "filtering.project_s": ("streaming.frame", "filtering.project_splats"),
    "sh.evaluate_s": ("streaming.frame", "filtering.evaluate_sh"),
    "sh.reference_evaluate_s": ("reference.frame", "filtering.evaluate_sh"),
    "blending.stream_blend_s": ("streaming.frame", "streaming.blend"),
    "blending.reference_blend_s": ("reference.frame", "reference.blend"),
    "voxelstore.stream_coarse_s": ("streaming.frame", "streaming.stream_coarse"),
    "voxelstore.stream_fine_s": ("streaming.frame", "streaming.stream_fine"),
    "reference.project_s": ("reference.frame", "reference.project_splats"),
    "reference.bin_s": ("reference.frame", "reference.disc_overlaps_rect"),
}
# per-layer set-up metric <- span name inside one set-up
SETUP_SPANS = {
    "scene.load_ply_s": "scene.load_ply",
    "voxelstore.build_s": "voxelstore.build",
    "voxelstore.save_s": "voxelstore.save",
    "voxelstore.load_s": "voxelstore.load",
    "vq.train_s": "vq.train",
    "vq.save_s": "vq.save",
    "vq.load_s": "vq.load",
    "vq.encode_s": "vq.encode",
}
TILE_SPAN = span_name("voxsplat.streaming", "render_tile_streaming")


class CheckFailed(Exception):
    pass


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def frame_digest(frame: np.ndarray) -> str:
    return digest(np.ascontiguousarray(frame).tobytes())


def ledger_digest(ledger) -> str:
    return digest(json.dumps(ledger.as_dict(), sort_keys=True).encode())


def require(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


@dataclass(eq=False)
class SceneRun:
    """One scene's render-ready inputs and its first (canonical) outputs."""

    prepared: Prepared
    reference_scene: object
    stream: tuple | None = None  # (frame, ledger, stats) of the first streaming frame
    reference: tuple | None = None  # (frame, ledger) of the first reference frame
    blend_calls: int | None = None  # blend calls of the first traced streaming frame


@dataclass
class Runner:
    workload: Workload
    camera: object
    tracer: Tracer | None = None
    attempted: int = 0
    failed: int = 0
    scale: float = 1.0  # reference / host speed of the last timed operation
    times: dict = field(default_factory=dict)  # kind -> [(scaled s, raw s, probe s)]

    def attempt(self, fn):
        """Run one frame and its checks; None when it raised or failed a check."""
        self.attempted += 1
        try:
            return fn()
        except Exception as exc:  # any failure of one frame counts against it
            self.failed += 1
            print(f"frame failed: {type(exc).__name__}: {exc}", file=sys.stderr)
            return None

    def timed(self, kind: str, root: str, fn, threads: int = 1):
        """Run ``fn`` between two host probes; records its scaled time."""
        gc.collect()
        before = host_probe(threads)
        with self.tracer.root(root) if self.tracer else nullcontext():
            t0 = perf_counter()
            out = fn()
            seconds = perf_counter() - t0
        probe = 0.5 * (before + host_probe(threads))
        self.scale = HOST_REFERENCE_S[threads] / probe
        self.times.setdefault(kind, []).append((seconds * self.scale, seconds, probe))
        return out

    def scaled(self, kind: str) -> list[float]:
        return [t[0] for t in self.times.get(kind, ())]

    def stream(self, scene: SceneRun, threads: int, kind: str) -> None:
        store = scene.prepared.store
        frame, ledger, stats = self.timed(kind, "streaming.frame", lambda: (
            streaming_mod.render_frame_streaming(
                self.camera, store.grid, store.records, scene.prepared.books,
                threads=threads, scene_hash=store.scene_hash,
            )), threads)
        require(bool(np.all(np.isfinite(frame))), "streaming frame has non-finite pixels")
        require(ledger.intermediate_bytes == 0, "streaming ledger charges intermediate traffic")
        f = stats.filter
        require(0 <= f.fine_survivors <= f.coarse_survivors <= f.loaded,
                "filter counters out of order: fine <= coarse <= loaded violated")
        per_record = ENCODED_FINE_BYTES if self.workload.vq else RAW_FINE_STREAM_BYTES
        require(ledger.bytes["fine-load"] == per_record * ledger.records["fine-load"],
                "fine loads did not take the expected stream_fine branch")
        if scene.stream is None:
            scene.stream = (frame, ledger, stats)
        else:
            first, first_ledger, first_stats = scene.stream
            require(np.array_equal(frame, first), f"streaming frame differs at threads={threads}")
            require(ledger.as_dict() == first_ledger.as_dict(),
                    f"streaming ledger differs at threads={threads}")
            require(stats.as_dict() == first_stats.as_dict(),
                    f"streaming counters differ at threads={threads}")

    def reference(self, scene: SceneRun) -> None:
        frame, ledger = self.timed("reference", "reference.frame", lambda: (
            reference_mod.render_frame_reference(self.camera, scene.reference_scene)))
        require(bool(np.all(np.isfinite(frame))), "reference frame has non-finite pixels")
        if scene.reference is None:
            scene.reference = (frame, ledger)
        else:
            require(np.array_equal(frame, scene.reference[0]), "reference frame not repeatable")
            require(ledger.as_dict() == scene.reference[1].as_dict(), "reference ledger differs")
        if self.workload.bit_exact and scene.stream is not None:
            require(np.array_equal(frame, scene.stream[0]),
                    "streaming frame is not bit-identical to the reference")

    def prepare(self, paths: list[str], workdir: str) -> list[SceneRun]:
        """Set up every scene ``setup_repeats`` times (timed as ``setup``)."""
        scenes = []
        span = self.tracer.span if self.tracer else None
        for path in paths:
            for _ in range(self.workload.setup_repeats):
                prepared = self.timed("setup", "setup",
                                      lambda: set_up(self.workload, path, workdir, span))
            scenes.append(SceneRun(prepared, prepared.reference_scene()))
        return scenes

    def medians(self) -> dict:
        """Per kind: (scaled median, raw median, probe median, sample count)."""
        return {kind: (*(statistics.median(col) for col in zip(*rows)), len(rows))
                for kind, rows in self.times.items()}


def cycle(count: int, seconds: float, body) -> None:
    """Closed loop, one client: ``body(j)`` back to back over scene indices
    0..count-1 for ``seconds``, always covering every scene at least once."""
    deadline = perf_counter() + seconds
    i = 0
    while i < count or perf_counter() < deadline:
        body(i % count)
        i += 1


def exact_metrics(scenes: list[SceneRun]) -> dict:
    """Per-frame counts and modeled numbers, averaged over the run's scenes."""
    if any(s.stream is None or s.reference is None for s in scenes):
        return {}  # a scene never rendered cleanly; its frames already count as failed
    rows = []
    for s in scenes:
        frame, ledger, stats = s.stream
        ref_frame, ref_ledger = s.reference
        f = stats.filter
        cycles = estimate(PerfConfig(), f, counts_from_stats(f))
        row = {
            "stream_dram_bytes": ledger.total_bytes,
            "model_cycles": cycles.total_cycles,
            "psnr_db": min(psnr(frame, ref_frame), PSNR_CAP_DB),
            "scheduler.voxels_scheduled": stats.voxels_scheduled,
            "scheduler.voxels_skipped_early": stats.voxels_skipped_early,
            "scheduler.cycles_broken": stats.cycles_broken,
            "filtering.loaded": f.loaded,
            "filtering.coarse_survivors": f.coarse_survivors,
            "filtering.fine_survivors": f.fine_survivors,
            "filtering.macs_coarse": f.macs_coarse,
            "filtering.macs_fine": f.macs_fine,
            "blending.blended": stats.blended,
            "reference.tile_records": ref_ledger.records["render-load"],
            "vq.kmeans_iterations": s.prepared.kmeans_iterations,
            "traffic.stream.intermediate_bytes": ledger.intermediate_bytes,
        }
        for pipe, led in (("stream", ledger), ("reference", ref_ledger)):
            for stage in STAGES:
                row[f"traffic.{pipe}.{stage}_bytes"] = led.bytes[stage]
        for stage, value in cycles.stage_cycles.items():
            row[f"traffic.cycles.{stage}"] = value
        if s.blend_calls is not None:
            row["blending.calls"] = s.blend_calls
        rows.append(row)
    out = {k: sum(r[k] for r in rows) / len(rows) for k in rows[0]}
    out["scheduler.early_skip_ratio"] = ratio(out["scheduler.voxels_skipped_early"],
                                              out["scheduler.voxels_scheduled"])
    out["filtering.coarse_pass_ratio"] = ratio(out["filtering.coarse_survivors"],
                                               out["filtering.loaded"])
    out["filtering.fine_pass_ratio"] = ratio(out["filtering.fine_survivors"],
                                             out["filtering.coarse_survivors"])
    return out


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def digests(scenes: list[SceneRun]) -> dict:
    """sha256 of each scene's frames and ledgers, for bit-and-ledger comparisons."""
    out = {}
    for i, s in enumerate(scenes):
        if s.stream is not None:
            out[f"scene{i}.stream_frame_sha256"] = frame_digest(s.stream[0])
            out[f"scene{i}.stream_ledger_sha256"] = ledger_digest(s.stream[1])
        if s.reference is not None:
            out[f"scene{i}.reference_frame_sha256"] = frame_digest(s.reference[0])
            out[f"scene{i}.reference_ledger_sha256"] = ledger_digest(s.reference[1])
    return out


def run_untraced(workload: Workload, paths: list[str], workdir: str, seconds: float):
    """End-to-end metrics; returns (runner, metrics, exact values)."""
    runner = Runner(workload, workload.camera())
    scenes = runner.prepare(paths, workdir)

    def body(j):
        scene = scenes[j]
        runner.attempt(lambda: runner.stream(scene, 1, "stream"))
        runner.attempt(lambda: runner.stream(scene, 2, "stream_2t"))
        runner.attempt(lambda: runner.reference(scene))

    cycle(len(scenes), seconds, body)
    exact = exact_metrics(scenes)
    stream_s = median(runner.scaled("stream"))
    loaded = [s.stream[2].filter.loaded for s in scenes if s.stream is not None]
    metrics = {
        "setup_s": median(runner.scaled("setup")),
        "stream_frame_s": stream_s,
        "stream_frame_2t_s": median(runner.scaled("stream_2t")),
        "reference_frame_s": median(runner.scaled("reference")),
        "stream_splat_visits_per_s": sum(loaded) / len(scenes) / stream_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        **{k: exact.get(k, math.nan) for k in ("stream_dram_bytes", "model_cycles", "psnr_db")},
    }
    exact_keys = {k: exact[k] for k in ("stream_dram_bytes", "model_cycles", "psnr_db") if k in exact}
    return runner, metrics, {**exact_keys, **digests(scenes)}


def median(values: list) -> float:
    return statistics.median(values) if values else math.nan


def run_traced(workload: Workload, paths: list[str], workdir: str, seconds: float,
               spans_path: str):
    """Per-layer metrics from wrapped module attributes, single-threaded.

    Each step renders an untraced streaming frame (wrappers removed), then a
    traced streaming and a traced reference frame; every frame is checked
    against the scene's first frame, so tracing cannot change an output.
    Span times are scaled by their frame's host-speed factor.
    """
    tracer = Tracer()
    runner = Runner(workload, workload.camera(), tracer)
    scale = {"setup": [], "streaming.frame": [], "reference.frame": []}
    tracer.install()
    try:
        scenes = runner.prepare(paths, workdir)
        scale["setup"] = [t[0] / t[1] for t in runner.times["setup"]]

        def body(j):
            scene = scenes[j]
            with tracer.suspended():
                runner.tracer = None
                runner.attempt(lambda: runner.stream(scene, 1, "untraced"))
                runner.tracer = tracer
            runner.attempt(lambda: runner.stream(scene, 1, "stream"))
            scale["streaming.frame"].append(runner.scale)
            runner.attempt(lambda: runner.reference(scene))
            scale["reference.frame"].append(runner.scale)

        cycle(len(scenes), seconds, body)
    finally:
        tracer.uninstall()
    roots = ("streaming.frame", "reference.frame")
    tracer.check_calls(roots)
    tracer.write(spans_path)

    frames = tracer.frames()
    by_root = {root: [f for f in frames if f["root"] == root] for root in scale}
    for j, scene in enumerate(scenes):
        scene.blend_calls = by_root["streaming.frame"][j]["calls"].get("streaming.blend", 0)

    def per_frame(root: str, value) -> float:
        """Median over the root's frames of value(frame) x the frame's scale."""
        return median([value(f) * k for f, k in zip(by_root[root], scale[root])])

    metrics = {
        name: per_frame(root, lambda f, span=span: f["total"].get(span, 0.0))
        for name, (root, span) in FRAME_SPANS.items()
    }
    for name, span in SETUP_SPANS.items():
        metrics[name] = per_frame("setup", lambda f, span=span: f["total"].get(span, 0.0))
    tiles_ms = [1e3 * d * k for f, k in zip(by_root["streaming.frame"], scale["streaming.frame"])
                for d in f["durations"].get(TILE_SPAN, ())]
    p50, p95 = np.percentile(tiles_ms, [50, 95])

    def stream_self(f):
        return f["self"]["streaming.frame"] + f["self"].get(TILE_SPAN, 0.0)

    def ref_self(f):
        return f["self"]["reference.frame"]

    def share(root, self_time):
        fs = by_root[root]
        return 1.0 - ratio(sum(self_time(f) for f in fs), sum(f["duration"] for f in fs))

    traced, untraced = median(runner.scaled("stream")), median(runner.scaled("untraced"))
    exact = exact_metrics(scenes)
    metrics.update({
        "streaming.tile_ms_p50": float(p50),
        "streaming.tile_ms_p95": float(p95),
        "streaming.tile_samples": len(tiles_ms),
        "streaming.self_s": per_frame("streaming.frame", stream_self),
        "reference.self_s": per_frame("reference.frame", ref_self),
        "trace.stream_frame_s": traced,
        "trace.untraced_stream_frame_s": untraced,
        "trace.reference_frame_s": median(runner.scaled("reference")),
        "trace.overhead": traced / untraced - 1.0,
        "trace.stream_attributed_share": share("streaming.frame", stream_self),
        "trace.reference_attributed_share": share("reference.frame", ref_self),
    })
    for name, _ in PER_LAYER:
        if name not in metrics:
            metrics[name] = exact.get(name, math.nan)
    exact_keys = {k: v for k, v in exact.items() if k in dict(PER_LAYER)}
    return runner, {name: metrics[name] for name, _ in PER_LAYER}, {
        **exact_keys, **digests(scenes)}
