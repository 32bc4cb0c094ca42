"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  The oracle fixtures are 20 seeded constrained scenes (splats fully
inside their voxels); the cluttered fixture is a deep 80k-splat scene whose
tile frustums cross 50+ occupied voxels.
"""

import time

import numpy as np
import pytest

from voxsplat import (
    Aabb,
    PerfConfig,
    build_grid,
    compare_pipelines,
    estimate,
    generate_scene,
    look_at_camera,
    psnr,
    render_frame_reference,
    render_frame_streaming,
    traffic_breakdown,
)
from voxsplat.filtering import (
    FilterStats,
    ProjectionCache,
    coarse_filter,
    fine_filter,
    tile_rect,
)
from voxsplat.scene import scene_fingerprint
from voxsplat.scheduler import schedule, traverse, voxel_depths
from voxsplat.traffic import INTERMEDIATE_STAGES, counts_from_stats
from voxsplat.voxelstore import encode_records, gather_attribute
from voxsplat.vq import DEFAULT_ENTRIES, train_codebook

from conftest import constrained_scene
from oracles import depth_table, rows_of, visits_of

SEEDS = tuple(range(20))
ORACLE_CAMERA = dict(eye=[0.0, 0.0, -10.0], target=[0.0, 0.0, 0.0], focal=300.0)


def check(num: int, name: str, ok: bool, detail: str = "") -> None:
    print(f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'}  {name}  {detail}".rstrip())
    assert ok, f"criterion {num} ({name}) failed: {detail}"


@pytest.fixture(scope="module")
def oracle_runs():
    """20 constrained scenes rendered by both pipelines, VQ disabled, timed."""
    runs = []
    start = time.perf_counter()
    for seed in SEEDS:
        scene = constrained_scene(seed, count=600)
        camera = look_at_camera(**ORACLE_CAMERA)
        grid, records = build_grid(scene, 2.0)
        stream, s_ledger, s_stats = render_frame_streaming(
            camera, grid, records, scene_hash=scene_fingerprint(scene)
        )
        ref, r_ledger = render_frame_reference(camera, scene)
        runs.append(
            dict(seed=seed, scene=scene, camera=camera, grid=grid, records=records,
                 stream=stream, ref=ref, s_ledger=s_ledger, r_ledger=r_ledger,
                 s_stats=s_stats)
        )
    elapsed = time.perf_counter() - start
    return runs, elapsed


@pytest.fixture(scope="module")
def vq_runs(oracle_runs):
    """The same scenes re-rendered through trained codebooks."""
    runs, _ = oracle_runs
    out = []
    for run in runs:
        records = run["records"]
        books = {
            name: train_codebook(gather_attribute(records, name), k, seed=0, attribute=name)
            for name, k in DEFAULT_ENTRIES.items()
        }
        encoded = encode_records(records, books)
        stream, ledger, stats = render_frame_streaming(
            run["camera"], run["grid"], encoded, books,
            scene_hash=scene_fingerprint(run["scene"]),
        )
        out.append(dict(run=run, books=books, stream=stream, ledger=ledger, stats=stats))
    return out


@pytest.fixture(scope="module")
def cluttered_run():
    scene = generate_scene(
        count=80000, bounds=Aabb([-8, -8, 2], [8, 8, 162]), seed=0,
        max_extent_fraction=0.45, voxel_edge=2.0,
    )
    camera = look_at_camera([0.0, 0.0, -2.0], [0.0, 0.0, 82.0], focal=280.0)
    grid, records = build_grid(scene, 2.0)
    stream, s_ledger, s_stats = render_frame_streaming(
        camera, grid, records, scene_hash=scene_fingerprint(scene)
    )
    ref, r_ledger = render_frame_reference(camera, scene)
    return dict(scene=scene, camera=camera, grid=grid, stream=stream, ref=ref,
                s_ledger=s_ledger, r_ledger=r_ledger, s_stats=s_stats)


def test_criterion_01_oracle_equivalence(oracle_runs):
    runs, elapsed = oracle_runs
    worst_diff = 0.0
    worst_psnr = float("inf")
    for run in runs:
        diff = float(np.max(np.abs(run["stream"].astype(np.float64)
                                   - run["ref"].astype(np.float64))))
        worst_diff = max(worst_diff, diff)
        worst_psnr = min(worst_psnr, psnr(run["stream"], run["ref"]))
    ok = worst_diff <= 1e-4 and worst_psnr >= 60.0 and elapsed < 120.0
    check(1, "oracle equivalence (20 constrained scenes)", ok,
          f"max|diff|={worst_diff:.2e} min psnr={worst_psnr:.1f}dB time={elapsed:.1f}s")


def test_criterion_02_vq_quality_band(vq_runs):
    # criterion 1 pins the no-VQ floor at 60 dB; trained codebooks may cost
    # at most 1 dB of that floor
    worst = min(psnr(r["stream"], r["run"]["ref"]) for r in vq_runs)
    lossy = sum(not r["books"]["sh_rest"].padded for r in vq_runs)
    ok = worst >= 59.0 and lossy == len(vq_runs)
    check(2, "VQ quality within 1 dB of the oracle floor", ok,
          f"min psnr={worst:.1f}dB (floor 59.0), lossy sh_rest books={lossy}/{len(vq_runs)}")


def test_criterion_03_coarse_filter_conservative():
    rng = np.random.default_rng(2024)
    total = 0
    false_rejects = 0
    for _ in range(20):
        n = 5000
        eye = rng.uniform([-2, -2, -12], [2, 2, -6])
        camera = look_at_camera(eye, rng.uniform(-1, 1, size=3),
                                focal=float(rng.uniform(150, 500)))
        positions = rng.uniform([-4, -4, -3], [4, 4, 3], size=(n, 3))
        scales = rng.uniform(0.002, 0.5, size=(n, 3)) * rng.uniform(0.05, 2.0)
        quats = rng.normal(size=(n, 4))
        quats /= np.linalg.norm(quats, axis=1, keepdims=True)
        opac = rng.uniform(0.05, 0.99, size=n)
        sh = rng.normal(0, 0.2, size=(n, 16, 3))
        tile = (int(rng.integers(0, 16)), int(rng.integers(0, 16)))
        rect = tile_rect(*tile)
        stats = FilterStats()
        cache = ProjectionCache(camera, np.empty(0))
        cmask = coarse_filter(cache, rect, 0, positions, scales.max(axis=1), stats)
        fine = fine_filter(cache, rect, 0, np.arange(n),
                           (positions, scales, quats, opac, sh, np.arange(n)), stats)
        false_rejects += len(set(fine.ids.tolist()) - set(np.flatnonzero(cmask).tolist()))
        total += n
    ok = total >= 100000 and false_rejects == 0
    check(3, "coarse filter never rejects a fine survivor", ok,
          f"{false_rejects} false rejects over {total} splat/camera/tile triples")


def test_criterion_04_intermediate_traffic_zero(oracle_runs, vq_runs, cluttered_run):
    ledgers = [run["s_ledger"] for run in oracle_runs[0]]
    ledgers += [r["ledger"] for r in vq_runs]
    ledgers.append(cluttered_run["s_ledger"])
    bad = sum(ledger.bytes[stage] for ledger in ledgers for stage in INTERMEDIATE_STAGES)
    check(4, "streaming writes zero intermediate bytes", bad == 0,
          f"{bad} bytes across {len(ledgers)} renders in "
          f"{' + '.join(INTERMEDIATE_STAGES)}")


def test_criterion_05_vq_traffic_reduction(vq_runs):
    r = vq_runs[0]
    report = compare_pipelines(r["ledger"], r["run"]["r_ledger"], r["stats"].filter)
    byte_aligned = report["second_half_reduction"]
    bit_packed = report["second_half_reduction_bit_packed"]
    ok = (
        byte_aligned is not None
        and 0.90 <= byte_aligned <= 0.96
        and 0.90 <= bit_packed <= 0.96
        and r["ledger"].bytes["fine-load"] == 12 * r["ledger"].records["fine-load"]
    )
    check(5, "second-half traffic reduction in [90%, 96%]", ok,
          f"byte-aligned={byte_aligned:.3%} bit-packed={bit_packed:.3%}")


def test_criterion_06_filtering_effectiveness(cluttered_run):
    stats = cluttered_run["s_stats"]
    sched_per_tile = stats.voxels_scheduled / 256.0
    ratio = stats.filter.fine_survivors / stats.filter.loaded
    ok = sched_per_tile >= 50.0 and ratio <= 0.5
    check(6, "fine survivors / loaded <= 0.5 on the cluttered scene", ok,
          f"ratio={ratio:.3f} (occupied voxels per tile frustum: {sched_per_tile:.1f})")


def test_criterion_07_baseline_traffic_shape(cluttered_run):
    fractions = traffic_breakdown(cluttered_run["r_ledger"])["fractions"]
    proj_sort = fractions["projection"] + fractions["sorting"]
    check(7, "reference projection+sorting traffic >= 80%", proj_sort >= 0.80,
          f"projection={fractions['projection']:.3f} sorting={fractions['sorting']:.3f} "
          f"sum={proj_sort:.3f}")


def _order_violations(order, table):
    pos = {v: i for i, v in enumerate(order)}
    return sum(1 for row in table for a, b in zip(row, row[1:]) if pos[a] >= pos[b])


def test_criterion_08_scheduler_correctness():
    rng = np.random.default_rng(77)
    scenes = [constrained_scene(seed=90 + i, count=400) for i in range(4)]
    grids = [build_grid(s, 2.0)[0] for s in scenes]
    tiles_checked = 0
    acyclic_violations = 0
    cyclic_cases = 0
    while tiles_checked < 10000:
        grid = grids[int(rng.integers(0, len(grids)))]
        eye = rng.uniform([-4, -4, -14], [4, 4, -7])
        camera = look_at_camera(eye, rng.uniform(-3, 3, size=3),
                                focal=float(rng.uniform(200, 420)))
        depth = voxel_depths(camera, grid)
        for _ in range(64):  # several tiles per camera keeps this fast
            tile = (int(rng.integers(0, 16)), int(rng.integers(0, 16)))
            (visits,) = traverse([tile], camera, grid)
            table = rows_of(visits)
            order, broken = schedule(visits, depth)
            if broken == 0:
                acyclic_violations += _order_violations(order, table)
            else:
                cyclic_cases += 1
            tiles_checked += 1
            if tiles_checked >= 10000:
                break
    # crafted cycle: two pixels traverse the same pair in opposite orders
    crafted = [[0, 1], [1, 0]]
    order, broken = schedule(visits_of(crafted), depth_table({0: 1.0, 1: 2.0}))
    crafted_ok = (broken >= 1 and sorted(order) == [0, 1]
                  and _order_violations(order, crafted) == 1)
    ok = acyclic_violations == 0 and crafted_ok
    check(8, "scheduler satisfies per-pixel orders; cycles broken safely", ok,
          f"{tiles_checked} tiles, {acyclic_violations} violations, "
          f"{cyclic_cases} natural cycles, crafted cycle handled={crafted_ok}")


def test_criterion_09_mac_constants(oracle_runs, cluttered_run):
    ok = True
    details = []
    for tag, (stats, ledger) in {
        "oracle": (oracle_runs[0][0]["s_stats"].filter, oracle_runs[0][0]["s_ledger"]),
        "cluttered": (cluttered_run["s_stats"].filter, cluttered_run["s_ledger"]),
    }.items():
        ok &= ledger.macs["coarse"] == 55 * stats.loaded
        ok &= ledger.macs["fine"] == (427 - 55) * stats.coarse_survivors
        details.append(f"{tag}: coarse=55x{stats.loaded} fine=+372x{stats.coarse_survivors}")
    check(9, "ledger MAC charges are exactly 55 / 427", ok, "; ".join(details))


def test_criterion_10_perf_model_properties(cluttered_run):
    stats = cluttered_run["s_stats"].filter
    counts = counts_from_stats(stats)
    monotone = True
    for field in ("coarse_units", "fine_units", "sorter_units", "render_units"):
        prev = float("inf")
        for k in (1, 2, 4, 8, 16):
            total = estimate(PerfConfig(**{field: k}), stats, counts).total_cycles
            monotone &= total <= prev + 1e-12
            prev = total
    # fine units saturate: once the fine stage stops being the bottleneck,
    # adding more of them leaves the total bit-identical
    k = 1
    while estimate(PerfConfig(fine_units=k), stats, counts).bottleneck == "fine":
        k *= 2
    saturated = estimate(PerfConfig(fine_units=k), stats, counts)
    ffu_insensitive = all(
        estimate(PerfConfig(fine_units=k * m), stats, counts).total_cycles
        == saturated.total_cycles
        for m in (2, 4, 8)
    )
    ok = monotone and ffu_insensitive
    check(10, "throughput model monotone; extra fine units change nothing", ok,
          f"fine units saturate at {k} (bottleneck then {saturated.bottleneck})")


def test_criterion_11_determinism_across_workers(oracle_runs):
    run = oracle_runs[0][0]
    frames = {}
    for threads in (1, 4, 8):
        s, s_led, _ = render_frame_streaming(run["camera"], run["grid"], run["records"],
                                             threads=threads)
        r, _ = render_frame_reference(run["camera"], run["scene"], threads=threads)
        frames[threads] = (s, r, s_led.as_dict())
    ok = all(
        np.array_equal(frames[1][0], frames[t][0])
        and np.array_equal(frames[1][1], frames[t][1])
        and frames[1][2] == frames[t][2]
        for t in (4, 8)
    )
    check(11, "renders bit-identical across worker counts", ok, "threads 1 vs 4 vs 8")
