import json
from dataclasses import asdict, fields

import pytest
from hypothesis import given, settings, strategies as st

from voxsplat import (
    Aabb,
    PerfConfig,
    TrafficLedger,
    build_grid,
    compare_pipelines,
    estimate,
    generate_scene,
    look_at_camera,
    render_frame_reference,
    render_frame_streaming,
    StreamStats,
    traffic_breakdown,
)
from voxsplat.errors import SceneMismatchError
from voxsplat.filtering import FilterStats
from voxsplat.scene import scene_fingerprint
from voxsplat.traffic import STAGES, counts_from_stats, merge_sort_pass_bytes
from voxsplat.voxelstore import encode_records, gather_attribute
from voxsplat.vq import DEFAULT_ENTRIES, train_codebook

from conftest import constrained_scene


def _stats(loaded=10000, coarse=3000, fine=1000):
    return FilterStats(loaded=loaded, coarse_survivors=coarse, fine_survivors=fine,
                       macs_coarse=loaded * 55, macs_fine=coarse * 372)


def test_ledger_rejects_bad_charges():
    ledger = TrafficLedger()
    with pytest.raises(KeyError):
        ledger.charge("nonsense", 1)
    with pytest.raises(ValueError):
        ledger.charge("projection", -1)


def test_ledger_merge_adds_counters():
    a, b = TrafficLedger(), TrafficLedger()
    a.charge("projection", 100, 2)
    b.charge("projection", 50, 1)
    b.macs["coarse"] = 5
    a.merge(b)
    assert a.bytes["projection"] == 150
    assert a.records["projection"] == 3
    assert a.macs == {"coarse": 5, "fine": 0}


def test_tally_and_model_dicts_are_pinned():
    """perfbench hashes ledgers, so the keys, their order and the nesting of
    every dict below are part of the contract; the literals were taken from
    the hand-written ``as_dict`` methods the generic ones replaced."""
    ledger = TrafficLedger(scene_hash="0f1e")
    for k, stage in enumerate(STAGES):
        ledger.charge(stage, 100 * (k + 1) + k, k + 2)
    ledger.macs["fine"] = 372 * 3
    ledger.macs["coarse"] = 55 * 7
    assert json.dumps(ledger.as_dict()) == (
        '{"bytes": {"coarse-load": 100, "fine-load": 201, "projection": 302, '
        '"projection-writeback": 403, "sort-spill": 504, "render-load": 605, '
        '"pixel-writeback": 706}, "records": {"coarse-load": 2, "fine-load": 3, '
        '"projection": 4, "projection-writeback": 5, "sort-spill": 6, "render-load": 7, '
        '"pixel-writeback": 8}, "macs": {"coarse": 385, "fine": 1116}, "scene_hash": "0f1e"}'
    )
    f = FilterStats(loaded=10000, coarse_survivors=3000, fine_survivors=1000,
                    macs_coarse=550000, macs_fine=1116000, degenerate=4)
    stats = StreamStats(filter=f, voxels_scheduled=9, voxels_skipped_early=2, cycles_broken=1,
                        batch_splits=3, blended=777)
    assert json.dumps(stats.as_dict()) == (
        '{"filter": {"loaded": 10000, "coarse_survivors": 3000, "fine_survivors": 1000, '
        '"macs_coarse": 550000, "macs_fine": 1116000, "degenerate": 4}, '
        '"voxels_scheduled": 9, "voxels_skipped_early": 2, "cycles_broken": 1, '
        '"batch_splits": 3, "blended": 777}'
    )
    config = PerfConfig(fine_units=3)
    assert json.dumps(asdict(config)) == (
        '{"coarse_units": 4, "fine_units": 3, "sorter_units": 2, "render_units": 64, '
        '"macs_per_unit_cycle": 1, "coarse_macs": 55, "fine_macs": 372}'
    )
    assert json.dumps(asdict(estimate(config, f, counts_from_stats(f)))) == (
        '{"stage_cycles": {"coarse": 137500.0, "fine": 372000.0, "sort": 500.0, '
        '"render": 15.625}, "bottleneck": "fine", "total_cycles": 372000.0, '
        '"assumption": "perfect stage overlap; total = max over stages"}'
    )


_counts = st.integers(0, 2**40)


@st.composite
def _tallies(draw):
    """A ledger and stream stats with every counter drawn."""
    ledger = TrafficLedger(scene_hash=draw(st.text(max_size=4)))
    for stage in STAGES:
        ledger.charge(stage, draw(_counts), draw(_counts))
    ledger.macs = {"coarse": draw(_counts), "fine": draw(_counts)}
    stats = StreamStats(FilterStats(*(draw(_counts) for _ in fields(FilterStats))),
                        *(draw(_counts) for _ in fields(StreamStats)[1:]))
    return ledger, stats


@settings(max_examples=100, deadline=None)
@given(data=st.data(), parts=st.lists(_tallies(), min_size=1, max_size=6))
def test_tallies_merge_to_the_same_totals_in_any_order(data, parts):
    order = data.draw(st.permutations(range(len(parts))))

    def merged(indices):
        ledger, stats = TrafficLedger(scene_hash="frame"), StreamStats()
        for i in indices:
            ledger.merge(parts[i][0])
            stats.merge(parts[i][1])
        return json.dumps(ledger.as_dict()), json.dumps(stats.as_dict()), ledger, stats

    *want, ledger, stats = merged(range(len(parts)))
    assert merged(order)[:2] == tuple(want)
    assert ledger.scene_hash == "frame"  # never summed, whatever the parts hold
    assert ledger.records == {s: sum(p[0].records[s] for p in parts) for s in STAGES}
    assert ledger.macs["fine"] == sum(p[0].macs["fine"] for p in parts)
    assert stats.blended == sum(p[1].blended for p in parts)
    assert stats.filter.degenerate == sum(p[1].filter.degenerate for p in parts)


def test_merge_sort_pass_model():
    assert merge_sort_pass_bytes(0) == 0
    assert merge_sort_pass_bytes(1) == 0
    assert merge_sort_pass_bytes(2) == 2 * 8 * 2 * 1
    assert merge_sort_pass_bytes(100) == 2 * 8 * 100 * 7  # ceil(log2 100) = 7


def test_estimate_doubling_bottleneck_units_halves_total():
    stats = _stats()
    counts = counts_from_stats(stats)
    base = estimate(PerfConfig(), stats, counts)
    assert base.bottleneck == "fine"
    double = estimate(PerfConfig(fine_units=2), stats, counts)
    if double.bottleneck == "fine":
        assert double.total_cycles == base.total_cycles / 2
    # coarse-bound profile: doubling coarse units halves the total
    coarse_bound = _stats(loaded=100000, coarse=100, fine=50)
    cb_counts = counts_from_stats(coarse_bound)
    one = estimate(PerfConfig(), coarse_bound, cb_counts)
    assert one.bottleneck == "coarse"
    two = estimate(PerfConfig(coarse_units=8), coarse_bound, cb_counts)
    assert two.total_cycles == one.total_cycles / 2


def test_estimate_default_config_hand_arithmetic():
    # survivor fraction 0.237: 10000 loaded, 2370 coarse survivors, 1000 fine
    stats = _stats(loaded=10000, coarse=2370, fine=1000)
    out = estimate(PerfConfig(), stats, counts_from_stats(stats))
    assert out.stage_cycles["coarse"] == 10000 * 55 / 4
    assert out.stage_cycles["fine"] == 2370 * 372 / 1
    assert out.stage_cycles["sort"] == 1000 / 2
    assert out.stage_cycles["render"] == 1000 / 64
    assert out.bottleneck == "fine"
    assert out.total_cycles == 881640.0


def test_estimate_monotone_in_every_unit_count():
    stats = _stats()
    counts = counts_from_stats(stats)
    base = estimate(PerfConfig(), stats, counts).total_cycles
    for field in ("coarse_units", "fine_units", "sorter_units", "render_units"):
        for k in (2, 3, 8):
            bumped = estimate(PerfConfig(**{field: k}), stats, counts).total_cycles
            assert bumped <= base


def test_estimate_homogeneous_scaling():
    stats = _stats()
    counts = counts_from_stats(stats)
    base = estimate(PerfConfig(), stats, counts).total_cycles
    for k in (2, 4):
        cfg = PerfConfig(coarse_units=4 * k, fine_units=k, sorter_units=2 * k,
                         render_units=64 * k)
        assert estimate(cfg, stats, counts).total_cycles == base / k


def test_more_fine_units_when_not_bottleneck_changes_nothing():
    # few coarse survivors: the fine stage is far from the bottleneck
    stats = _stats(loaded=100000, coarse=10, fine=5)
    counts = counts_from_stats(stats)
    base = estimate(PerfConfig(), stats, counts)
    assert base.bottleneck != "fine"
    for ffu in (2, 4, 8):
        bumped = estimate(PerfConfig(fine_units=ffu), stats, counts)
        assert bumped.total_cycles == base.total_cycles  # bit-identical


def test_perf_config_validation():
    with pytest.raises(ValueError):
        PerfConfig(coarse_units=0)


def _rendered_pair(seed=7, vq=True):
    scene = constrained_scene(seed=seed, count=600)
    camera = look_at_camera([0, 0, -10], [0, 0, 0])
    grid, records = build_grid(scene, 2.0)
    books = None
    if vq:
        books = {name: train_codebook(gather_attribute(records, name), k, seed=0, attribute=name)
                 for name, k in DEFAULT_ENTRIES.items()}
        records = encode_records(records, books)
    _, s_ledger, s_stats = render_frame_streaming(
        camera, grid, records, books, scene_hash=scene_fingerprint(scene)
    )
    _, r_ledger = render_frame_reference(camera, scene)
    return s_ledger, r_ledger, s_stats


def test_compare_pipelines_reductions_in_band():
    s_ledger, r_ledger, s_stats = _rendered_pair()
    report = compare_pipelines(s_ledger, r_ledger, s_stats.filter)
    assert report["stream_intermediate_bytes"] == 0
    assert 0.0 < report["reference_intermediate_fraction"] < 1.0
    assert report["vq_enabled"]
    assert report["second_half_reduction"] == pytest.approx(1 - 12 / 220)
    assert 0.90 <= report["second_half_reduction"] <= 0.96
    assert 0.90 <= report["second_half_reduction_bit_packed"] <= 0.96
    assert 0.0 <= report["gaussian_reduction"] <= 1.0


def test_compare_pipelines_rejects_mismatched_scenes():
    s_ledger, r_ledger, s_stats = _rendered_pair(seed=8)
    s_ledger.scene_hash = "deadbeefdeadbeef"
    with pytest.raises(SceneMismatchError):
        compare_pipelines(s_ledger, r_ledger, s_stats.filter)


def test_all_survivors_means_zero_gaussian_reduction():
    stats = FilterStats(loaded=500, coarse_survivors=500, fine_survivors=500)
    a = TrafficLedger(scene_hash="x")
    b = TrafficLedger(scene_hash="x")
    report = compare_pipelines(a, b, stats)
    assert report["gaussian_reduction"] == 0.0


def test_breakdown_errors_on_empty_ledger():
    with pytest.raises(ValueError):
        traffic_breakdown(TrafficLedger())


def test_breakdown_fractions_sum_to_one():
    scene = generate_scene(count=500, bounds=Aabb([-4, -4, -2], [4, 4, 2]), seed=2,
                           max_extent_fraction=0.5)
    camera = look_at_camera([0, 0, -9], [0, 0, 0])
    _, ledger = render_frame_reference(camera, scene)
    out = traffic_breakdown(ledger)
    assert sum(out["fractions"].values()) == pytest.approx(1.0)
    assert out["bytes"]["projection"] >= len(scene) * 59 * 4
