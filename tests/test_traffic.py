import json
from dataclasses import asdict
from unittest import mock

import numpy as np
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
import voxsplat.streaming as streaming
import voxsplat.traffic as traffic
from voxsplat.streaming import COUNTERS, render_tile_streaming, tally
from voxsplat.traffic import STAGES, buffer_reuse, counts_from_stats, merge_sort_pass_bytes
from voxsplat.voxelstore import (COARSE_BYTES_PER_GAUSSIAN, ENCODED_FINE_BYTES,
                                 RAW_FINE_STREAM_BYTES, encode_records, gather_attribute,
                                 load_bytes)
from voxsplat.vq import ATTRIBUTES, DEFAULT_ENTRIES, train_codebook

from conftest import constrained_scene, projection_cache, tile_alone, usable_cpus
from oracles import add_counters, scene_fingerprint


def _stats(loaded=10000, coarse=3000, fine=1000):
    return FilterStats(loaded=loaded, coarse_survivors=coarse, fine_survivors=fine,
                       macs_coarse=loaded * 55, macs_fine=coarse * 372)


def test_ledger_rejects_bad_charges():
    ledger = TrafficLedger()
    with pytest.raises(KeyError):
        ledger.charge("nonsense", 1, 1)
    for nbytes, nrecords in ((-1, 0), (0, -1)):
        with pytest.raises(ValueError):
            ledger.charge("projection", nbytes, nrecords)


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
                        batch_splits=3, blended=777, buffer_peak_bytes=5000,
                        buffer_capacity_bytes=6000)
    assert json.dumps(stats.as_dict()) == (
        '{"filter": {"loaded": 10000, "coarse_survivors": 3000, "fine_survivors": 1000, '
        '"macs_coarse": 550000, "macs_fine": 1116000, "degenerate": 4}, '
        '"voxels_scheduled": 9, "voxels_skipped_early": 2, "cycles_broken": 1, '
        '"batch_splits": 3, "blended": 777, "buffer_peak_bytes": 5000, '
        '"buffer_capacity_bytes": 6000}'
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


@st.composite
def _tile_stream(draw):
    """Counters and keys of a few tiles streamed in order: each tile needs
    the first halves of some voxels of 1-4 splats and the second halves of
    some of their rows, and ``tally``'s other arguments."""
    sizes = np.array(draw(st.lists(st.integers(1, 4), min_size=1, max_size=6)))
    offsets = np.concatenate([[0], np.cumsum(sizes)])
    tiles = draw(st.integers(1, 8))
    counts = np.zeros((len(COUNTERS), tiles), dtype=np.int64)
    keys = ([], [])
    for t in range(tiles):
        voxels = draw(st.sets(st.integers(0, len(sizes) - 1)))
        rows = sorted(r for v in voxels for r in range(offsets[v], offsets[v + 1]))
        coarse = draw(st.sets(st.sampled_from(rows))) if rows else set()
        counts[COUNTERS.index("loaded"), t] = sizes[list(voxels)].sum()
        counts[COUNTERS.index("coarse_survivors"), t] = len(coarse)
        counts[COUNTERS.index("fine_survivors"), t] = draw(st.integers(0, len(coarse)))
        counts[COUNTERS.index("blended"), t] = draw(st.integers(0, 9))
        keys[0].extend(v * (tiles + 1) + t for v in voxels)
        keys[1].extend(r * (tiles + 1) + t for r in coarse)
    return counts, tuple(np.array(k, dtype=np.int64) for k in keys), sizes, draw(st.booleans())


def _tally_at(capacity, counts, keys, sizes, encoded):
    with mock.patch.object(traffic, "BUFFER_BYTES", capacity):
        return tally(counts, keys, sizes, encoded)


@settings(max_examples=200, deadline=None)
@given(stream=_tile_stream(), capacity=st.integers(0, 2000))
def test_a_stream_tally_counts_every_tile_and_charges_no_more_than_its_visits(stream, capacity):
    """Every counter but the buffer's sums the tiles tallied alone; the
    loads never exceed, and with no buffer equal, the visits' charges."""
    counts, keys, sizes, encoded = stream
    ledger, stats = _tally_at(capacity, counts, keys, sizes, encoded)
    want_ledger, want_stats = TrafficLedger(), StreamStats()
    for t in range(counts.shape[1]):
        tile_ledger, tile_stats = _tally_at(0, *tile_alone(counts, keys, t), sizes, encoded)
        add_counters(want_ledger, tile_ledger)
        add_counters(want_stats, tile_stats)
    got, want = stats.as_dict(), want_stats.as_dict()
    assert got["buffer_capacity_bytes"] == capacity
    assert want["buffer_peak_bytes"] <= got["buffer_peak_bytes"] <= max(
        capacity, want["buffer_peak_bytes"])
    for name in ("buffer_peak_bytes", "buffer_capacity_bytes"):
        del got[name], want[name]
    assert got == want
    assert ledger.records["pixel-writeback"] == counts.shape[1] * 256
    for stage in STAGES:
        assert ledger.bytes[stage] <= want_ledger.bytes[stage]
        assert ledger.records[stage] <= want_ledger.records[stage]
    assert ledger.macs == want_ledger.macs
    if capacity == 0:
        assert ledger.as_dict() == want_ledger.as_dict()


@settings(max_examples=200, deadline=None)
@given(stream=_tile_stream(), capacities=st.lists(st.integers(0, 2000), min_size=2, max_size=4))
def test_fetched_bytes_never_rise_as_the_buffer_grows(stream, capacities):
    loads = [_tally_at(capacity, *stream)[0] for capacity in sorted(capacities)]
    for stage in ("coarse-load", "fine-load"):
        fetched = [ledger.bytes[stage] for ledger in loads]
        assert fetched == sorted(fetched, reverse=True)


@settings(max_examples=100, deadline=None)
@given(stream=_tile_stream())
def test_a_buffer_that_holds_the_stream_fetches_each_half_once(stream):
    counts, keys, sizes, encoded = stream
    tiles = counts.shape[1]
    ledger, stats = _tally_at(1 << 40, counts, keys, sizes, encoded)
    first, second = (np.unique(k // (tiles + 1)) for k in keys)
    assert ledger.records["coarse-load"] == sizes[first].sum()
    assert ledger.records["fine-load"] == len(second)
    assert stats.buffer_peak_bytes == sum(load_bytes(encoded, stats.filter.loaded,
                                                     stats.filter.coarse_survivors))


def _two_tiles():
    """Two tiles that each load one 10-splat voxel and need 5 of its rows."""
    counts = np.zeros((len(COUNTERS), 2), dtype=np.int64)
    for counter, per_tile in (("loaded", 10), ("coarse_survivors", 5), ("fine_survivors", 2)):
        counts[COUNTERS.index(counter)] = per_tile
    keys = (np.array([0, 1]), np.repeat(np.arange(5) * 3, 2) + [0, 1] * 5)
    return counts, keys, np.array([10])


@pytest.mark.parametrize("name, tile, value", [
    ("loaded", 1, 9),  # a tile fetching more first halves than it loaded
    ("coarse_survivors", 1, 4),  # or more second halves than it has coarse survivors
    ("loaded", 0, 11),  # the frame's first tile fetching less than it loaded
    ("coarse_survivors", 0, 6),  # or less than its coarse survivors need
])
def test_tally_refuses_fetch_counters_out_of_order(name, tile, value):
    counts, keys, sizes = _two_tiles()
    for capacity in (0, 1 << 20):  # the second tile fetches all or nothing
        _tally_at(capacity, counts, keys, sizes, False)
    counts[COUNTERS.index(name), tile] = value
    with pytest.raises(RuntimeError, match="fetch counters out of order"):
        _tally_at(0, counts, keys, sizes, False)


def test_tally_refuses_a_buffer_holding_more_than_its_capacity(monkeypatch):
    counts, keys, sizes = _two_tiles()
    _, stats = _tally_at(1 << 20, counts, keys, sizes, True)
    assert stats.buffer_peak_bytes == 2 * (16 * 10 + 12 * 5)
    monkeypatch.setattr(streaming, "_oldest_held",
                        lambda ends, capacity: np.zeros(len(ends) - 1, dtype=np.int64))
    _tally_at(2 * (16 * 10 + 12 * 5), counts, keys, sizes, True)
    with pytest.raises(RuntimeError, match="buffer occupancy 440 B exceeds its 439 B capacity"):
        _tally_at(439, counts, keys, sizes, True)


def _buffer_scene(encoded):
    """A cluttered scene whose neighbouring tiles share voxels, raw or encoded
    with 16-entry books, and its grid, records and books."""
    scene = generate_scene(count=3000, bounds=Aabb([-4, -4, -2], [4, 4, 2]), seed=3,
                           max_extent_fraction=0.5)
    grid, records = build_grid(scene, 2.0)
    books = None
    if encoded:
        books = {name: train_codebook(gather_attribute(records, name), 16, seed=0,
                                      attribute=name) for name in ATTRIBUTES}
        records = encode_records(records, books)
    return grid, records, books


def _per_visit_charges(ledger, stats, encoded):
    """Whether ``ledger`` charges every visit: a first half per loaded splat
    and a second half per coarse survivor."""
    per_splat = ENCODED_FINE_BYTES if encoded else RAW_FINE_STREAM_BYTES
    f = stats.filter
    return (ledger.records["coarse-load"] == f.loaded
            and ledger.bytes["coarse-load"] == COARSE_BYTES_PER_GAUSSIAN * f.loaded
            and ledger.records["fine-load"] == f.coarse_survivors
            and ledger.bytes["fine-load"] == per_splat * f.coarse_survivors)


@pytest.mark.parametrize("encoded", [False, True])
def test_a_buffer_of_no_bytes_charges_every_visit(encoded):
    """With no capacity each tile reads all it needs; a camera one tile wide,
    whose tiles have no left neighbour, takes halves from the tiles above."""
    grid, records, books = _buffer_scene(encoded)
    camera = look_at_camera([0, 0, -9], [0, 0, 0], width=16, height=96, focal=300.0)
    with mock.patch.object(traffic, "BUFFER_BYTES", 0):
        _, ledger, stats = render_frame_streaming(camera, grid, records, books)
    assert stats.filter.coarse_survivors > 0
    assert _per_visit_charges(ledger, stats, encoded)
    assert buffer_reuse(ledger, stats.filter) == {"first_half_reuse": 0.0,
                                                  "second_half_reuse": 0.0}
    _, ledger, stats = render_frame_streaming(camera, grid, records, books)
    reuse = buffer_reuse(ledger, stats.filter)
    assert reuse["first_half_reuse"] > 0.0 and reuse["second_half_reuse"] > 0.0


@pytest.mark.parametrize("encoded", [False, True])
def test_fetch_charges_do_not_depend_on_the_round_size_or_the_workers(encoded):
    grid, records, books = _buffer_scene(encoded)
    camera = look_at_camera([0, 0, -9], [0, 0, 0], width=128, height=96)
    frames = []
    for chunk in (1, streaming.FIRST_CHUNK, 1 << 20):
        for threads in (1, 2):
            with mock.patch.object(streaming, "FIRST_CHUNK", chunk), usable_cpus(2):
                frame, ledger, stats = render_frame_streaming(camera, grid, records, books,
                                                              threads=threads)
            frames.append((frame.tobytes(), ledger.as_dict(), stats.as_dict()))
    assert all(frame == frames[0] for frame in frames)
    assert frames[0][1]["records"]["coarse-load"] < frames[0][2]["filter"]["loaded"]


def _row_halves(camera, grid, records):
    """The distinct voxels and coarse-surviving rows the frame's tiles need,
    from its rows rendered one by one, and each tile's working set in bytes."""
    ntx, nty = camera.tile_counts
    cache = projection_cache(camera, grid, records)
    first, second, footprint = set(), set(), []
    for ty in range(nty):
        _, counts, keys = render_tile_streaming([(tx, ty) for tx in range(ntx)], camera, grid,
                                                records, None, cache)
        first.update((keys[0] // (ntx + 1)).tolist())
        second.update((keys[1] // (ntx + 1)).tolist())
        tiles = dict(zip(COUNTERS, counts))
        footprint += sum(load_bytes(False, tiles["loaded"], tiles["coarse_survivors"])).tolist()
    return first, second, footprint


@pytest.mark.parametrize("threads", [1, 2])
def test_a_buffer_that_holds_the_frame_fetches_each_half_once(threads):
    grid, records, books = _buffer_scene(False)
    camera = look_at_camera([0, 0, -9], [0, 0, 0], width=128, height=96)
    first, second, footprint = _row_halves(camera, grid, records)
    with mock.patch.object(traffic, "BUFFER_BYTES", sum(footprint)), usable_cpus(2):
        _, ledger, stats = render_frame_streaming(camera, grid, records, threads=threads)
    sizes = np.diff(records.offsets)
    assert ledger.records["coarse-load"] == sizes[sorted(first)].sum()
    assert ledger.records["fine-load"] == len(second)
    assert stats.buffer_peak_bytes == sum(footprint) == stats.buffer_capacity_bytes
    # room for three tiles, less than a row: more fetches, a lower peak
    capacity = 3 * max(footprint)
    with mock.patch.object(traffic, "BUFFER_BYTES", capacity), usable_cpus(2):
        _, ledger, stats = render_frame_streaming(camera, grid, records, threads=threads)
    assert ledger.records["fine-load"] > len(second)
    assert max(footprint) < stats.buffer_peak_bytes <= capacity
    reuse = buffer_reuse(ledger, stats.filter)
    assert 0.0 < reuse["first_half_reuse"] < 1.0 and 0.0 < reuse["second_half_reuse"] < 1.0


def test_fetched_bytes_of_a_frame_fall_as_the_buffer_grows():
    grid, records, books = _buffer_scene(False)
    camera = look_at_camera([0, 0, -9], [0, 0, 0], width=128, height=96)
    loads = []
    for capacity in (0, 1 << 16, 1 << 18, 1 << 20, 1 << 40):
        with mock.patch.object(traffic, "BUFFER_BYTES", capacity):
            _, ledger, _ = render_frame_streaming(camera, grid, records)
        loads.append((ledger.bytes["coarse-load"], ledger.bytes["fine-load"]))
    for stage in range(2):
        fetched = [load[stage] for load in loads]
        assert fetched == sorted(fetched, reverse=True) and fetched[0] > fetched[-1]


@pytest.mark.parametrize("encoded", [False, True])
def test_the_buffer_moves_only_the_load_charges(encoded):
    """Against a frame with no buffer, which charges every visit as the
    ledger did before the on-chip buffer, the frame and every stream
    counter but the buffer's are equal, and only the coarse-load and
    fine-load charges fall."""
    grid, records, books = _buffer_scene(encoded)
    camera = look_at_camera([0, 0, -9], [0, 0, 0], width=128, height=96)
    frame, ledger, stats = render_frame_streaming(camera, grid, records, books)
    with mock.patch.object(traffic, "BUFFER_BYTES", 0):
        old_frame, old_ledger, old_stats = render_frame_streaming(camera, grid, records, books)
    assert frame.tobytes() == old_frame.tobytes()
    new, old = stats.as_dict(), old_stats.as_dict()
    for name in ("buffer_peak_bytes", "buffer_capacity_bytes"):
        assert new.pop(name) > old.pop(name)
    assert new == old
    assert _per_visit_charges(old_ledger, old_stats, encoded)
    for stage in STAGES:
        moved = stage in ("coarse-load", "fine-load")
        assert (ledger.bytes[stage] < old_ledger.bytes[stage]) == moved
        assert (ledger.bytes[stage] == old_ledger.bytes[stage]) == (not moved)
    assert ledger.macs == old_ledger.macs


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
    _, r_ledger = render_frame_reference(camera, scene, scene_hash=scene_fingerprint(scene))
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
    assert report["coarse_overfetch"] == (
        1.0 - s_stats.filter.fine_survivors / s_stats.filter.coarse_survivors)
    assert 0.0 <= report["coarse_overfetch"] < 1.0


def test_compare_pipelines_rejects_mismatched_scenes():
    s_ledger, r_ledger, s_stats = _rendered_pair(seed=8)
    s_ledger.scene_hash = "deadbeefdeadbeef"
    with pytest.raises(SceneMismatchError):
        compare_pipelines(s_ledger, r_ledger, s_stats.filter)
    # an unstamped streaming ledger matches no scene, not even an unstamped reference
    s_ledger.scene_hash = ""
    for ref_hash in (r_ledger.scene_hash, ""):
        r_ledger.scene_hash = ref_hash
        with pytest.raises(SceneMismatchError):
            compare_pipelines(s_ledger, r_ledger, s_stats.filter)


def test_all_survivors_means_zero_gaussian_reduction():
    stats = FilterStats(loaded=500, coarse_survivors=500, fine_survivors=500)
    a = TrafficLedger(scene_hash="x")
    b = TrafficLedger(scene_hash="x")
    report = compare_pipelines(a, b, stats)
    assert report["gaussian_reduction"] == 0.0
    assert report["coarse_overfetch"] == 0.0


def test_no_coarse_survivor_means_no_coarse_overfetch():
    stats = FilterStats(loaded=500, coarse_survivors=0, fine_survivors=0)
    report = compare_pipelines(TrafficLedger(scene_hash="x"), TrafficLedger(scene_hash="x"),
                               stats)
    assert report["coarse_overfetch"] is None


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
