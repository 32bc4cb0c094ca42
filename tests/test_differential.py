"""Vectorized hot loops against their per-splat / per-visit test oracles.

``blend`` evaluates blocks of splats as one array, ``traverse`` walks the
rays of a whole tile row at once, ``schedule`` orders a row's tiles from one
sort-free dedupe, the renderer streams a row's tiles through the filters
together in rounds and projects each voxel once per frame, the store
encodes all voxels in one call per attribute, and the metrics scan whole
arrays; all must reproduce the straightforward forms in ``oracles.py`` bit
for bit.
"""

import hashlib
import struct
import warnings
from collections import deque
from dataclasses import fields
from typing import NamedTuple
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import oracles
import voxsplat.filtering as filtering_mod
import voxsplat.reference as reference_mod
import voxsplat.scene as scene_mod
import voxsplat.scheduler as scheduler_mod
import voxsplat.streaming as streaming_mod
import voxsplat.traffic as traffic_mod
from voxsplat import (
    Aabb,
    Camera,
    Scene,
    VoxelStore,
    cbp_loss,
    cli,
    cross_boundary_stats,
    generate_scene,
    load_ply,
    load_store,
    look_at_camera,
    save_store,
    train_codebook,
)
from voxsplat.errors import PlySchemaError
from voxsplat.blending import (
    ALPHA_CAP,
    ALPHA_MIN,
    BLEND_BLOCK,
    T_FREEZE,
    blend,
)
from voxsplat.filtering import (
    COARSE_MACS,
    FilterStats,
    ProjectedBatch,
    ProjectionCache,
    coarse_filter,
    fine_filter,
    project_splats,
    projected_covariance,
    quat_to_rotmat,
    tile_rects,
)
from voxsplat.metrics import extent_boxes
from voxsplat.reference import render_frame_reference
from voxsplat.scene import TILE_EDGE, tile_pixels
from voxsplat.scheduler import TileVisits, schedule, traverse, visibility_key, voxel_depths
from voxsplat.sh import evaluate_sh, sh_basis
from voxsplat.streaming import StreamStats, render_frame_streaming, render_tile_streaming, tally
from voxsplat.traffic import TrafficLedger
from voxsplat.voxelstore import FlatRecords, VoxelGrid, gather_attribute, stream_fine
from voxsplat.vq import ATTRIBUTE_DIMS, ATTRIBUTES

from conftest import constrained_scene, filter_voxel, projection_cache, tile_alone, usable_cpus
from oracles import (
    add_counters,
    blend_per_splat,
    cbp_loss_loop,
    coarse_filter_per_visit,
    dda_start,
    encode_per_voxel,
    evaluate_sh_row_major,
    extent_half_einsum,
    fine_filter_per_visit,
    key_table,
    per_voxel_crossings_loop,
    projected_covariance_einsum,
    quat_to_rotmat_row_major,
    render_frame_per_visit,
    render_frame_reference_per_tile,
    render_tile_per_visit,
    rows_of,
    sh_basis_row_major,
    tiles_of,
    traverse_per_visit,
    visits_of,
)

B = BLEND_BLOCK
LENGTHS = [0, 1, B - 1, B, B + 1, 3 * B + 5]
TILE = (1, 2)
CENTERS = tile_pixels([TILE])[0] + 0.5


def _batch(rng, n, opaque_share, clamp_share):
    """Depth-sorted splats around TILE; a share of wide, near-opaque splats
    makes pixels freeze part-way through, and a share sits exactly on the
    alpha clamps."""
    wide = rng.random(n) < opaque_share
    mean2d = CENTERS[rng.integers(0, len(CENTERS), n)] + rng.normal(0.0, 6.0, (n, 2))
    sigma = np.where(wide, rng.uniform(8.0, 40.0, n), rng.uniform(0.4, 6.0, n))
    a = 1.0 / sigma**2 * rng.uniform(0.5, 2.0, n)
    c = 1.0 / sigma**2 * rng.uniform(0.5, 2.0, n)
    b = rng.uniform(-0.9, 0.9, n) * np.sqrt(a * c)
    opacity = np.where(wide, rng.uniform(0.6, 1.0, n), rng.uniform(0.0, 1.0, n))
    # splats centered on a pixel center: alpha == opacity there, so these
    # opacities put that pixel's alpha exactly on (or next to) the clamps
    clamp = rng.random(n) < clamp_share
    on_grid = CENTERS[rng.integers(0, len(CENTERS), n)]
    mean2d = np.where(clamp[:, None], on_grid, mean2d)
    edges = np.array([ALPHA_MIN, np.nextafter(ALPHA_MIN, 0.0), np.nextafter(ALPHA_MIN, 1.0),
                      ALPHA_CAP, np.nextafter(ALPHA_CAP, 0.0), 1.0])
    opacity = np.where(clamp, edges[rng.integers(0, len(edges), n)], opacity)
    depth = np.sort(rng.uniform(1.0, 30.0, n))
    return ProjectedBatch(
        mean2d=mean2d,
        conic=np.stack([a, b, c], axis=1),
        radius=3.0 * sigma,
        depth=depth,
        rgb=rng.random((n, 3)),
        opacity=opacity,
        ids=np.arange(n),
    )


def _pixel_state(rng, frozen_share, edge_share):
    """Entry state: some pixels frozen on entry, some a hair above T_FREEZE."""
    n = len(CENTERS)
    transmittance = rng.uniform(0.0, 1.0, n) ** 3
    transmittance[rng.random(n) < frozen_share] = rng.uniform(0.0, T_FREEZE)
    edge = rng.random(n) < edge_share
    transmittance[edge] = T_FREEZE * rng.uniform(1.0, 1.05, edge.sum())
    transmittance[rng.random(n) < edge_share] = T_FREEZE
    color = rng.random((n, 3)) * (1.0 - transmittance[:, None])
    color[rng.random(n) < 0.05] = -0.0
    return color, transmittance


def _tile_states(rng, frozen):
    """Entry states of tiles stacked as (tiles, 256, ...), tile t with a
    ``frozen[t]`` share of its pixels frozen."""
    states = [_pixel_state(rng, share, edge_share=0.1) for share in frozen]
    return np.stack([c for c, _ in states]), np.stack([t for _, t in states])


def _blend_both(batch, rows, bounds, centers, color, transmittance):
    """The tiles blended by ``blend`` and by the oracle; each gives per tile
    its count, pixels and processed rows.  ``blend``'s processed rows are
    the first ``processed[t]`` of tile t's."""
    tiles = range(len(centers))
    col, t = color.copy(), transmittance.copy()
    n = blend(batch, rows, bounds, centers, col, t)
    done = [rows[bounds[k] : bounds[k] + n[k]].tolist() for k in tiles]
    got = (n.tolist(), col, t, done)
    col, t = color.copy(), transmittance.copy()
    trace = [[] for _ in tiles]
    n = blend_per_splat(batch, rows, bounds, centers, col, t, trace=trace)
    return got, (n.tolist(), col, t, trace)


def _run_both(batch, color, transmittance):
    """``batch`` blended into one tile, row after row, by ``blend`` and by
    the oracle."""
    rows = np.arange(len(batch.ids))
    both = _blend_both(batch, rows, [0, len(rows)], CENTERS[None], color[None],
                       transmittance[None])
    return [tuple(part[0] for part in result) for result in both]


def _assert_same(got, want):
    n, col, t, trace = got
    assert n == want[0]
    assert col.tobytes() == want[1].tobytes()
    assert t.tobytes() == want[2].tobytes()
    assert trace == want[3]


def _oracle_pixel_trace(batch, rows, center):
    """The rows the per-splat oracle sees reach the one pixel at ``center``
    of a fresh pixel state, blending ``rows`` in order."""
    hits = (0, [[]])
    blend_per_splat(batch, np.asarray(rows, dtype=np.int64), [0, len(rows)],
                    np.reshape(center, (1, 1, 2)), np.zeros((1, 1, 3)), np.ones((1, 1)),
                    pixel_trace=hits)
    return hits[1][0]


@settings(max_examples=120, deadline=None)
@given(
    length=st.sampled_from(LENGTHS),
    seed=st.integers(0, 2**32 - 1),
    opaque_share=st.sampled_from([0.0, 0.05, 0.3, 1.0]),
    clamp_share=st.sampled_from([0.0, 0.2, 1.0]),
    frozen_share=st.sampled_from([0.0, 0.5, 0.97, 1.0]),
    edge_share=st.sampled_from([0.0, 0.1]),
)
def test_block_blend_matches_per_splat_oracle(
    length, seed, opaque_share, clamp_share, frozen_share, edge_share
):
    rng = np.random.default_rng(seed)
    batch = _batch(rng, length, opaque_share, clamp_share)
    color, transmittance = _pixel_state(rng, frozen_share, edge_share)
    got, want = _run_both(batch, color, transmittance)
    _assert_same(got, want)


@settings(max_examples=120, deadline=None)
@given(
    length=st.sampled_from(LENGTHS),
    seed=st.integers(0, 2**32 - 1),
    opaque_share=st.sampled_from([0.0, 0.05, 0.3, 1.0]),
    clamp_share=st.sampled_from([0.0, 0.2, 1.0]),
    edge=st.booleans(),
    pixel=st.integers(0, 255),
)
def test_pixel_trace_matches_per_splat_oracle(length, seed, opaque_share, clamp_share, edge,
                                              pixel):
    """``compare``'s center-pixel trace re-blends a tile's rows into one
    fresh pixel, a row per ``blend`` call, and keeps the rows that lowered
    its transmittance: exactly the rows the per-splat oracle sees reach the
    pixel.  With ``edge``, the first two rows sit on the pixel's center at
    opacity 1, so two capped alphas leave its transmittance (1 - 0.99)^2, a
    hair above T_FREEZE."""
    rng = np.random.default_rng(seed)
    batch = _batch(rng, length, opaque_share, clamp_share)
    if edge:
        batch.mean2d[:2], batch.opacity[:2] = CENTERS[pixel], 1.0
    rows = np.arange(length)
    assert cli._pixel_trace(batch, rows, CENTERS[pixel]) == _oracle_pixel_trace(
        batch, rows, CENTERS[pixel])


@pytest.mark.parametrize("encoded", [False, True])
def test_traces_and_penalties_of_every_sampled_tile_match_the_oracles(encoded):
    """On the tiles ``compare`` samples, each tile's trace holds the rows the
    oracle processes blending that tile, and the center-pixel trace the rows
    it sees reach that pixel, on raw records and on decoded ones.  The
    penalties score each row by its max scale as rendered: the codebook's,
    not the record's first half, when the records are encoded."""
    store, books = _small_store(3, encoded)
    camera = look_at_camera([0.0, 0.0, -6.0], [0.0, 0.0, 6.0], width=128, height=128,
                            focal=100.0)
    ntx, nty = camera.tile_counts
    tiles = [(tx, ty) for ty in range(2, nty, 4) for tx in range(2, ntx, 4)]
    cache = projection_cache(camera, store.grid, store.records)
    traces = [[] for _ in tiles]
    render_tile_streaming(tiles, camera, store.grid, store.records, books, trace=traces,
                          cache=cache)
    reached = []
    for trace, centers in zip(traces, tile_pixels(tiles) + 0.5):
        processed = [[]]
        blend_per_splat(cache.batch, np.array(trace, dtype=np.int64), [0, len(trace)],
                        centers[None], np.zeros((1, 256, 3)), np.ones((1, 256)),
                        trace=processed)
        assert processed[0] == trace
        reached.append(cli._pixel_trace(cache.batch, trace, centers[136]))
        assert reached[-1] == _oracle_pixel_trace(cache.batch, trace, centers[136])
    assert all(traces) and any(reached)
    scales = books["scale"].entries[store.records.scale_idx] if encoded else store.records.scales
    max_scales = scales.max(axis=1).astype(np.float64)

    def penalty(traces):
        return float(np.mean([cbp_loss_loop(zip(cache.batch.depth[rows], max_scales[rows]))
                              for rows in traces]))

    got = cli._cbp_diagnostics(store, books, camera)
    assert (got["per_tile_trace"], got["per_pixel_trace"]) == (penalty(traces), penalty(reached))
    assert got["per_pixel_trace"] > 0


@pytest.mark.parametrize("length", LENGTHS)
def test_block_blend_freezing_every_pixel_mid_block(length):
    """Wide opaque splats freeze the whole tile a few splats in, so blend
    stops early; the count, the traces and the frozen state must agree."""
    rng = np.random.default_rng(length)
    batch = _batch(rng, length, opaque_share=1.0, clamp_share=0.0)
    color = np.zeros((len(CENTERS), 3))
    transmittance = np.ones(len(CENTERS))
    got, want = _run_both(batch, color, transmittance)
    _assert_same(got, want)
    if length > 8:
        assert got[0] < length
        assert np.all(got[2] < T_FREEZE)


def test_block_blend_all_frozen_on_entry_processes_nothing():
    rng = np.random.default_rng(3)
    batch = _batch(rng, B + 1, opaque_share=0.3, clamp_share=0.2)
    color, transmittance = _pixel_state(rng, frozen_share=1.0, edge_share=0.0)
    got, want = _run_both(batch, color, transmittance)
    _assert_same(got, want)
    assert got[0] == 0 and got[3] == []


def test_block_blend_alpha_clamps_at_a_pixel_center():
    """A splat centered on a pixel has alpha == opacity there: 1/255 is
    blended, the next float below is skipped, and opacity 1 caps at 0.99."""
    opacity = np.array([np.nextafter(ALPHA_MIN, 0.0), ALPHA_MIN, 1.0])
    n = len(opacity)
    batch = ProjectedBatch(
        mean2d=np.repeat(CENTERS[5:6], n, axis=0),
        conic=np.tile([4.0, 0.0, 4.0], (n, 1)),
        radius=np.ones(n),
        depth=np.arange(1.0, n + 1.0),
        rgb=np.ones((n, 3)),
        opacity=opacity,
        ids=np.arange(n),
    )
    got, want = _run_both(batch, np.zeros((256, 3)), np.ones(256))
    _assert_same(got, want)
    rows = np.arange(n)
    reached = cli._pixel_trace(batch, rows, CENTERS[5])
    assert reached == _oracle_pixel_trace(batch, rows, CENTERS[5]) == [1, 2]  # depths 2.0, 3.0
    assert got[2][5] == (1.0 - ALPHA_MIN) * (1.0 - ALPHA_CAP)


@settings(max_examples=60, deadline=None)
@given(
    lengths=st.lists(st.sampled_from([0, 1, 7, B, B + 3]), min_size=1, max_size=5),
    seed=st.integers(0, 2**32 - 1),
    frozen=st.lists(st.sampled_from([0.0, 0.5, 1.0]), min_size=5, max_size=5),
)
# ragged tiles, empty ones, and tiles frozen on entry beside live ones
@example(lengths=[B + 3, 0, 7, 0, 1], seed=0, frozen=[0.0, 0.0, 1.0, 1.0, 0.5])
def test_multi_tile_blend_matches_per_splat_oracle(lengths, seed, frozen):
    """Several tiles in one call: each tile's count, pixels and traces equal
    the per-splat oracle's."""
    rng = np.random.default_rng(seed)
    tiles = [(TILE[0] + t, TILE[1]) for t in range(len(lengths))]
    parts = []
    for t, n in enumerate(lengths):
        part = _batch(rng, n, opaque_share=0.3, clamp_share=0.2)
        part.mean2d[:, 0] += t * TILE_EDGE  # around tile t, still on its pixel grid
        parts.append(part)
    batch = ProjectedBatch(*[np.concatenate([getattr(part, f) for part in parts])
                             for f in ProjectedBatch.__dataclass_fields__])
    bounds = np.concatenate([[0], np.cumsum(lengths)]).tolist()
    color, transmittance = _tile_states(rng, frozen[: len(lengths)])
    got, want = _blend_both(batch, np.arange(bounds[-1]), bounds, tile_pixels(tiles) + 0.5,
                            color, transmittance)
    _assert_same(got, want)
    assert all(n == 0 for n, length in zip(got[0], lengths) if not length)


@settings(max_examples=60, deadline=None)
@given(
    lengths=st.lists(st.sampled_from([0, 1, 7, B, B + 3]), min_size=1, max_size=5),
    seed=st.integers(0, 2**32 - 1),
    frozen=st.lists(st.sampled_from([0.0, 0.5, 1.0]), min_size=5, max_size=5),
)
# a long tile, empty ones and ones frozen on entry, drawing on one pool of rows
@example(lengths=[B + 3, 0, 7, 0, B], seed=0, frozen=[0.0, 0.0, 1.0, 1.0, 0.5])
def test_blend_reading_rows_in_place_equals_the_oracle_on_a_gathered_copy(
    lengths, seed, frozen
):
    """Each tile's rows are unsorted and repeat across tiles, as the reference
    duplicates a splat into every tile its disc meets.  ``blend`` reading
    them where they lie equals the per-splat oracle on a copy gathered in
    blend order, and each tile's first ``processed[t]`` rows are exactly the
    splats the oracle processed."""
    rng = np.random.default_rng(seed)
    tiles = [(TILE[0] + t, TILE[1]) for t in range(len(lengths))]
    pool = _batch(rng, 2 * B, opaque_share=0.3, clamp_share=0.2)
    pool.mean2d[:, 0] += rng.integers(0, len(tiles), 2 * B) * TILE_EDGE  # still on the pixel grid
    rows = np.concatenate([rng.choice(2 * B, n, replace=False) for n in lengths]).astype(np.int64)
    bounds = np.concatenate([[0], np.cumsum(lengths)]).tolist()
    color, transmittance = _tile_states(rng, frozen[: len(lengths)])
    centers = tile_pixels(tiles) + 0.5
    got, _ = _blend_both(pool, rows, bounds, centers, color, transmittance)
    _, want = _blend_both(oracles.take(pool, rows), np.arange(len(rows)), bounds, centers, color,
                          transmittance)
    # the oracle ran on the copy: its trace holds positions in ``rows``
    want = (*want[:3], [rows[at].tolist() for at in want[3]])
    _assert_same(got, want)
    assert got[3] == [rows[a : a + n].tolist() for a, n in zip(bounds, got[0])]


def _grid(seed, count=300):
    return VoxelStore.build(constrained_scene(seed, count=count), 2.0).grid


def _walks(camera, grid):
    """Every tile's walk four ways: one ``traverse`` per tile row (as the
    renderer walks), one per tile, one for the whole frame, and the per-tile
    per-visit oracle; each split into one walk per tile."""
    ntx, nty = camera.tile_counts
    rows = [[(tx, ty) for tx in range(ntx)] for ty in range(nty)]
    tiles = [tile for row in rows for tile in row]
    return (
        [visits for row in rows for visits in tiles_of(traverse(row, camera, grid))],
        [visits for tile in tiles for visits in tiles_of(traverse([tile], camera, grid))],
        tiles_of(traverse(tiles, camera, grid)),
        tiles_of(traverse_per_visit(tiles, camera, grid)),
    )


def _assert_same_walks(walks):
    first = walks[0]
    for other in walks[1:]:
        assert len(other) == len(first)
        for got, want in zip(first, other):
            assert got.ids.dtype == want.ids.dtype
            assert got.ids.tobytes() == want.ids.tobytes()
            assert got.counts.tobytes() == want.counts.tobytes()


class WalkCase(NamedTuple):
    """A camera and grid to walk, and what the reference walk must see:
    ``edge`` "tie" means the ray of ``pixel`` starts with three equal face
    distances, "graze" that it enters and leaves the grid at one ray
    parameter, and "miss" that every ray misses."""

    camera: Camera
    grid: VoxelGrid
    edge: str = ""
    pixel: tuple[int, int] = (0, 0)


def _random_walk(seed, distance, away, tiles) -> WalkCase:
    rng = np.random.default_rng(seed)
    grid = _grid(seed % 7)
    direction = rng.normal(size=3)
    direction /= np.linalg.norm(direction)
    eye = direction * distance + rng.uniform(-4.0, 4.0, 3)
    # looking away from the grid makes every ray miss; otherwise the frame
    # edges of a wide view still miss while the middle crosses the grid
    target = eye + direction if away else rng.uniform(-6.0, 6.0, 3)
    camera = look_at_camera(eye, target, width=16 * tiles[0], height=16 * tiles[1],
                            focal=rng.uniform(10.0, 200.0))
    return WalkCase(camera, grid)


def _full_grid(dims):
    """A unit-edge grid at the origin with every cell non-empty."""
    return VoxelGrid(origin=[0.0, 0.0, 0.0], edge=1.0, dims=dims, vids=np.arange(np.prod(dims)))


def _unit_camera(eye, cx=0.5, cy=0.5):
    """A 16x16 camera at ``eye`` looking down +z with focal 8 and no
    rotation, so its ray directions are exact: pixel (8, 8) shoots (1, 1, 1),
    and with the principal point at 8.5 column and row 8 shoot rays with a
    zero x or y component."""
    return Camera(width=16, height=16, fx=8.0, fy=8.0, cx=cx, cy=cy, rotation=np.eye(3),
                  translation=-np.asarray(eye, dtype=np.float64))


def _far_axis_camera():
    """Looks down +z from x = 5e8 with the principal point on a pixel center:
    the rays of column 8 have a zero x component, whose slab distances
    overflow to -inf."""
    obj = look_at_camera([5e8, 0.0, -10.0], [5e8, 0.0, 0.0], width=16, height=16,
                         focal=50.0).to_json()
    obj["cx"] = obj["cy"] = 8.5
    return Camera.from_json(obj)


@settings(max_examples=40, deadline=None)
@given(case=st.builds(
    _random_walk,
    seed=st.integers(0, 2**32 - 1),
    distance=st.floats(2.0, 40.0),
    away=st.booleans(),
    tiles=st.tuples(st.integers(1, 4), st.integers(1, 4)),
))
@example(case=_random_walk(0, 10.0, False, (1, 1)))
@example(case=_random_walk(1, 10.0, True, (3, 2)))
# zero direction components, clamped to 1e-300; column 8 runs in the face plane x = 2
@example(case=WalkCase(_unit_camera([2.0, 1.5, -3.0], cx=8.5, cy=8.5), _full_grid((4, 4, 4))))
# from a lattice point along (1, 1, 1): x, y and z faces tie, and argmin steps x first
@example(case=WalkCase(_unit_camera([-1.0, -1.0, -1.0]), _full_grid((3, 3, 3)), "tie", (8, 8)))
# the eye inside the grid, among empty voxels
@example(case=WalkCase(
    look_at_camera([1.3, 1.7, 1.1], [3.0, 2.5, 3.5], width=32, height=16, focal=10.0),
    VoxelGrid(origin=[0.0, 0.0, 0.0], edge=1.0, dims=[4, 4, 4], vids=np.arange(0, 64, 3)),
))
# a single voxel
@example(case=WalkCase(
    look_at_camera([1.0, 1.0, -5.0], [1.0, 1.0, 1.0], width=16, height=16, focal=8.0),
    VoxelGrid(origin=[0.0, 0.0, 0.0], edge=2.0, dims=[1, 1, 1], vids=[0]),
))
# (1, 1, 1) from (2, -1, 0) touches the grid only on its edge x = 3, y = 0
@example(case=WalkCase(_unit_camera([2.0, -1.0, 0.0]), _full_grid((3, 3, 3)), "graze", (8, 8)))
@example(case=WalkCase(_far_axis_camera(), _grid(0, count=100), "miss"))
def test_array_built_ray_table_matches_per_visit_builder(case):
    walks = _walks(case.camera, case.grid)
    _assert_same_walks(walks)
    if case.edge == "miss":
        assert all(not visits.counts.any() for visits in walks[0])
    elif case.edge:
        x, y = case.pixel
        pixels = tile_pixels([(x // TILE_EDGE, y // TILE_EDGE)])[0]
        start = dda_start(case.camera.position,
                          case.camera.ray_directions(pixels[:, 0], pixels[:, 1]), case.grid)
        ray = (y % TILE_EDGE) * TILE_EDGE + x % TILE_EDGE
        if case.edge == "tie":
            assert start.t_next[ray, 0] == start.t_next[ray, 1] == start.t_next[ray, 2]
        else:
            assert start.t_enter[ray] == start.t_exit[ray]


def test_ray_table_covers_hits_and_misses():
    """A camera inside the grid's slab: some rays cross voxels, some miss.
    Turned away from the grid, every ray misses."""
    grid = _grid(0)
    camera = look_at_camera([0.0, 0.0, -10.0], [0.0, 0.0, 0.0], width=64, height=64, focal=12.0)
    walks = _walks(camera, grid)
    _assert_same_walks(walks)
    lengths = [len(row) for visits in walks[0] for row in rows_of(visits)]
    assert min(lengths) == 0 and max(lengths) > 1
    away = look_at_camera([0.0, 0.0, -10.0], [0.0, 0.0, -20.0], width=48, height=32, focal=12.0)
    walks = _walks(away, grid)
    _assert_same_walks(walks)
    assert all(len(visits.ids) == 0 and not visits.counts.any() for visits in walks[0])


def test_walk_of_no_tiles_is_empty():
    camera = look_at_camera([0.0, 0.0, -10.0], [0.0, 0.0, 0.0], width=64, height=64)
    visits = traverse([], camera, _grid(0))
    assert tiles_of(visits) == []
    assert len(visits.ids) == 0 and visits.counts.shape == (0, TILE_EDGE**2)


def _assert_same_arrays(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert (a.dtype, a.shape) == (b.dtype, b.shape)
        assert a.tobytes() == b.tobytes()


def _axis_camera_x(eye):
    """A 16x16 camera at ``eye`` looking down +x with focal 8 and the
    principal point on pixel centers: column 8 shoots rays with a zero
    z component and row 8 rays with a zero y component."""
    rotation = np.array([[0.0, 0.0, -1.0], [0.0, 1.0, 0.0], [1.0, 0.0, 0.0]])
    return Camera(width=16, height=16, fx=8.0, fy=8.0, cx=8.5, cy=8.5, rotation=rotation,
                  translation=-rotation @ np.asarray(eye, dtype=np.float64))


def _wide_grid_case():
    """1e5 non-empty unit voxels under a narrow one-tile camera: the row's
    (tile, voxel) key space is far wider than its visits."""
    grid = VoxelGrid(origin=[0.0, 0.0, 0.0], edge=1.0, dims=[100, 100, 10],
                     vids=np.arange(100_000))
    camera = look_at_camera([50.3, 49.6, -20.0], [50.0, 50.0, 5.0], width=16, height=16,
                            focal=400.0)
    return WalkCase(camera, grid, "wide")


@settings(max_examples=40, deadline=None)
@given(case=st.builds(
    _random_walk,
    seed=st.integers(0, 2**32 - 1),
    distance=st.floats(2.0, 40.0),
    away=st.booleans(),
    tiles=st.tuples(st.integers(1, 4), st.integers(1, 4)),
), picks=st.lists(st.integers(0, 15), max_size=6))
@example(case=_random_walk(0, 10.0, False, (2, 2)), picks=[])
@example(case=_random_walk(1, 10.0, True, (3, 2)), picks=[0, 4, 5])
@example(case=WalkCase(_far_axis_camera(), _grid(0, count=100), "miss"), picks=[0])
# rays with a zero component run inside grid planes: x = 2 and y = 1 looking down +z,
# y = 1 and z = 2 looking down +x
@example(case=WalkCase(_unit_camera([2.0, 1.0, -3.0], cx=8.5, cy=8.5), _full_grid((4, 4, 4))),
         picks=[0])
@example(case=WalkCase(_axis_camera_x([-3.0, 1.0, 2.0]), _full_grid((4, 4, 4))), picks=[0])
@example(case=WalkCase(_unit_camera([-1.0, -1.0, -1.0]), _full_grid((3, 3, 3)), "tie"), picks=[0])
@example(case=_wide_grid_case(), picks=[0])
def test_sort_free_walk_and_schedule_match_the_sorting_oracles(case, picks):
    """``traverse`` gives the bytes of the argsort walk, and ``schedule`` each
    tile's voxels in the order a plain sort by the visibility key puts them,
    on any list of tiles; a row whose (tile, key) space is far wider than its
    visits falls back to ``np.unique``."""
    ntx, nty = case.camera.tile_counts
    tiles = [(i % ntx, i // ntx % nty) for i in picks]
    visits = traverse(tiles, case.camera, case.grid)
    want = oracles.traverse_argsort(tiles, case.camera, case.grid)
    _assert_same_arrays(visits, want)
    if case.edge == "miss":
        assert not visits.counts.any()
    key = visibility_key(case.camera, case.grid, voxel_depths(case.camera, case.grid))
    with mock.patch.object(np, "unique", wraps=np.unique) as unique:
        plan = schedule(visits, key)
    if case.edge == "wide":
        assert len(visits.ids) < 1e4 and unique.called
    assert plan.ids.dtype == np.int64 and len(plan.offsets) == len(tiles) + 1
    for t, walk in enumerate(tiles_of(want)):
        assert (plan.ids[plan.offsets[t] : plan.offsets[t + 1]].tolist()
                == oracles.visibility_sorted(walk, case.camera, case.grid))


def _consecutive(visits):
    """Every pair of consecutive visits of one ray of a walk, as (earlier
    renamed id, later renamed id, the ray's tile)."""
    ray = np.repeat(np.arange(visits.counts.size), visits.counts.ravel())
    same = ray[1:] == ray[:-1]
    return visits.ids[:-1][same], visits.ids[1:][same], ray[1:][same] // TILE_EDGE**2


# the 24 rotations that map each axis onto an axis
_AXIS_VIEWS = [m for perm in ([0, 1, 2], [1, 2, 0], [2, 0, 1], [0, 2, 1], [2, 1, 0], [1, 0, 2])
               for signs in np.ndindex(2, 2, 2)
               for m in [np.eye(3)[perm] * (1 - 2 * np.array(signs))[:, None]]
               if np.linalg.det(m) > 0]


@st.composite
def _proof_cases(draw):
    """A grid and a 32x32 camera: the eye inside the grid, outside it, or
    exactly on grid planes (origin + k * edge), looking along an axis through
    pixel (16, 16) or anywhere, with focal lengths from 1 to 1e5."""
    dims = np.array(draw(st.tuples(*[st.integers(1, 5)] * 3)))
    edge = draw(st.sampled_from([0.3, 0.5, 1.0, 2.0]))
    scale = draw(st.sampled_from([1.0, 0.7]))
    origin = np.array(draw(st.tuples(*[st.integers(-3, 3)] * 3))) * scale
    cells = draw(st.lists(st.integers(0, int(dims.prod()) - 1), min_size=1, unique=True))
    grid = VoxelGrid(origin=origin, edge=edge, dims=dims, vids=sorted(cells))
    size = dims * edge
    u = np.array(draw(st.tuples(*[st.floats(0.0, 1.0)] * 3)))
    where = draw(st.sampled_from(["inside", "outside", "plane"]))
    eye = origin + u * size if where == "inside" else origin - 2.0 * size + 5.0 * u * size
    if where == "plane":
        for axis in draw(st.lists(st.integers(0, 2), min_size=1, max_size=3, unique=True)):
            eye[axis] = origin[axis] + draw(st.integers(-2, int(dims[axis]) + 2)) * edge
    if draw(st.booleans()):
        rotation = draw(st.sampled_from(_AXIS_VIEWS))
        cx = cy = 16.5
    else:
        q = np.array(draw(st.tuples(*[st.floats(-1.0, 1.0)] * 4)))
        q = q / np.linalg.norm(q) if np.linalg.norm(q) > 1e-3 else np.array([1.0, 0.0, 0.0, 0.0])
        rotation = quat_to_rotmat(q[None])[0]
        cx, cy = draw(st.floats(-40.0, 72.0)), draw(st.floats(-40.0, 72.0))
    focal = draw(st.one_of(st.sampled_from([1.0, 1e5]), st.floats(1.0, 1e5)))
    camera = Camera(width=32, height=32, fx=focal, fy=focal, cx=cx, cy=cy, rotation=rotation,
                    translation=-rotation @ eye)
    return camera, grid


@settings(max_examples=150, deadline=None)
@given(case=_proof_cases())
# inside the grid on three planes, looking down +z: rays run inside grid planes
@example(case=(_unit_camera([2.0, 1.0, 2.0], cx=8.5, cy=8.5), _full_grid((4, 4, 4))))
@example(case=(_axis_camera_x([-3.0, 1.0, 2.0]), _full_grid((4, 4, 4))))
def test_the_cell_distance_rises_along_every_ray_and_each_order_extends_them(case):
    """The proof in ``scheduler``'s docstring, checked: along every ray of
    ``traverse`` and of the argsort walk, the Manhattan distance in cells
    from the eye's cell rises strictly from each visit to the next, and each
    tile's ``schedule`` holds its distinct voxels with every ray's earlier
    visit first."""
    camera, grid = case
    ntx, nty = camera.tile_counts
    tiles = [(tx, ty) for ty in range(nty) for tx in range(ntx)]
    visits = traverse(tiles, camera, grid)
    distance = np.abs(grid.cell_of_vid(grid.vids) - grid.cell_of(camera.position)).sum(axis=1)
    for walk in (visits, oracles.traverse_argsort(tiles, camera, grid)):
        earlier, later, _ = _consecutive(walk)
        assert np.all(distance[later] > distance[earlier])
    plan = schedule(visits, visibility_key(camera, grid, voxel_depths(camera, grid)))
    n = grid.nonempty_count
    nodes = np.repeat(np.arange(len(tiles)), np.diff(plan.offsets)) * n + plan.ids
    tile_of_visit = np.repeat(np.arange(len(tiles)), visits.counts.sum(axis=1))
    assert sorted(nodes.tolist()) == np.unique(tile_of_visit * n + visits.ids).tolist()
    position = np.full(len(tiles) * n, -1)
    position[nodes] = np.arange(len(nodes))
    earlier, later, tile = _consecutive(visits)
    assert np.all(position[tile * n + earlier] < position[tile * n + later])


@settings(max_examples=100, deadline=None)
@given(keys=st.lists(st.integers(0, 5000), max_size=600), spare=st.integers(0, 20000))
@example(keys=[], spare=0)
@example(keys=[7, 7, 0], spare=4112)  # a key space of 8 * 3 + 4096 takes the mask
@example(keys=[7, 7, 0], spare=4113)  # one more takes np.unique
def test_dedupe_helper_equals_unique_on_both_sides_of_its_mask_bound(keys, spare):
    keys = np.array(keys, dtype=np.int64)
    space = int(keys.max(initial=-1)) + 1 + spare
    with mock.patch.object(np, "unique", wraps=np.unique) as unique:
        got = scheduler_mod._distinct(keys, space)
    assert unique.called == (space > 8 * len(keys) + 4096)
    want = np.unique(keys)
    assert (got.dtype, got.tobytes()) == (want.dtype, want.tobytes())


def _cluttered_fixture():
    scene = generate_scene(
        count=8000,
        bounds=Aabb([-4.0, -4.0, 2.0], [4.0, 4.0, 12.0]),
        seed=5,
        max_extent_fraction=1.0,
        voxel_edge=2.0,
        opacity_range=(0.5, 0.98),
    )
    camera = look_at_camera([0.0, 0.0, -8.0], [0.0, 0.0, 7.0], width=48, height=48, focal=100.0)
    return scene, camera


def _frames(scene, camera, store):
    stream, stream_ledger, stats = render_frame_streaming(camera, store.grid, store.records)
    ref, ref_ledger = render_frame_reference(camera, scene)
    return (
        stream.tobytes(),
        ref.tobytes(),
        stream_ledger.as_dict(),
        ref_ledger.as_dict(),
        stats.as_dict(),
    )


@pytest.mark.parametrize("kind", ["constrained", "cluttered"])
def test_whole_frames_match_with_the_oracles_patched_in(kind, monkeypatch):
    if kind == "constrained":
        scene = constrained_scene(2, count=300)
        camera = look_at_camera([0.0, 0.0, -10.0], [0.0, 0.0, 0.0], width=64, height=64,
                                focal=75.0)
    else:
        scene, camera = _cluttered_fixture()
    store = VoxelStore.build(scene, 2.0)
    fast = _frames(scene, camera, store)
    monkeypatch.setattr(streaming_mod, "blend", blend_per_splat)
    monkeypatch.setattr(reference_mod, "blend", blend_per_splat)
    monkeypatch.setattr(streaming_mod, "traverse", traverse_per_visit)
    slow = _frames(scene, camera, store)
    assert fast == slow
    if kind == "cluttered":
        # the fixture exercises early exit, not just blending to the end
        assert fast[4]["voxels_skipped_early"] > 0


# offsets (x, y) of a disc center from a tile corner, in units of r / 5, that
# put the disc exactly on a tile edge or corner
_TOUCHING = np.array([(5, 0), (-5, 0), (0, 5), (0, -5), (3, 4), (-3, 4), (3, -4), (-3, -4)])


def _crafted_projection(seed, touch_share, duplicate_share):
    """``project_splats`` with a share of discs moved to touch a tile edge or
    corner exactly, and a share of splats given another's id and depth."""
    project = filtering_mod.project_splats

    def projected(*args, **kwargs):
        valid, batch, degenerate = project(*args, **kwargs)
        rng = np.random.default_rng(seed)
        n = len(batch.ids)
        touch = np.flatnonzero(rng.random(n) < touch_share)
        # r = 5k / 8 and offsets of 3k / 8, 4k / 8 or 5k / 8: exact, and
        # dx^2 + dy^2 == r^2 exactly at the touched edge or corner
        k = np.ceil(batch.radius[touch] * 8.0 / 5.0)
        batch.radius[touch] = 5.0 * k / 8.0
        offsets = _TOUCHING[rng.integers(0, len(_TOUCHING), len(touch))] * k[:, None] / 8.0
        batch.mean2d[touch] = rng.integers(0, 5, (len(touch), 2)) * TILE_EDGE + offsets
        twin = np.flatnonzero(rng.random(n) < duplicate_share)
        source = rng.integers(0, n, len(twin))
        batch.depth[twin] = batch.depth[source]
        batch.ids[twin] = batch.ids[source]
        return valid, batch, degenerate

    return projected


def _oblique_camera(rng, width, height):
    direction = rng.normal(size=3)
    eye = direction / np.linalg.norm(direction) * rng.uniform(6.0, 14.0)
    return look_at_camera(eye, rng.uniform(-2.0, 2.0, 3), width=width, height=height,
                          focal=rng.uniform(20.0, 150.0))


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    count=st.integers(1, 300),
    oblique=st.booleans(),
    touch_share=st.sampled_from([0.0, 0.3]),
    duplicate_share=st.sampled_from([0.0, 0.3]),
    threads=st.sampled_from([1, 2]),
)
@example(seed=0, count=200, oblique=False, touch_share=0.3, duplicate_share=0.3, threads=2)
@example(seed=1, count=300, oblique=True, touch_share=0.3, duplicate_share=0.0, threads=1)
def test_row_binned_reference_matches_per_tile_oracle(
    seed, count, oblique, touch_share, duplicate_share, threads
):
    """The reference bins a tile row in one sort; the oracle tests every
    valid splat's disc against each tile and sorts tile by tile."""
    rng = np.random.default_rng(seed)
    scene = generate_scene(count=count, bounds=Aabb([-4.0, -4.0, -2.0], [4.0, 4.0, 2.0]),
                           seed=seed, max_extent_fraction=1.0)
    if oblique:
        camera = _oblique_camera(rng, 64, 48)
    else:
        camera = look_at_camera([0.0, 0.0, -10.0], [0.0, 0.0, 0.0], width=64, height=48,
                                focal=60.0)
    project = _crafted_projection(seed, touch_share, duplicate_share)
    with mock.patch.object(reference_mod, "project_splats", project), \
            mock.patch.object(oracles, "project_splats", project):
        frame, ledger = render_frame_reference(camera, scene, threads=threads, scene_hash="s")
        want, want_ledger = render_frame_reference_per_tile(camera, scene, scene_hash="s")
    assert frame.tobytes() == want.tobytes()
    assert ledger.as_dict() == want_ledger.as_dict()


def _found_camera(seed, index):
    """Camera ``index`` of the draws from ``default_rng(seed)`` that found the
    oblique views where streaming and reference differ under the 0.3 px
    dilation: a unit direction times U(10, 20), target U(-2, 2)^3, focal
    U(40, 150), 64x64."""
    rng = np.random.default_rng(seed)
    for _ in range(index + 1):
        direction = rng.normal(size=3)
        eye = direction / np.linalg.norm(direction) * rng.uniform(10.0, 20.0)
        target = rng.uniform(-2.0, 2.0, 3)
        focal = rng.uniform(40.0, 150.0)
    return look_at_camera(eye, target, width=64, height=64, focal=focal)


@settings(max_examples=12, deadline=None)
@given(seed=st.integers(0, 2**16), index=st.integers(0, 2))
# the four views that differ with the dilation on (by up to 0.0170)
@example(seed=4, index=1)
@example(seed=4, index=2)
@example(seed=5, index=0)
@example(seed=7, index=2)
def test_constrained_scenes_match_under_oblique_cameras_without_dilation(seed, index):
    """With the 0.3 px low-pass dilation off, no splat's footprint grows past
    its voxel's screen silhouette, and streaming equals the reference bit for
    bit under oblique cameras too."""
    scene = constrained_scene(seed, count=300)
    store = VoxelStore.build(scene, 2.0)
    camera = _found_camera(seed, index)
    with mock.patch.object(filtering_mod, "COVARIANCE_DILATION", 0.0):
        stream, _, _ = render_frame_streaming(camera, store.grid, store.records)
        ref, _ = render_frame_reference(camera, scene)
    assert stream.tobytes() == ref.tobytes()


def _voxel_splats(rng, n, behind_share, degenerate_share):
    """One voxel's splats in front of a camera at z = -10, some straddling or
    behind its near plane, some with scales that overflow the covariance."""
    pos = rng.uniform([-3.0, -3.0, -2.0], [3.0, 3.0, 2.0], size=(n, 3))
    near = rng.random(n) < behind_share
    pos[near, 2] = -10.0 + rng.uniform(-1.0, 0.3, near.sum())
    scales = rng.uniform(0.01, 0.6, size=(n, 3))
    scales[rng.random(n) < degenerate_share] = 1e160
    q = rng.normal(size=(n, 4))
    q /= np.linalg.norm(q, axis=1, keepdims=True)
    opac = rng.uniform(0.05, 0.99, size=n)
    sh = rng.normal(0.0, 0.3, size=(n, 16, 3))
    ids = rng.permutation(10 * n)[:n]
    return pos, scales, q, opac, sh, ids


def _batch_bytes(batch):
    return [getattr(batch, f).tobytes() for f in ProjectedBatch.__dataclass_fields__]


@settings(max_examples=150, deadline=None)
@given(
    n=st.sampled_from([1, 2, 9, 64]),
    seed=st.integers(0, 2**32 - 1),
    behind_share=st.sampled_from([0.0, 0.3, 1.0]),
    degenerate_share=st.sampled_from([0.0, 0.3]),
    keep_share=st.sampled_from([0.0, 0.5, 1.0]),
    oblique=st.booleans(),
)
# one survivor of two under an oblique camera, projected as a batch of one row
@example(n=2, seed=8, behind_share=0.0, degenerate_share=0.0, keep_share=0.5, oblique=True)
def test_projecting_a_whole_voxel_then_taking_equals_projecting_survivors(
    n, seed, behind_share, degenerate_share, keep_share, oblique
):
    rng = np.random.default_rng(seed)
    eye = [6.0, 4.0, -7.0] if oblique else [0.0, 0.0, -10.0]
    camera = look_at_camera(eye, [0.0, 0.0, 0.0], width=64, height=64, focal=60.0)
    splats = _voxel_splats(rng, n, behind_share, degenerate_share)
    survivors = np.flatnonzero(rng.random(n) < keep_share)
    with np.errstate(all="ignore"):
        valid, whole, _ = project_splats(camera, *splats)
        valid_s, alone, _ = project_splats(camera, *(a[survivors] for a in splats))
        assert valid[survivors].tobytes() == valid_s.tobytes()
        assert _batch_bytes(oracles.take(whole, survivors)) == _batch_bytes(alone)

        for tile in [(1, 1), (2, 1), (0, 3)]:
            _, got, got_stats = filter_voxel(camera, tile_rects([tile]), splats, survivors)
            # the coarse phase as filter_voxel counts it; the oracle adds the fine phase
            want_stats = FilterStats(loaded=n, coarse_survivors=len(survivors),
                                     macs_coarse=COARSE_MACS * n)
            want = fine_filter_per_visit(camera, tile_rects([tile]), survivors,
                                         tuple(a[survivors] for a in splats), want_stats)
            assert _batch_bytes(got) == _batch_bytes(want)
            assert got_stats.as_dict() == want_stats.as_dict()


def test_voxel_splats_cover_the_near_plane_and_degenerate_covariances():
    camera = look_at_camera([0.0, 0.0, -10.0], [0.0, 0.0, 0.0], width=64, height=64,
                            focal=60.0)
    splats = _voxel_splats(np.random.default_rng(0), 64, 0.3, 0.3)
    with np.errstate(all="ignore"):
        valid, batch, degenerate = project_splats(camera, *splats)
    assert degenerate.any()
    assert np.any(batch.depth <= camera.near)
    assert np.any(valid)


def _small_store(seed, encoded):
    scene = generate_scene(
        count=5000,
        bounds=Aabb([-4.0, -4.0, 2.0], [4.0, 4.0, 10.0]),
        seed=seed,
        max_extent_fraction=1.0,
        voxel_edge=2.0,
        opacity_range=(0.5, 0.98),
    )
    store = VoxelStore.build(scene, 2.0)
    return _encoded(store) if encoded else (store, None)


def _encoded(store):
    """``store`` encoded through 16-entry books trained on it, and the books."""
    books = {name: train_codebook(gather_attribute(store.records, name), 16, seed=0,
                                  attribute=name) for name in ATTRIBUTES}
    return store.encode(books), books


def _frame_result(image, ledger, stats):
    """A frame as (image bytes, ledger dict, stats dict)."""
    return image.tobytes(), ledger.as_dict(), stats.as_dict()


@settings(max_examples=16, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    encoded=st.booleans(),
    threads=st.sampled_from([1, 2]),
)
@example(seed=81, encoded=False, threads=1)
@example(seed=0, encoded=True, threads=2)
def test_frames_match_with_the_per_visit_filters_and_dict_scheduler(seed, encoded, threads):
    store, books = _small_store(seed, encoded)
    camera = look_at_camera([0.0, 0.0, -6.0], [0.0, 0.0, 6.0], width=48, height=48,
                            focal=100.0)
    fast = _frame_result(*render_frame_streaming(camera, store.grid, store.records, books,
                                                 threads=threads))
    slow = _frame_result(*render_frame_per_visit(camera, store.grid, store.records, books))
    assert fast == slow
    # early exit changes no pixel, and it skips a voxel exactly when it streams fewer
    # splats; some seeds (81) freeze no tile before its last voxel and skip none
    exhaustive = _frame_result(*render_frame_per_visit(camera, store.grid, store.records, books,
                                                       early_exit=False))
    assert exhaustive[2]["voxels_skipped_early"] == 0
    assert fast[0] == exhaustive[0]
    assert fast[2]["voxels_scheduled"] == exhaustive[2]["voxels_scheduled"]
    assert ((fast[2]["voxels_skipped_early"] > 0)
            == (fast[2]["filter"]["loaded"] < exhaustive[2]["filter"]["loaded"]))


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("encoded", [False, True])
@pytest.mark.parametrize("kind", ["constrained", "cluttered"])
def test_frames_match_under_the_frobenius_coarse_radius(kind, encoded, threads, monkeypatch):
    """The spectral coarse radius drops only second halves the fine test
    discards: against the Frobenius form, and against a coarse test that
    passes every splat, every pixel, fine survivor and schedule counter is
    the same, and only the coarse survivors and their fine-load records
    fall.  The smaller working sets leave more room in the on-chip buffer,
    so the coarse-load charge can fall too, but never rise.  With books, the
    first half's max scale is the decoded one."""
    if kind == "constrained":
        scene = constrained_scene(2, count=300)
        camera = look_at_camera([0.0, 0.0, -10.0], [0.0, 0.0, 0.0], width=64, height=64,
                                focal=75.0)
    else:
        scene, camera = _cluttered_fixture()
    store, books = VoxelStore.build(scene, 2.0), None
    if encoded:
        store, books = _encoded(store)

    def frame(radius):
        monkeypatch.setattr(filtering_mod, "coarse_screen_radius", radius)
        with usable_cpus(2):
            image, ledger, stats = render_frame_streaming(camera, store.grid, store.records,
                                                          books, threads=threads)
        return image.tobytes(), ledger, stats

    spectral = frame(filtering_mod.coarse_screen_radius)
    frobenius = frame(oracles.frobenius_coarse_radius)
    everything = frame(lambda camera, cam, max_scales: np.full(len(cam), np.inf))
    image, ledger, stats = spectral
    for old_image, old_ledger, old_stats in (frobenius, everything):
        assert image == old_image
        for name in ("loaded", "fine_survivors"):
            assert getattr(stats.filter, name) == getattr(old_stats.filter, name)
        for name in ("blended", "voxels_scheduled", "voxels_skipped_early", "cycles_broken",
                     "batch_splits"):
            assert getattr(stats, name) == getattr(old_stats, name)
        assert ledger.bytes["pixel-writeback"] == old_ledger.bytes["pixel-writeback"]
        assert ledger.bytes["coarse-load"] <= old_ledger.bytes["coarse-load"]
    _, old_ledger, old_stats = frobenius
    assert stats.filter.coarse_survivors < old_stats.filter.coarse_survivors
    assert ledger.records["fine-load"] < old_ledger.records["fine-load"]


def _one_voxel_store():
    """Every splat inside one voxel, so each tile that sees it schedules it alone."""
    scene = generate_scene(count=60, bounds=Aabb([0.3, 0.3, 0.3], [1.7, 1.7, 1.7]), seed=4,
                           max_extent_fraction=0.2, voxel_edge=2.0, constrained=True)
    return VoxelStore.build(scene, 2.0)


def _tile_result(colors, row, i, sizes, encoded=False):
    """Tile i of a ``render_tile_streaming`` call's (colors, counters, keys)
    as (color, ledger, stats) bytes and dicts: its column of the counters
    and its keys, tallied as a stream of its own, which fetches all it needs."""
    ledger, stats = tally(*tile_alone(*row, i), sizes, encoded)
    return colors[i].tobytes(), ledger.as_dict(), stats.as_dict()


@settings(max_examples=12, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    one_voxel=st.booleans(),
    threads=st.sampled_from([1, 2]),
)
@example(seed=0, one_voxel=True, threads=1)
def test_frame_tiles_match_tiles_rendered_alone(seed, one_voxel, threads):
    """Each tile of a frame renders, counts and needs the same halves as it
    does alone; only what it fetches depends on the tiles before it."""
    rng = np.random.default_rng(seed)
    if one_voxel:
        store = _one_voxel_store()
        direction = rng.normal(size=3)
        eye = 1.0 + direction / np.linalg.norm(direction) * rng.uniform(6.0, 12.0)
        camera = look_at_camera(eye, [1.0, 1.0, 1.0], width=48, height=32, focal=40.0)
    else:
        store, _ = _small_store(seed, encoded=False)
        camera = look_at_camera(rng.uniform(-2.0, 2.0, 3) + [0.0, 0.0, -6.0], [0.0, 0.0, 6.0],
                                width=48, height=32, focal=100.0)
    sizes = np.diff(store.records.offsets)
    in_frame = {}
    render_tiles = streaming_mod.render_tile_streaming

    def recording(tiles, camera, grid, records, books, **kwargs):
        colors, *row = render_tiles(tiles, camera, grid, records, books, **kwargs)
        for i, tile in enumerate(tiles):
            in_frame[tile] = _tile_result(colors, row, i, sizes)
        return (colors, *row)

    def frame(threads):
        return _frame_result(*render_frame_streaming(camera, store.grid, store.records,
                                                     threads=threads))

    # the recording closure cannot see rows rendered in worker processes, so
    # rows are recorded in-process and a pooled frame must equal that frame
    with mock.patch.object(streaming_mod, "render_tile_streaming", recording):
        one = frame(1)
    if threads > 1:
        assert frame(threads) == one
    assert len(in_frame) == 6
    for tile, want in in_frame.items():
        colors, *row = render_tile_streaming([tile], camera, store.grid, store.records, None,
                                             projection_cache(camera, store.grid, store.records))
        assert _tile_result(colors, row, 0, sizes) == want
    if one_voxel:
        assert any(tile_stats["voxels_scheduled"] == 1 for _, _, tile_stats in in_frame.values())


def _cell_scene(n, seed):
    """``n`` random splats over a 3x3x3 lattice of 2-unit cells, so small
    scenes leave many voxels holding a single splat."""
    rng = np.random.default_rng(seed)
    rotations = rng.normal(size=(n, 4))
    return Scene(
        positions=rng.integers(0, 3, (n, 3)) * 2.0 + rng.uniform(0.1, 1.9, (n, 3)),
        scales=rng.uniform(0.01, 0.6, (n, 3)),
        rotations=rotations / np.linalg.norm(rotations, axis=1, keepdims=True),
        opacities=rng.uniform(0.0, 1.0, n),
        sh=rng.normal(0.0, 0.5, (n, 16, 3)),
        ids=rng.permutation(n),
        bounds=Aabb([0.0] * 3, [6.0] * 3),
    )


def _wall_scene(n, seed):
    """``_cell_scene`` moved one layer of cells back, behind three wide
    opaque splats in one voxel of the front layer: any tile that schedules
    that voxel first freezes on its last splat."""
    cells = _cell_scene(n, seed)
    rotations = np.zeros((3, 4))
    rotations[:, 0] = 1.0
    return Scene(
        positions=np.concatenate([cells.positions + [0.0, 0.0, 2.0],
                                  [[3.0, 3.0, 0.9], [3.0, 3.0, 1.0], [3.0, 3.0, 1.1]]]),
        scales=np.concatenate([cells.scales, np.tile([40.0, 40.0, 0.05], (3, 1))]),
        rotations=np.concatenate([cells.rotations, rotations]),
        opacities=np.concatenate([cells.opacities, np.ones(3)]),
        sh=np.concatenate([cells.sh, np.zeros((3, 16, 3))]),
        ids=np.concatenate([cells.ids, n + np.arange(3)]),
        bounds=Aabb([0.0] * 3, [6.0, 6.0, 8.0]),
    )


def _lattice_camera(seed, oblique):
    """A 3x2-tile camera on the lattice's center: straight down +z, or from a
    random direction."""
    rng = np.random.default_rng(seed + 1)
    eye = [3.0, 3.0, -6.0]
    if oblique:
        direction = rng.normal(size=3)
        eye = 3.0 + direction / np.linalg.norm(direction) * rng.uniform(7.0, 12.0)
    return look_at_camera(eye, [3.0, 3.0, 3.0], width=48, height=32, focal=40.0)


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(1, 40),
    seed=st.integers(0, 2**16),
    wall=st.booleans(),
    encoded=st.booleans(),
    oblique=st.booleans(),
    chunk=st.sampled_from([1, 8, 10**6]),
    capacity=st.sampled_from([2, streaming_mod.VOXEL_BATCH_CAPACITY]),
)
# tile (1, 0) freezes on the last wall splat, and the next voxel of its
# five-voxel schedule has no coarse survivors: the first round streams all
# five, and the counts must stop at the wall
@example(n=5, seed=27, wall=True, encoded=False, oblique=False, chunk=8,
         capacity=streaming_mod.VOXEL_BATCH_CAPACITY)
@example(n=30, seed=3, wall=False, encoded=True, oblique=True, chunk=1, capacity=2)
def test_batched_row_tiles_match_per_visit_tiles(n, seed, wall, encoded, oblique, chunk, capacity):
    """Each tile of a batched row renders and counts as the per-visit tile
    does alone, and the row, streamed through the on-chip buffer at a
    capacity that holds about one tile, the whole row or none, charges what
    the per-visit tiles charge through their held deque."""
    store = VoxelStore.build((_wall_scene if wall else _cell_scene)(n, seed), 2.0)
    books = None
    if encoded:
        books = {name: train_codebook(gather_attribute(store.records, name), 4, seed=0,
                                      attribute=name) for name in ATTRIBUTES}
        store = store.encode(books)
    camera = _lattice_camera(seed, oblique)
    ntx, nty = camera.tile_counts
    sizes = np.diff(store.records.offsets)
    with mock.patch.object(streaming_mod, "FIRST_CHUNK", chunk), \
            mock.patch.object(streaming_mod, "VOXEL_BATCH_CAPACITY", capacity):
        for ty in range(nty):
            row = [(tx, ty) for tx in range(ntx)]
            cache = projection_cache(camera, store.grid, store.records)
            colors, *counted = render_tile_streaming(row, camera, store.grid, store.records,
                                                     books, cache)
            for i, tile in enumerate(row):
                color, ledger, stats = render_tile_per_visit(
                    tile, camera, store.grid, store.records, books)
                want = (color.tobytes(), ledger.as_dict(), stats.as_dict())
                assert _tile_result(colors, counted, i, sizes, store.records.encoded) == want
                exhaustive, _, _ = render_tile_per_visit(
                    tile, camera, store.grid, store.records, books, early_exit=False)
                assert colors[i].tobytes() == exhaustive.tobytes()
            for buffer in (0, 600, 1 << 20):
                with mock.patch.object(traffic_mod, "BUFFER_BYTES", buffer):
                    held, want_ledger, want_stats = deque(), TrafficLedger(), StreamStats()
                    for tile in row:
                        _, ledger, stats = render_tile_per_visit(
                            tile, camera, store.grid, store.records, books, held=held)
                        add_counters(want_ledger, ledger)
                        add_counters(want_stats, stats)
                    ledger, stats = tally(*counted, sizes, store.records.encoded)
                assert ledger.as_dict() == want_ledger.as_dict()
                assert stats.as_dict() == want_stats.as_dict()


@pytest.mark.parametrize("buffer", ["none", "two tiles", "declared"])
@pytest.mark.parametrize("encoded", [False, True])
@pytest.mark.parametrize("kind", ["constrained", "cluttered"])
def test_frame_ledgers_match_the_per_visit_buffer_deque(kind, encoded, buffer):
    """The frame's vectorised charge equals the per-visit tiles' held deque
    in raster order, with no buffer, one that holds twice the largest
    tile's working set and the declared one, on constrained and cluttered
    scenes, raw and VQ."""
    if kind == "constrained":
        store = VoxelStore.build(constrained_scene(2, count=300), 2.0)
        camera = look_at_camera([0.0, 0.0, -10.0], [0.0, 0.0, 0.0], width=64, height=48,
                                focal=75.0)
    else:
        store, _ = _small_store(3, encoded=False)
        camera = look_at_camera([0.7, -0.4, -6.0], [0.0, 0.0, 6.0], width=48, height=48,
                                focal=100.0)
    books = None
    if encoded:
        store, books = _encoded(store)
    with mock.patch.object(traffic_mod, "BUFFER_BYTES", 0):
        largest = render_frame_streaming(camera, store.grid, store.records, books)[2]
    capacity = {"none": 0, "two tiles": 2 * largest.buffer_peak_bytes,
                "declared": traffic_mod.BUFFER_BYTES}[buffer]
    with mock.patch.object(traffic_mod, "BUFFER_BYTES", capacity):
        fast = _frame_result(*render_frame_streaming(camera, store.grid, store.records, books))
        slow = _frame_result(*render_frame_per_visit(camera, store.grid, store.records, books))
    assert fast == slow
    assert fast[2]["buffer_capacity_bytes"] == capacity
    assert (fast[1]["records"]["coarse-load"] < fast[2]["filter"]["loaded"]) == (capacity > 0)


@st.composite
def _row_tables(draw):
    """A row of tiles with the same number of rays each, over a few voxels
    with tied, signed-zero and distinct depths; rays repeat voxels,
    contradict each other, run against depth order, or are empty."""
    vids = draw(st.lists(st.integers(0, 300), min_size=1, max_size=10, unique=True))
    depth = st.one_of(st.sampled_from([0.0, -0.0, 1.0, 2.5]), st.floats(-5.0, 60.0))
    depths = {v: draw(depth) for v in vids}
    rays = draw(st.integers(0, 6))
    ray = st.lists(st.sampled_from(vids), max_size=6)
    tiles = draw(st.lists(st.lists(ray, min_size=rays, max_size=rays), max_size=5))
    return tiles, depths


@settings(max_examples=300, deadline=None)
@given(case=_row_tables())
@example(case=([], {1: 1.0}))
@example(case=([[[9, 3], []], [[], []], [[3, 9], [9, 3]], [[3, 9], [3]]], {3: 0.0, 9: -0.0}))
@example(case=([[[5, 5, 7], [7, 1, 5]], [[1, 7], [5]]], {1: 1.0, 5: 1.0, 7: 0.5}))
@example(case=([[[3, 9], [9, 3], []]], {3: 2.0, 9: 2.0}))
@example(case=([[[], []]], {4: 1.0}))
# a (tile, key) space of 2 x 5000 is past the mask bound of 2 visits
@example(case=([[[4999]], [[0]]], {0: 1.0, 4999: 0.5}))
def test_row_schedule_sorts_each_tile_by_the_key(case):
    """Each tile's order is its distinct voxels sorted by the key, one tile
    at a time, however the rays of the row contradict each other."""
    tiles, depths = case
    walks = [visits_of(rays) for rays in tiles]
    rays = len(tiles[0]) if tiles else 0
    visits = TileVisits(np.concatenate([w.ids for w in walks] + [np.empty(0, dtype=np.int64)]),
                        np.array([w.counts for w in walks], dtype=np.int64).reshape(len(tiles), rays))
    key = key_table(depths)
    plan = schedule(visits, key)
    assert len(plan.offsets) == len(tiles) + 1
    for t, walk in enumerate(walks):
        want = sorted(set(walk.ids.tolist()), key=key.__getitem__)
        assert plan.ids[plan.offsets[t] : plan.offsets[t + 1]].tolist() == want


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 40), seed=st.integers(0, 2**16), oblique=st.booleans())
# one-splat voxels under an oblique camera, projected among other voxels
@example(n=20, seed=0, oblique=True)
def test_projecting_many_voxels_at_once_equals_voxel_by_voxel(n, seed, oblique):
    records = VoxelStore.build(_cell_scene(n, seed), 2.0).records
    camera = _lattice_camera(seed, oblique)
    cache = ProjectionCache(camera, np.empty(0), records.offsets)
    vids = np.arange(len(records.offsets) - 1)
    rows, splats = stream_fine(records, vids, None)
    rect = (0.0, 0.0, float(camera.width), float(camera.height))
    coarse = coarse_filter(camera, splats[0], records.max_scales[rows], rect)
    fine_filter(cache, rows, np.zeros(len(rows), dtype=np.int64), rect, (vids, rows, splats))
    for r in vids.tolist():
        part = slice(records.offsets[r], records.offsets[r + 1])
        valid, alone, _ = project_splats(camera, *(a[part] for a in splats))
        assert cache.valid[part].tobytes() == valid.tobytes()
        assert _batch_bytes(oracles.take(cache.batch, part)) == _batch_bytes(alone)
        want = coarse_filter_per_visit(camera, rect, records.positions[part],
                                       records.max_scales[part], FilterStats())
        assert coarse[part].tobytes() == want.tobytes()


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**16), count=st.integers(1, 300), index=st.integers(0, 2))
# 30 of this scene's 118 voxels hold one splat, and two of them project to
# other bits alone than among all rows when the transform is a BLAS product
@example(seed=0, count=300, index=0)
def test_projection_bits_do_not_depend_on_the_rows_beside_them(seed, count, index):
    """A row projects to the same bits in a call of one row, one voxel or
    the whole scene, so the streaming cache, filled voxel by voxel, holds
    the reference's bits; a ray's direction is the same in a tile's call
    and a tile row's."""
    scene = constrained_scene(seed, count)
    store = VoxelStore.build(scene, 2.0)
    records = store.records
    camera = _found_camera(seed, index)
    _, splats = stream_fine(records, np.arange(store.grid.nonempty_count), None)
    valid, whole, _ = project_splats(camera, *splats)

    def assert_rows_alike(part):
        got_valid, got, _ = project_splats(camera, *(a[part] for a in splats))
        assert got_valid.tobytes() == valid[part].tobytes()
        assert _batch_bytes(got) == _batch_bytes(oracles.take(whole, part))

    rng = np.random.default_rng(seed)
    assert_rows_alike(rng.integers(0, len(whole.ids), 1))
    assert_rows_alike(np.flatnonzero(rng.random(len(whole.ids)) < 0.5))
    for r in range(store.grid.nonempty_count):
        assert_rows_alike(np.arange(records.offsets[r], records.offsets[r + 1]))

    reference = []

    def recording(*args):
        reference.append(filtering_mod.project_splats(*args))
        return reference[-1]

    with mock.patch.object(reference_mod, "project_splats", recording):
        render_frame_reference(camera, scene)
    ref_valid, ref, _ = reference[0]
    cache = projection_cache(camera, store.grid, records)
    ntx, nty = camera.tile_counts
    for ty in range(nty):
        render_tile_streaming([(tx, ty) for tx in range(ntx)], camera, store.grid, records,
                              None, cache=cache)
    filled = np.flatnonzero(np.repeat(cache.projected, np.diff(records.offsets)))
    at = records.ids[filled]  # the scene's ids are its row numbers
    assert cache.valid[filled].tobytes() == ref_valid[at].tobytes()
    assert _batch_bytes(oracles.take(cache.batch, filled)) == _batch_bytes(oracles.take(ref, at))

    pixels = tile_pixels([(tx, rng.integers(nty)) for tx in range(ntx)])
    row = camera.ray_directions(pixels[..., 0], pixels[..., 1])
    for t, tile in enumerate(pixels):
        assert camera.ray_directions(tile[:, 0], tile[:, 1]).tobytes() == row[t].tobytes()
    assert camera.ray_directions(pixels[0, :1, 0], pixels[0, :1, 1]).tobytes() == row[0, :1].tobytes()


# camera-space depths at and around the 1e-12 guard of the perspective divide
_NEAR_ZERO_Z = np.array([0.0, -0.0, 1e-13, -1e-13, 1e-12, -1e-12, np.nextafter(1e-12, 0.0), 1e-300])


@settings(max_examples=40, deadline=None)
@given(n=st.integers(0, 3000), seed=st.integers(0, 2**32 - 1), unit=st.booleans())
@example(n=0, seed=0, unit=True)
@example(n=1, seed=1, unit=False)
@example(n=2, seed=2, unit=True)
@example(n=7, seed=7, unit=False)
@example(n=3000, seed=3, unit=False)
def test_projection_math_matches_the_einsum_oracles_bit_for_bit(n, seed, unit):
    """The entry-wise rotation, covariance, SH basis and extent sums give
    the bits of the row-major ``einsum`` forms, under oblique cameras with
    fx != fy, camera-space depths near zero and behind the camera, scales
    from 1e-6 to 1e4, and quaternions normalised or not."""
    rng = np.random.default_rng(seed)
    turn = rng.normal(size=(1, 4))
    camera = Camera(64, 48, *rng.uniform(20.0, 400.0, 2), 32.0, 24.0,
                    quat_to_rotmat_row_major(turn / np.linalg.norm(turn))[0],
                    rng.uniform(-5.0, 5.0, 3))
    cam = rng.uniform(-20.0, 20.0, (n, 3))
    near_zero = rng.random(n) < 0.2
    cam[near_zero, 2] = rng.choice(_NEAR_ZERO_Z, near_zero.sum())
    scales = 10.0 ** rng.uniform(-6.0, 4.0, (n, 3))
    q = rng.normal(size=(n, 4))
    unit_q = q / np.linalg.norm(q, axis=1, keepdims=True)
    if not unit:
        q *= 10.0 ** rng.uniform(-3.0, 3.0, (n, 1))
    quats = unit_q if unit else q
    assert quat_to_rotmat(quats).tobytes() == quat_to_rotmat_row_major(quats).tobytes()
    got = projected_covariance(camera, cam, scales, quats)
    assert got.shape == (n, 3)
    assert got.tobytes() == projected_covariance_einsum(camera, cam, scales, quats).tobytes()

    dirs = unit_q[:, 1:] / np.linalg.norm(unit_q[:, 1:], axis=1, keepdims=True)
    sh = rng.normal(0.0, 0.5, (n, 16, 3))
    assert sh_basis(dirs).tobytes() == sh_basis_row_major(dirs).tobytes()
    assert evaluate_sh(sh, dirs).tobytes() == evaluate_sh_row_major(sh, dirs).tobytes()
    if n:
        one = evaluate_sh_row_major(sh[0], dirs[0])
        assert evaluate_sh(sh[0], dirs[0]).tobytes() == one.tobytes()

    scene = Scene(cam, scales, unit_q, np.full(n, 0.5), sh, np.arange(n))
    lo, hi = extent_boxes(scene)
    half = extent_half_einsum(scene)
    assert lo.tobytes() == (cam - half).tobytes() and hi.tobytes() == (cam + half).tobytes()


@settings(max_examples=40, deadline=None)
@given(n=st.integers(0, 30), seed=st.integers(0, 2**16), k=st.sampled_from([1, 2, 8, 64]))
@example(n=0, seed=0, k=8)  # an empty store
@example(n=1, seed=0, k=8)  # one voxel holding one splat
def test_flat_encode_matches_per_voxel_encode(n, seed, k):
    store = VoxelStore.build(_cell_scene(n, seed), 2.0)
    rng = np.random.default_rng(seed + 1)
    books = {name: train_codebook(rng.normal(0.0, 0.5, (4 * k, dim)), k, seed=0, attribute=name)
             for name, dim in ATTRIBUTE_DIMS.items()}
    encoded = store.encode(books).records
    got = [encoded.scale_idx, encoded.rot_idx, encoded.dc_idx, encoded.sh_idx]
    want = encode_per_voxel(store.records, books)
    assert [a.tolist() for a in got] == [a.tolist() for a in want]
    assert all(len(a) == n for a in got)


_DEPTHS = st.one_of(st.sampled_from([0.0, -0.0, 1.0, 2.0, -1.0]),
                    st.floats(allow_nan=True, allow_infinity=True))
_SCALES = st.one_of(st.sampled_from([0.0, -0.0, 0.5, 1.0]),
                    st.floats(allow_nan=False, allow_infinity=True))


def _bits(x: float) -> bytes:
    return np.float64(x).tobytes()


@settings(max_examples=300, deadline=None)
@given(order=st.lists(st.tuples(_DEPTHS, _SCALES), max_size=40))
@example(order=[])
@example(order=[(1.0, 0.5), (1.0, 0.5), (0.5, -0.0), (1.0, -0.0)])  # depth ties
@example(order=[(2.0, -0.0), (1.0, -0.0), (0.0, -0.0)])  # only -0.0 scales violate
@example(order=[(0.0, 1.0), (-0.0, 1.0), (-1.0, 0.25)])
@example(order=[(float("nan"), 1.0), (1.0, 0.5), (0.0, 0.25)])  # NaN never raises the max
def test_cbp_loss_matches_the_loop_bit_for_bit(order):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the loop never warns, so neither may this
        assert _bits(cbp_loss(order)) == _bits(cbp_loss_loop(order))
        assert _bits(cbp_loss(iter(order))) == _bits(cbp_loss_loop(order))


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**16), count=st.integers(1, 200),
       fraction=st.floats(0.1, 1.0), edge=st.sampled_from([1.0, 2.0, 4.0]))
def test_per_voxel_crossings_match_the_loop(seed, count, fraction, edge):
    scene = generate_scene(count=count, bounds=Aabb([-4, -4, -2], [4, 4, 2]), seed=seed,
                           max_extent_fraction=fraction, voxel_edge=edge)
    store = VoxelStore.build(scene, edge)
    grid = store.grid
    out = cross_boundary_stats(grid, store.records)
    assert out["per_voxel"] == per_voxel_crossings_loop(scene, grid)
    assert sum(out["per_voxel"].values()) == out["crossing"]
    assert all(isinstance(k, int) and isinstance(v, int) for k, v in out["per_voxel"].items())


def _same_bytes(got, want) -> bool:
    return got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


def _unit_splats(rng, n, ids):
    """A valid scene of ``n`` random splats."""
    rotations = rng.normal(size=(n, 4))
    rotations /= np.linalg.norm(rotations, axis=1, keepdims=True)
    return Scene(positions=rng.normal(size=(n, 3)), scales=rng.uniform(0.1, 1.0, (n, 3)),
                 rotations=rotations, opacities=rng.uniform(0.0, 1.0, n),
                 sh=rng.normal(size=(n, 16, 3)), ids=ids)


_PLY_KINDS = {"float": "<f4", "double": "<f8", "uchar": "<u1", "short": "<i2"}


def _mixed_ply(path, rng, count) -> None:
    """A PLY with the required properties plus normals and a colour, in
    shuffled order and of mixed types."""
    names = rng.permutation(list(scene_mod._REQUIRED_PROPS) + ["nx", "ny", "nz", "red"])
    kinds = rng.choice(list(_PLY_KINDS), size=len(names))
    data = np.zeros(count, dtype=[(nm, _PLY_KINDS[k]) for nm, k in zip(names, kinds)])
    for nm, k in zip(names, kinds):
        data[nm] = {"uchar": rng.integers(0, 4, count), "short": rng.integers(-3, 4, count)}.get(
            k, rng.normal(size=count))
    header = "".join(f"property {k} {nm}\n" for nm, k in zip(names, kinds))
    path.write_bytes(f"ply\nformat binary_little_endian 1.0\nelement vertex {count}\n{header}"
                     "end_header\n".encode() + data.tobytes())


def _load_ply_or_message(path):
    try:
        return load_ply(path)
    except PlySchemaError as exc:  # e.g. an all-zero integer quaternion
        return str(exc)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), count=st.integers(0, 40))
def test_ply_colour_block_matches_the_per_column_oracle(tmp_path_factory, seed, count):
    path = tmp_path_factory.mktemp("ply") / "mixed.ply"
    _mixed_ply(path, np.random.default_rng(seed), count)
    got = _load_ply_or_message(path)
    with mock.patch.object(scene_mod, "_scene_from_ply", oracles.scene_from_ply_per_column):
        want = _load_ply_or_message(path)
    if isinstance(want, str):
        assert got == want
        return
    for name in ("positions", "scales", "rotations", "opacities", "sh", "ids"):
        assert _same_bytes(getattr(got, name), getattr(want, name)), name
    assert _same_bytes(got.bounds.lo, want.bounds.lo) and _same_bytes(got.bounds.hi, want.bounds.hi)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**16), count=st.integers(0, 300), edge=st.sampled_from([1.0, 2.0, 8.0]))
@example(seed=0, count=0, edge=2.0)
def test_store_v2_is_the_v1_voxel_blocks_joined_and_digested(tmp_path_factory, seed, count, edge):
    """Version 2 is version 1's header and renaming table, then its
    per-voxel counts, coarse, fine and id blocks each joined over the
    voxels, then the sha256 of all of that.  The loaded records are the
    built ones at float32, and all three stores share one ``scene_hash``."""
    rng = np.random.default_rng(seed)
    tmp = tmp_path_factory.mktemp("store")
    store = VoxelStore.build(_unit_splats(rng, count, rng.permutation(count)), edge)
    want_hash = store.scene_hash
    save_store(store, tmp / "v2.gsvx")
    oracles.save_store_v1(store, tmp / "v1.gsvx")
    head, counts, coarse, fine, ids = oracles.store_v1_blocks((tmp / "v1.gsvx").read_bytes())
    want = bytearray(head)
    want[4:6] = struct.pack("<H", 2)
    want += counts + coarse + fine + ids
    assert (tmp / "v2.gsvx").read_bytes() == bytes(want) + hashlib.sha256(want).digest()
    back = load_store(tmp / "v2.gsvx")
    for field in fields(FlatRecords):
        built, got = getattr(store.records, field.name), getattr(back.records, field.name)
        if built is None:
            assert got is None, field.name
            continue
        if built.dtype == np.float64:
            built = built.astype(np.float32).astype(np.float64)
        assert _same_bytes(got, built), field.name
    assert _same_bytes(back.grid.vids, store.grid.vids)
    assert back.scene_hash == store.scene_hash == want_hash
