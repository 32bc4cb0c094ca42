"""Memory-centric renderer: per tile, stream scheduled voxels through the
hierarchical filter, sort survivors by depth inside each voxel, and blend with
pixel state carried across voxels.  Nothing but final pixels is ever written
back, so the intermediate traffic stages stay at zero bytes by construction.

The tiles of a row are rendered together, in rounds.  Each round takes the
next chunk of every unfinished tile's schedule and runs one coarse pass over
all of those (tile, voxel) pairs, decodes and projects their not yet cached
voxels in one call, runs one fine pass, orders the survivors by (tile,
schedule position, depth, id), and blends them in one ``blend`` call.
The first chunk is FIRST_CHUNK voxels and each later one twice the last, so
a tile that saturates early projects few voxels it never reaches.  Counts
are kept per (tile, voxel) pair and trimmed to the voxels a tile walking its
schedule one voxel at a time would stream: when every pixel of a tile has
frozen, its walk ends at the voxel of the last splat ``blend`` processed.

The ledger models one on-chip buffer of ``traffic.BUFFER_BYTES`` for the
whole frame.  Tiles stream through it in raster order, row after row, and
while tile t streams it holds t's working set, the first halves of the
voxels t visits and the second halves of their coarse survivors, beside the
whole working sets of the latest earlier tiles that fit with it.  So tile t
reads from DRAM only the halves that none of those tiles used; the frame's
first tile, and a tile whose working set fills the buffer alone, read all
they use.  ``loaded`` and the survivor counts still count every visit,
since every visit runs the coarse test.  Each row hands back the keys of
its counted halves, and ``tally`` charges the frame's fetches from them in
one pass, so the charges depend neither on FIRST_CHUNK nor on which process
rendered which row.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .blending import T_FREEZE, blend, composite_background
from .filtering import FilterStats, ProjectionCache, Tally, coarse_filter, fine_filter, tile_rects
from .scene import Camera, TILE_EDGE, tile_pixels
from .scheduler import schedule, traverse, visibility_key, voxel_depths
from .tileloop import render_rows
from . import traffic
from .traffic import PIXEL_BYTES, TrafficLedger
from .voxelstore import (
    FlatRecords,
    VoxelGrid,
    charge_loads,
    concat_ranges,
    load_bytes,
    stream_coarse,
    stream_fine,
)
from .vq import Codebook

VOXEL_BATCH_CAPACITY = 4096  # on-chip sorting buffer bound; overflow splits in depth order
FIRST_CHUNK = 8  # schedule voxels per tile in the first round; each later round doubles it


@dataclass
class StreamStats(Tally):
    filter: FilterStats = field(default_factory=FilterStats)
    voxels_scheduled: int = 0
    voxels_skipped_early: int = 0
    cycles_broken: int = 0  # always 0: one eye's ray orders never conflict (``scheduler``)
    batch_splits: int = 0
    blended: int = 0
    # the on-chip buffer's peak occupancy, in bytes: a max over the frame's
    # tiles where the fields above are sums; and the capacity it was charged with
    buffer_peak_bytes: int = 0
    buffer_capacity_bytes: int = 0


# a tile's counters, in the order of the rows of the arrays that count them
COUNTERS = ("loaded", "coarse_survivors", "fine_survivors", "degenerate", "voxels_scheduled",
            "voxels_skipped_early", "batch_splits", "blended")


def tally(counts: np.ndarray, keys: tuple[np.ndarray, np.ndarray], sizes: np.ndarray,
          encoded: bool, scene_hash: str = "") -> tuple[TrafficLedger, StreamStats]:
    """The ledger and stats of the tiles whose COUNTERS ``counts`` holds,
    one (len(COUNTERS), ...) array entry per tile; flattened, its tile axes
    run in stream order.  ``keys`` holds the keys ``id * (tiles + 1) +
    tile`` of the first halves (voxel ids) and the second halves (record
    rows) the tiles needed, ``tile`` a flat index; ``sizes`` the splats per
    voxel; ``encoded`` records stream encoded second halves.  The fetches
    are charged through the on-chip buffer of ``traffic.BUFFER_BYTES``."""
    capacity = traffic.BUFFER_BYTES
    need = counts[[COUNTERS.index("loaded"), COUNTERS.index("coarse_survivors")]].reshape(2, -1)
    footprint = sum(load_bytes(encoded, *need))  # each tile's working set, in bytes
    ends = np.concatenate([[0], np.cumsum(footprint)])
    held = _oldest_held(ends, capacity)
    fetched = np.stack([_fetched(keys[0], held, sizes), _fetched(keys[1], held)])
    # raises, not asserts, so the checks hold under python -O
    if np.any(fetched > need) or np.any(fetched[:, :1] != need[:, :1]):
        raise RuntimeError("fetch counters out of order: a tile fetches more halves than it "
                           "needs, or the frame's first tile fewer")
    peak = int((ends[1:] - ends[held]).max(initial=0))
    if peak > max(capacity, footprint.max(initial=0)):
        raise RuntimeError(f"buffer occupancy {peak} B exceeds its {capacity} B capacity and "
                           "every tile's own working set")
    total = dict(zip(COUNTERS, counts.reshape(len(COUNTERS), -1).sum(axis=1).tolist()))
    loaded, coarse = total.pop("loaded"), total.pop("coarse_survivors")
    fine, degenerate = total.pop("fine_survivors"), total.pop("degenerate")
    stats = StreamStats(FilterStats.counted(loaded, coarse, fine, degenerate), **total,
                        buffer_peak_bytes=peak, buffer_capacity_bytes=capacity)
    stats.filter.check()
    ledger = TrafficLedger(scene_hash=scene_hash)
    first, second = fetched.sum(axis=1).tolist()
    charge_loads(ledger, encoded, first, second)
    pixels = need.shape[1] * TILE_EDGE**2
    ledger.charge("pixel-writeback", PIXEL_BYTES * pixels, pixels)
    ledger.macs = {"coarse": stats.filter.macs_coarse, "fine": stats.filter.macs_fine}
    return ledger, stats


def _oldest_held(ends: np.ndarray, capacity: int) -> np.ndarray:
    """Per tile t, the oldest tile whose working set the buffer holds while
    t streams, given the working sets' running totals ``ends`` (0 first):
    the latest earlier tiles that fit in ``capacity`` with t's, or t alone."""
    tiles = len(ends) - 1
    return np.minimum(np.searchsorted(ends, ends[1:] - capacity), np.arange(tiles))


def _fetched(keys: np.ndarray, held: np.ndarray, weights: np.ndarray | None = None) -> np.ndarray:
    """Per tile, the halves it reads from DRAM, given the distinct keys
    ``id * (tiles + 1) + tile`` of the halves the tiles need: those whose
    id's latest earlier use, if any, came before the oldest tile ``held``
    names for it; counted once or weighted by ``weights[id]``."""
    # sorted, a key's predecessor with the same id is that id's latest earlier use
    ids, tiles = np.divmod(np.sort(keys), len(held) + 1)
    miss = np.ones(len(ids), dtype=bool)
    miss[1:] = (ids[1:] != ids[:-1]) | (tiles[:-1] < held[tiles[1:]])
    return np.bincount(tiles[miss], None if weights is None else weights[ids[miss]],
                       minlength=len(held)).astype(np.int64)


def render_tile_streaming(
    tiles: list[tuple[int, int]],
    camera: Camera,
    grid: VoxelGrid,
    records: FlatRecords,
    books: dict[str, Codebook] | None,
    cache: ProjectionCache,
    background=(0.0, 0.0, 0.0),
    trace: list | None = None,
) -> tuple[np.ndarray, np.ndarray, tuple[np.ndarray, np.ndarray]]:
    """Render 16x16 tiles together, normally one tile row; returns
    ((tiles, 256, 3) colors, (len(COUNTERS), tiles) int64 counters, keys),
    which ``tally`` turns into the tiles' ledger and stats, the tiles
    streaming in list order.  ``keys`` are the int64 keys ``id * (tiles + 1)
    + tile`` of the first halves (voxel ids) and the second halves (record
    rows) each tile's counted visits need, ``tile`` its list index.

    The tiles' rays are walked here, in one ``traverse`` call.  ``cache``
    holds the frame's visibility key and projections for ``camera``.
    ``trace``, one list per tile, collects the projection rows (the records'
    rows) each tile blended, in blend order.
    """
    plan = schedule(traverse(tiles, camera, grid), cache.key)
    ntiles = len(tiles)
    rects = tile_rects(tiles)
    centers = tile_pixels(tiles) + 0.5
    color = np.zeros((ntiles, TILE_EDGE * TILE_EDGE, 3))
    transmittance = np.ones((ntiles, TILE_EDGE * TILE_EDGE))
    sizes = np.diff(records.offsets)
    scheduled = np.diff(plan.offsets)
    walked = np.zeros(ntiles, dtype=np.int64)  # schedule voxels taken by past rounds
    skipped = np.zeros(ntiles, dtype=np.int64)
    # per tile: splats loaded, coarse and fine survivors, degenerate, batch splits
    counts = np.zeros((5, ntiles), dtype=np.int64)
    # keys id * (ntiles + 1) + tile of the counted (tile, voxel) and (tile, coarse row) pairs
    first_keys, second_keys = [np.empty(0, dtype=np.int64)], [np.empty(0, dtype=np.int64)]
    blended = np.zeros(ntiles, dtype=np.int64)
    live = np.flatnonzero(scheduled)
    chunk = FIRST_CHUNK

    while len(live):
        take = np.minimum(scheduled[live] - walked[live], chunk)
        pair_tile = np.repeat(live, take)
        pair = concat_ranges(plan.offsets[live] + walked[live], take)  # into plan.ids
        vids = plan.ids[pair]
        walked[live] += take
        npairs = len(pair)

        rows, positions, max_scales = stream_coarse(records, vids)
        row_pair = np.repeat(np.arange(npairs), sizes[vids])
        passed = np.flatnonzero(
            coarse_filter(camera, positions, max_scales, rects[:, pair_tile[row_pair]])
        )
        coarse_rows, coarse_pair = rows[passed], row_pair[passed]
        coarse = np.bincount(coarse_pair, minlength=npairs)

        fresh = np.unique(vids[(coarse > 0) & ~cache.projected[vids]])
        kept = fine_filter(
            cache, coarse_rows, coarse_pair, rects[:, pair_tile[coarse_pair]],
            (fresh, *stream_fine(records, fresh, books)) if len(fresh) else None,
        )
        kept_rows, kept_pair = coarse_rows[kept], coarse_pair[kept]
        fine = np.bincount(kept_pair, minlength=npairs)
        degenerate = np.bincount(coarse_pair[cache.degenerate[coarse_rows]], minlength=npairs)

        bounds = np.concatenate([[0], np.cumsum(np.bincount(pair_tile[kept_pair],
                                                            minlength=ntiles))])
        n = blend(cache.batch, kept_rows, bounds.tolist(), centers, color, transmittance)
        blended += n
        if trace is not None:
            for t in range(ntiles):
                trace[t].extend(kept_rows[bounds[t] : bounds[t] + n[t]].tolist())
        # each tile's walk ends after its last pair unless it freezes sooner
        last = np.full(ntiles, npairs)
        frozen = np.flatnonzero((n > 0) & ~np.any(transmittance >= T_FREEZE, axis=1))
        last[frozen] = kept_pair[bounds[frozen] + n[frozen] - 1]
        skipped[frozen] = plan.offsets[frozen + 1] - pair[last[frozen]] - 1
        walked[frozen] = scheduled[frozen]
        counted = np.arange(npairs) <= last[pair_tile]
        splits = np.maximum((fine - 1) // VOXEL_BATCH_CAPACITY, 0)
        for i, per_pair in enumerate((sizes[vids], coarse, fine, degenerate, splits)):
            counts[i] += np.bincount(pair_tile[counted], weights=per_pair[counted],
                                     minlength=ntiles).astype(np.int64)
        first_keys.append(vids[counted] * (ntiles + 1) + pair_tile[counted])
        survived = counted[coarse_pair]
        second_keys.append(coarse_rows[survived] * (ntiles + 1)
                           + pair_tile[coarse_pair[survived]])
        live = live[walked[live] < scheduled[live]]
        chunk *= 2

    composite_background(color, transmittance, background)
    loaded, coarse, fine, degenerate, splits = counts
    return (color, np.stack([loaded, coarse, fine, degenerate, scheduled, skipped, splits,
                             blended]),
            (np.concatenate(first_keys), np.concatenate(second_keys)))


def render_frame_streaming(
    camera: Camera,
    grid: VoxelGrid,
    records: FlatRecords,
    books: dict[str, Codebook] | None = None,
    *,
    background=(0.0, 0.0, 0.0),
    threads: int = 1,
    scene_hash: str = "",
) -> tuple[np.ndarray, TrafficLedger, StreamStats]:
    """Render all tiles; output is independent of the worker count.

    Each tile row is rendered in one ``render_tile_streaming`` call, which
    walks the row's rays in one ``traverse`` call, so one row's visit arrays
    are alive at a time.  With ``threads > 1`` this process and forked
    workers share the rows (``tileloop.render_rows``), each filling its own
    copy of the frame's projection cache.  Returns (framebuffer (H, W, 3)
    float32, ledger, stats), tallied once from every tile's counters and
    keys, the tiles in raster order.
    """
    ntx, nty = camera.tile_counts
    key = visibility_key(camera, grid, voxel_depths(camera, grid))
    cache = ProjectionCache(camera, key, records.offsets)

    def render_row(ty):
        band = [(tx, ty) for tx in range(ntx)]
        colors, *payload = render_tile_streaming(
            band, camera, grid, records, books, background=background, cache=cache,
        )
        return colors, payload

    frame, rows = render_rows(camera, render_row, threads)
    counts = np.stack([row_counts for row_counts, _ in rows], axis=1)
    keys = []
    for half in range(2):
        # row ty's key id * (ntx + 1) + tx names the frame's tile ty * ntx + tx.  The
        # frame's keys fit in int64: MAX_PIXELS caps a frame at 2^16 tiles, so any id
        # below 2^46, far more voxels or record rows than memory holds, stays below 2^63
        parts = [row_keys[half] for _, row_keys in rows]
        ids, tx = np.divmod(np.concatenate(parts), ntx + 1)
        ty = np.repeat(np.arange(nty), [len(part) for part in parts])
        keys.append(ids * (ntx * nty + 1) + ty * ntx + tx)
    return (frame, *tally(counts, keys, np.diff(records.offsets), records.encoded, scene_hash))
