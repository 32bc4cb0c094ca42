"""Voxel partition of a scene and the flat two-half splat layout.

Each splat lives in exactly one voxel, chosen by its center (extent may
overhang).  Non-empty voxels get dense renamed ids.  The records keep every
splat in one array per attribute, sorted by (renamed voxel id, splat id),
so voxel r is rows ``offsets[r]:offsets[r + 1]`` of each.  The lightweight
first half (position + max scale, streamed for coarse filtering) lives apart
from the second half (everything else, raw or codebook-encoded).
"""

from __future__ import annotations

import hashlib
import math
import struct
from dataclasses import dataclass, replace

import numpy as np

from .errors import CodebookCorruptionError, StoreFormatError
from .scene import Scene, snapped_lattice
from .vq import ATTRIBUTE_DIMS, ATTRIBUTES, INDEX_BITS, Codebook, nearest_indices

COARSE_BYTES_PER_GAUSSIAN = 16  # 4 params x float32
# byte-aligned indices (2+2+2+2) + raw float32 opacity
ENCODED_FINE_BYTES = sum(-(-bits // 8) for bits in INDEX_BITS.values()) + 4
RAW_FINE_BYTES = 4 * sum(ATTRIBUTE_DIMS.values())  # the float32 values the codebooks encode
# a raw fine record's float32 columns in file order: (``FlatRecords`` field, shape per splat)
RAW_FINE_COLUMNS = (("scales", (3,)), ("rotations", (4,)), ("sh", (16, 3)), ("opacities", ()))
# 224: the raw record streamed when VQ is off, opacity included
RAW_FINE_STREAM_BYTES = 4 * sum(math.prod(shape) for _, shape in RAW_FINE_COLUMNS)
PACKED_INDEX_BITS = sum(INDEX_BITS.values()) + 32  # bit-exact alternative packing

# Lookup tables such as ``dense_renaming`` hold one entry per cell; the cap
# bounds them (128 MB of int64) whatever a file header claims.
MAX_GRID_CELLS = 1 << 24

_MAGIC = b"GSVX"
_VERSION = 2
# after the magic: version, kind, edge, origin, dims, non-empty count
_HEADER = struct.Struct("<HBd3d3II")
_HEADER_BYTES = len(_MAGIC) + _HEADER.size
# a splat's rows of the coarse and fine blocks are its streamed records; its id is a u4
_BYTES_PER_SPLAT = COARSE_BYTES_PER_GAUSSIAN + RAW_FINE_STREAM_BYTES + 4
_DIGEST_BYTES = 32


@dataclass
class VoxelGrid:
    origin: np.ndarray
    edge: float
    dims: np.ndarray  # (3,) int
    vids: np.ndarray | None = None  # VID of each renamed id VID_r, ascending

    def __post_init__(self):
        self.origin = np.asarray(self.origin, dtype=np.float64).reshape(3)
        self.dims = np.asarray(self.dims, dtype=np.int64).reshape(3)
        self.vids = np.asarray([] if self.vids is None else self.vids, dtype=np.int64).reshape(-1)
        _check_edge(self.edge)
        if not np.all(np.isfinite(self.origin)):
            raise ValueError("grid origin must be finite")
        if np.any(self.dims < 1):
            raise ValueError("grid dims must be >= 1")
        cells = math.prod(int(d) for d in self.dims)
        if cells > MAX_GRID_CELLS:
            raise ValueError(f"grid of {cells} cells exceeds the cap of {MAX_GRID_CELLS}")
        if np.any(np.diff(self.vids) <= 0) or np.any((self.vids < 0) | (self.vids >= cells)):
            raise ValueError(f"voxel ids are not strictly ascending below {cells}")
        self._dense = None

    @property
    def voxel_count(self) -> int:
        return int(np.prod(self.dims))

    @property
    def nonempty_count(self) -> int:
        return len(self.vids)

    def cell_of(self, points: np.ndarray) -> np.ndarray:
        """Integer cell coordinates by the floor convention (faces belong to
        the voxel whose min corner touches them)."""
        points = np.asarray(points, dtype=np.float64)
        return np.floor((points - self.origin) / self.edge).astype(np.int64)

    @property
    def strides(self) -> np.ndarray:
        """The step of a voxel id along x, y and z: x varies fastest."""
        return np.array([1, self.dims[0], self.dims[0] * self.dims[1]])

    def vid_of_cell(self, cells: np.ndarray) -> np.ndarray:
        return np.sum(np.asarray(cells, dtype=np.int64) * self.strides, axis=-1)

    def cell_of_vid(self, vids: np.ndarray) -> np.ndarray:
        return np.asarray(vids, dtype=np.int64)[..., None] // self.strides % self.dims

    def dense_renaming(self) -> np.ndarray:
        """Array lookup VID -> VID_r with -1 for empty voxels, built on first use."""
        if self._dense is None:
            self._dense = np.full(self.voxel_count, -1, dtype=np.int64)
            self._dense[self.vids] = np.arange(len(self.vids))
        return self._dense

    def centers(self, vid_r: np.ndarray) -> np.ndarray:
        cells = self.cell_of_vid(self.vids[np.asarray(vid_r)])
        return self.origin + (cells + 0.5) * self.edge


def _check_edge(edge: float) -> None:
    if not (math.isfinite(edge) and edge > 0):
        raise ValueError(f"voxel edge must be positive and finite, got {edge}")


@dataclass
class FlatRecords:
    """Every splat of a store, one array per attribute, sorted by (renamed
    voxel id, splat id); voxel r is rows ``offsets[r]:offsets[r + 1]``."""

    offsets: np.ndarray  # (nonempty + 1,)
    positions: np.ndarray  # (n, 3) first half
    max_scales: np.ndarray  # (n,) first half
    ids: np.ndarray  # (n,)
    opacities: np.ndarray  # (n,) raw in both layouts
    # raw second half (present unless encoded)
    scales: np.ndarray | None = None
    rotations: np.ndarray | None = None
    sh: np.ndarray | None = None  # (n, 16, 3), coefficient 0 is the DC term
    # encoded second half
    scale_idx: np.ndarray | None = None
    rot_idx: np.ndarray | None = None
    dc_idx: np.ndarray | None = None
    sh_idx: np.ndarray | None = None

    @property
    def encoded(self) -> bool:
        return self.scale_idx is not None


def build_grid(scene: Scene, edge: float) -> tuple[VoxelGrid, FlatRecords]:
    """Partition by splat centers; records ordered by renamed voxel id.

    The grid origin is snapped down to a multiple of the edge, so cell
    boundaries form a global lattice: assignment does not depend on which
    splats happen to be present.  The scene's bounds must span at most
    MAX_GRID_CELLS voxels.
    """
    _check_edge(edge)
    with np.errstate(over="ignore"):  # bounds too wide for the cap may overflow to inf
        origin, dims = snapped_lattice(scene.bounds, edge)
    if not len(scene):
        dims = np.ones(3)
    cells = math.prod(dims.tolist())
    if not (np.all(np.isfinite(origin) & (dims >= 1)) and cells <= MAX_GRID_CELLS):
        raise ValueError(f"scene bounds {scene.bounds.lo.tolist()} to {scene.bounds.hi.tolist()} "
                         f"fit no grid within the cap of {MAX_GRID_CELLS} voxels of edge {edge}")
    grid = VoxelGrid(origin=origin, edge=float(edge), dims=dims.astype(np.int64))
    vids = grid.vid_of_cell(grid.cell_of(scene.positions))
    order = np.lexsort((scene.ids, vids))
    uniq, starts = np.unique(vids[order], return_index=True)
    scales = scene.scales[order]
    records = FlatRecords(
        offsets=np.append(starts, len(order)),
        positions=scene.positions[order],
        max_scales=scales.max(axis=1),
        ids=scene.ids[order],
        opacities=scene.opacities[order],
        scales=scales,
        rotations=scene.rotations[order],
        sh=scene.sh[order],
    )
    return replace(grid, vids=uniq), records


def gather_attribute(records: FlatRecords, attribute: str) -> np.ndarray:
    """Raw attribute vectors of every splat, in VID_r order."""
    if attribute not in ATTRIBUTES:
        raise ValueError(f"unknown attribute {attribute!r}")
    if records.encoded:
        raise ValueError("records already encoded; raw attributes unavailable")
    if attribute == "scale":
        return records.scales
    if attribute == "rotation":
        return records.rotations
    if attribute == "dc":
        return np.ascontiguousarray(records.sh[:, 0])
    return records.sh[:, 1:].reshape(-1, 45)


def encode_records(records: FlatRecords, books: dict[str, Codebook]) -> FlatRecords:
    """Replace raw second halves with codebook indices and each max scale with
    its decoded scale's, which the fine test draws; positions and opacities stay."""
    if records.encoded:
        raise ValueError("records already encoded")
    for name in ATTRIBUTES:
        if books[name].dim != ATTRIBUTE_DIMS[name]:
            raise ValueError(f"codebook {name!r} has dim {books[name].dim}")
    scale, rot, dc, sh = (nearest_indices(gather_attribute(records, name), books[name])
                          for name in ATTRIBUTES)
    max_scales = books["scale"].entries[scale].max(axis=1).astype(np.float64)
    return replace(records, max_scales=max_scales, scales=None, rotations=None, sh=None,
                   scale_idx=scale, rot_idx=rot, dc_idx=dc, sh_idx=sh)


def concat_ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The ranges ``starts[i] .. starts[i] + lengths[i] - 1``, one after another."""
    ends = np.cumsum(lengths)
    return np.repeat(starts - ends + lengths, lengths) + np.arange(ends[-1] if len(ends) else 0)


def _rows(records: FlatRecords, vids: np.ndarray) -> np.ndarray:
    """The rows of voxels ``vids``, voxel after voxel."""
    vids = np.asarray(vids, dtype=np.int64)
    starts = records.offsets[vids]
    return concat_ranges(starts, records.offsets[vids + 1] - starts)


def stream_coarse(records: FlatRecords, vids: np.ndarray) -> tuple[np.ndarray, ...]:
    """Stream the first halves of voxels ``vids``, voxel after voxel; returns
    (rows, positions, max_scales), ``rows`` indexing the records' arrays."""
    rows = _rows(records, vids)
    return rows, records.positions[rows], records.max_scales[rows]


def stream_fine(
    records: FlatRecords, vids: np.ndarray, books: dict[str, Codebook] | None
) -> tuple[np.ndarray, tuple]:
    """Decode the second halves of whole voxels ``vids``, voxel after voxel.

    Returns (rows, splats): ``rows`` index the records' arrays and ``splats``
    holds ``project_splats``'s inputs (positions, scales, rotations,
    opacities, sh, ids).  A renderer decodes each voxel once per frame and
    reuses its projection on later visits; ``charge_loads`` charges the
    second halves a tile fetches, the coarse survivors that no earlier tile
    still in the on-chip buffer used.
    """
    if records.encoded and books is None:
        raise ValueError("encoded records need codebooks to decode")
    rows = _rows(records, vids)
    if records.encoded:
        offsets = records.offsets
        scales = _lookup(books, "scale", records.scale_idx[rows], rows, offsets)
        rots = _lookup(books, "rotation", records.rot_idx[rows], rows, offsets)
        norms = np.linalg.norm(rots, axis=1, keepdims=True)
        norms[norms == 0.0] = 1.0
        rots = rots / norms
        dc = _lookup(books, "dc", records.dc_idx[rows], rows, offsets)
        rest = _lookup(books, "sh_rest", records.sh_idx[rows], rows, offsets)
        sh = np.concatenate([dc[:, None, :], rest.reshape(len(rows), 15, 3)], axis=1)
    else:
        scales, rots, sh = records.scales[rows], records.rotations[rows], records.sh[rows]
    splats = (records.positions[rows], scales, rots, records.opacities[rows], sh, records.ids[rows])
    return rows, splats


def _lookup(books: dict[str, Codebook], attribute: str, idx: np.ndarray, rows: np.ndarray,
            offsets: np.ndarray) -> np.ndarray:
    """Centroids for the indices of records ``rows`` into one codebook,
    range-checked; an error names the voxel of the first bad index."""
    count = books[attribute].entry_count
    bad = np.flatnonzero((idx < 0) | (idx >= count))
    if len(bad):
        vid_r = int(np.searchsorted(offsets, rows[bad[0]], "right")) - 1
        raise CodebookCorruptionError(
            f"{attribute} index {idx[bad[0]]} out of range for {count} entries in voxel {vid_r}"
        )
    return books[attribute].entries[idx].astype(np.float64)


def load_bytes(encoded: bool, first, second) -> tuple:
    """The bytes of ``first`` first halves, 16 each, and of ``second``
    second halves: the 12-byte packed layout when encoded, else 56 float32
    values; the counts may be numbers or arrays."""
    per_splat = ENCODED_FINE_BYTES if encoded else RAW_FINE_STREAM_BYTES
    return COARSE_BYTES_PER_GAUSSIAN * first, per_splat * second


def charge_loads(ledger, encoded: bool, first: int, second: int) -> None:
    """Charge reading ``first`` first halves and ``second`` second halves
    from DRAM.  A streaming frame passes the halves its tiles fetch, not the
    ones they test: a tile takes from the on-chip buffer every half one of
    the earlier tiles the buffer still holds used (``streaming``)."""
    first_bytes, second_bytes = load_bytes(encoded, first, second)
    ledger.charge("coarse-load", first_bytes, first)
    ledger.charge("fine-load", second_bytes, second)


def scene_from_records(grid: VoxelGrid, records: FlatRecords) -> Scene:
    """Rebuild the flat scene (id order) from raw records, e.g. for the oracle."""
    return _scene(records, np.argsort(records.ids, kind="stable"))


def _scene(records: FlatRecords, order) -> Scene:
    if records.encoded:
        raise ValueError("records already encoded; raw attributes unavailable")
    return Scene(
        positions=records.positions[order],
        scales=records.scales[order],
        rotations=records.rotations[order],
        opacities=records.opacities[order],
        sh=records.sh[order],
        ids=records.ids[order],
    )


@dataclass
class VoxelStore:
    """Grid + records + the sha256 of the store file they make.

    ``digest`` is the sha256 that ends the store's GSVX file, and
    ``scene_hash`` its first 16 hex digits.  ``load_store`` takes it from the
    file it verified; a built store computes it from the bytes ``save_store``
    would write, on first use, so a built store, its saved file and the
    store loaded back share one ``scene_hash``."""

    grid: VoxelGrid
    records: FlatRecords
    digest: bytes | None = None

    @property
    def scene_hash(self) -> str:
        return self._digest().hex()[:16]

    def _digest(self) -> bytes:
        if self.digest is None:
            h = hashlib.sha256()
            for block in _file_blocks(self):
                h.update(block)
            self.digest = h.digest()
        return self.digest

    @classmethod
    def build(cls, scene: Scene, edge: float) -> "VoxelStore":
        grid, records = build_grid(scene, edge)
        return cls(grid=grid, records=records)

    def encode(self, books: dict[str, Codebook]) -> "VoxelStore":
        # taken from the raw records: encoded ones make no store file
        digest = self._digest()
        return VoxelStore(grid=self.grid, records=encode_records(self.records, books),
                          digest=digest)

    def occupancy(self) -> dict:
        counts = np.diff(self.records.offsets)
        return {
            "voxels": self.grid.voxel_count,
            "nonempty": len(counts),
            "gaussians": int(counts.sum()),
            "min_per_voxel": int(counts.min()) if len(counts) else 0,
            "max_per_voxel": int(counts.max()) if len(counts) else 0,
        }


def _file_blocks(store: VoxelStore) -> list:
    """The bytes of a GSVX file before its digest, block by block."""
    grid, records = store.grid, store.records
    if records.encoded:
        raise ValueError("store files hold raw second halves; encode at load time")
    bad = np.flatnonzero((records.ids < 0) | (records.ids >= 2**32))
    if len(bad):
        raise ValueError(f"splat id {records.ids[bad[0]]} does not fit a store file's u4 id")
    header = _MAGIC + _HEADER.pack(_VERSION, 0, grid.edge, *grid.origin.tolist(),
                                   *grid.dims.tolist(), grid.nonempty_count)
    return [
        header,
        grid.vids.astype("<u4"),
        np.diff(records.offsets).astype("<u4"),
        np.concatenate([records.positions, records.max_scales[:, None]], axis=1, dtype="<f4"),
        np.concatenate([getattr(records, name).reshape(-1, math.prod(shape))
                        for name, shape in RAW_FINE_COLUMNS], axis=1, dtype="<f4"),
        records.ids.astype("<u4"),
    ]


def save_store(store: VoxelStore, path) -> None:
    """GSVX file: header, renaming table, per-voxel counts, the coarse, fine
    and id blocks of every splat, then the sha256 of all bytes before it,
    which becomes ``store.digest``."""
    blocks = _file_blocks(store)  # before the file opens, so no partial file is left
    h = hashlib.sha256()
    with open(path, "wb") as f:
        for block in blocks:
            h.update(block)
            f.write(block)
        f.write(h.digest())
    store.digest = h.digest()


def load_store(path) -> VoxelStore:
    """Read a GSVX file in one read, check its length and digest, then its
    grid and values; any fault is one ``StoreFormatError``."""
    with open(path, "rb") as f:
        data = f.read()
    if data[:4] != _MAGIC:
        raise StoreFormatError("bad voxel-store magic bytes")
    if len(data) < _HEADER_BYTES:
        raise StoreFormatError("truncated voxel-store header")
    version, kind, edge, *rest = _HEADER.unpack_from(data, len(_MAGIC))
    if version == 1:
        raise StoreFormatError(
            "voxel-store version 1 is no longer read; rebuild it with voxsplat build-voxels"
        )
    if version != _VERSION or kind != 0:
        raise StoreFormatError(f"unsupported store version {version} / kind {kind}")
    origin, dims, nonempty = rest[:3], rest[3:6], rest[6]
    cells = math.prod(dims)
    if nonempty > cells:
        raise StoreFormatError(f"{nonempty} non-empty voxels in a grid of {cells} cells")
    blocks = _HEADER_BYTES + 8 * nonempty
    if len(data) < blocks + _DIGEST_BYTES:
        raise StoreFormatError(f"truncated voxel store: {len(data)} bytes where its header "
                               f"gives at least {blocks + _DIGEST_BYTES}")
    counts = np.frombuffer(data, "<u4", nonempty, _HEADER_BYTES + 4 * nonempty)
    n = int(counts.sum(dtype=np.uint64))
    size = blocks + _BYTES_PER_SPLAT * n + _DIGEST_BYTES
    if len(data) != size:
        what = "truncated" if len(data) < size else "bytes past the end of the"
        raise StoreFormatError(
            f"{what} voxel store: {len(data)} bytes where its counts give {size}"
        )
    digest = data[-_DIGEST_BYTES:]
    if hashlib.sha256(memoryview(data)[:-_DIGEST_BYTES]).digest() != digest:
        raise StoreFormatError("voxel-store digest mismatch: the file is corrupt")
    try:
        grid = VoxelGrid(origin=origin, edge=edge, dims=dims,
                         vids=np.frombuffer(data, "<u4", nonempty, _HEADER_BYTES))
    except ValueError as exc:
        raise StoreFormatError(f"bad voxel-store header: {exc}") from None
    if not counts.all():
        raise StoreFormatError(f"voxel {counts.argmin()} is listed as non-empty but holds no splat")
    fine_at = blocks + COARSE_BYTES_PER_GAUSSIAN * n
    ids_at = fine_at + RAW_FINE_STREAM_BYTES * n
    coarse = np.frombuffer(data, ("<f4", COARSE_BYTES_PER_GAUSSIAN // 4), n, blocks)
    fine = np.frombuffer(data, ("<f4", RAW_FINE_STREAM_BYTES // 4), n, fine_at)
    columns = np.split(fine, np.cumsum([math.prod(shape) for _, shape in RAW_FINE_COLUMNS])[:-1],
                       axis=1)
    # a signalling NaN in the payload would warn in the float32 -> float64
    # casts; the checks below and Scene reject it with one StoreFormatError
    with np.errstate(invalid="ignore"):
        records = FlatRecords(
            offsets=np.concatenate([[0], np.cumsum(counts, dtype=np.int64)]),
            positions=coarse[:, :3].astype(np.float64),
            max_scales=coarse[:, 3].astype(np.float64),
            ids=np.frombuffer(data, "<u4", n, ids_at).astype(np.int64),
            **{name: column.astype(np.float64).reshape(n, *shape)
               for (name, shape), column in zip(RAW_FINE_COLUMNS, columns)},
        )
    # float32 rounding is monotone, so a saved store's coarse half is exactly
    # the max of its scales; NaN never compares equal
    bad = np.flatnonzero(records.max_scales != records.scales.max(axis=1))
    if len(bad):
        r = int(np.searchsorted(records.offsets, bad[0], "right")) - 1
        raise StoreFormatError(
            f"voxel {r}: a coarse max scale is not the largest of its splat's scales"
        )
    try:
        _scene(records, slice(None))
    except ValueError as exc:
        raise StoreFormatError(f"invalid splat values: {exc}") from None
    return VoxelStore(grid=grid, records=records, digest=digest)
