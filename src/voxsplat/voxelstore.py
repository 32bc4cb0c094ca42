"""Voxel partition of a scene and the flat two-half splat layout.

Each splat lives in exactly one voxel, chosen by its center (extent may
overhang).  Non-empty voxels get dense renamed ids.  The records keep every
splat in one array per attribute, sorted by (renamed voxel id, splat id),
so voxel r is rows ``offsets[r]:offsets[r + 1]`` of each.  The lightweight
first half (position + max scale, streamed for coarse filtering) lives apart
from the second half (everything else, raw or codebook-encoded).
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass, replace

import numpy as np

from .errors import CodebookCorruptionError, StoreFormatError
from .scene import Scene, scene_fingerprint
from .vq import ATTRIBUTE_DIMS, ATTRIBUTES, Codebook, nearest_indices

COARSE_BYTES_PER_GAUSSIAN = 16  # 4 params x float32
ENCODED_FINE_BYTES = 12  # 2+2+2+2 byte-aligned indices + raw float32 opacity
RAW_FINE_PARAMS = 55  # scale(3) + rotation(4) + dc(3) + sh_rest(45)
RAW_FINE_BYTES = RAW_FINE_PARAMS * 4
RAW_FINE_STREAM_BYTES = RAW_FINE_BYTES + 4  # opacity rides along when VQ is off
PACKED_INDEX_BITS = 12 + 12 + 12 + 9 + 32  # bit-exact alternative packing

# Lookup tables such as ``dense_renaming`` hold one entry per cell; the cap
# bounds them (128 MB of int64) whatever a file header claims.
MAX_GRID_CELLS = 1 << 24

_MAGIC = b"GSVX"
_VERSION = 1


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

    def vid_of_cell(self, cells: np.ndarray) -> np.ndarray:
        cells = np.asarray(cells, dtype=np.int64)
        return cells[..., 0] + self.dims[0] * (cells[..., 1] + self.dims[1] * cells[..., 2])

    def cell_of_vid(self, vids: np.ndarray) -> np.ndarray:
        vids = np.asarray(vids, dtype=np.int64)
        ix = vids % self.dims[0]
        iy = (vids // self.dims[0]) % self.dims[1]
        iz = vids // (self.dims[0] * self.dims[1])
        return np.stack([ix, iy, iz], axis=-1)

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

    def __len__(self) -> int:
        """The number of voxels."""
        return len(self.offsets) - 1

    @property
    def encoded(self) -> bool:
        return self.scale_idx is not None

    def rows(self, vid_r: int) -> slice:
        """Voxel ``vid_r``'s rows of every per-splat array."""
        return slice(*self.offsets[vid_r : vid_r + 2].tolist())


def build_grid(scene: Scene, edge: float) -> tuple[VoxelGrid, FlatRecords]:
    """Partition by splat centers; records ordered by renamed voxel id.

    The grid origin is snapped down to a multiple of the edge, so cell
    boundaries form a global lattice: assignment does not depend on which
    splats happen to be present.
    """
    _check_edge(edge)
    origin = np.floor(scene.bounds.lo / edge) * edge
    if len(scene):
        # +1 so positions exactly on the far bound stay in range under floor
        dims = np.floor((scene.bounds.hi - origin) / edge).astype(np.int64) + 1
    else:
        dims = np.ones(3, dtype=np.int64)
    grid = VoxelGrid(origin=origin, edge=float(edge), dims=dims)
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
    """Replace raw second halves with codebook indices (new records sharing
    the first halves and the opacities)."""
    if records.encoded:
        raise ValueError("records already encoded")
    for name in ATTRIBUTES:
        if books[name].dim != ATTRIBUTE_DIMS[name]:
            raise ValueError(f"codebook {name!r} has dim {books[name].dim}")
    scale, rot, dc, sh = (nearest_indices(gather_attribute(records, name), books[name])
                          for name in ATTRIBUTES)
    return replace(records, scales=None, rotations=None, sh=None,
                   scale_idx=scale, rot_idx=rot, dc_idx=dc, sh_idx=sh)


def stream_coarse(records: FlatRecords, vid_r: int, ledger) -> tuple[np.ndarray, np.ndarray]:
    """Fetch the first halves of a voxel, charging 16 bytes per splat."""
    rows = records.rows(vid_r)
    count = rows.stop - rows.start
    ledger.charge("coarse-load", COARSE_BYTES_PER_GAUSSIAN * count, count)
    return records.positions[rows], records.max_scales[rows]


def stream_fine(
    records: FlatRecords,
    vid_r: int,
    survivors: np.ndarray,
    books: dict[str, Codebook] | None,
    ledger,
    *,
    decode: bool,
) -> tuple | None:
    """Fetch the second halves of a voxel's surviving splats, charging for them only.

    Encoded records charge the 12-byte packed layout; raw records charge 56
    float32 values.  With ``decode``, returns the whole voxel decoded as
    ``project_splats``'s inputs (positions, scales, rotations, opacities, sh,
    ids), else None: a renderer decodes each voxel once per frame and
    reuses its projection on later visits, which the ledger still charges.
    """
    rows = records.rows(vid_r)
    count = rows.stop - rows.start
    survivors = np.asarray(survivors, dtype=np.int64)
    n = len(survivors)
    if np.any((survivors < 0) | (survivors >= count)):
        raise ValueError("survivor index out of range")
    if records.encoded and books is None:
        raise ValueError("encoded records need codebooks to decode")
    per_splat = ENCODED_FINE_BYTES if records.encoded else RAW_FINE_STREAM_BYTES
    ledger.charge("fine-load", per_splat * n, n)
    if not decode:
        return None
    if records.encoded:
        scales = _lookup(books, "scale", records.scale_idx[rows], vid_r)
        rots = _lookup(books, "rotation", records.rot_idx[rows], vid_r)
        norms = np.linalg.norm(rots, axis=1, keepdims=True)
        norms[norms == 0.0] = 1.0
        rots = rots / norms
        dc = _lookup(books, "dc", records.dc_idx[rows], vid_r)
        rest = _lookup(books, "sh_rest", records.sh_idx[rows], vid_r).reshape(count, 15, 3)
        sh = np.concatenate([dc[:, None, :], rest], axis=1)
    else:
        scales, rots, sh = records.scales[rows], records.rotations[rows], records.sh[rows]
    return records.positions[rows], scales, rots, records.opacities[rows], sh, records.ids[rows]


def _lookup(books: dict[str, Codebook], attribute: str, idx: np.ndarray, vid_r: int):
    """Centroids for one voxel's indices into one codebook, range-checked."""
    count = books[attribute].entry_count
    bad = idx[(idx < 0) | (idx >= count)]
    if len(bad):
        raise CodebookCorruptionError(
            f"{attribute} index {bad[0]} out of range for {count} entries in voxel {vid_r}"
        )
    return books[attribute].entries[idx].astype(np.float64)


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
    """Grid + records + the fingerprint of the scene they came from."""

    grid: VoxelGrid
    records: FlatRecords
    scene_hash: str

    @classmethod
    def build(cls, scene: Scene, edge: float) -> "VoxelStore":
        grid, records = build_grid(scene, edge)
        return cls(grid=grid, records=records, scene_hash=scene_fingerprint(scene))

    def encode(self, books: dict[str, Codebook]) -> "VoxelStore":
        return VoxelStore(
            grid=self.grid, records=encode_records(self.records, books), scene_hash=self.scene_hash
        )

    def occupancy(self) -> dict:
        counts = np.diff(self.records.offsets)
        return {
            "voxels": self.grid.voxel_count,
            "nonempty": len(counts),
            "gaussians": int(counts.sum()),
            "min_per_voxel": int(counts.min()) if len(counts) else 0,
            "max_per_voxel": int(counts.max()) if len(counts) else 0,
        }


def save_store(store: VoxelStore, path) -> None:
    """GSVX file: header, renaming table, then raw per-voxel blocks."""
    grid, records = store.grid, store.records
    if records.encoded:
        raise ValueError("store files hold raw second halves; encode at load time")
    coarse = np.concatenate([records.positions, records.max_scales[:, None]], axis=1, dtype="<f4")
    fine = np.concatenate(
        [records.scales, records.rotations, records.sh.reshape(-1, 48), records.opacities[:, None]],
        axis=1,
        dtype="<f4",
    )
    ids = records.ids.astype("<u4")
    with open(path, "wb") as f:
        f.write(_MAGIC)
        f.write(struct.pack("<HB", _VERSION, 0))  # fine-block kind 0 = raw
        f.write(struct.pack("<d", grid.edge))
        f.write(np.asarray(grid.origin, dtype="<f8").tobytes())
        f.write(np.asarray(grid.dims, dtype="<u4").tobytes())
        f.write(struct.pack("<I", grid.nonempty_count))
        f.write(grid.vids.astype("<u4").tobytes())
        for r in range(len(records)):
            rows = records.rows(r)
            f.write(struct.pack("<I", rows.stop - rows.start))
            f.write(coarse[rows].tobytes())
            f.write(fine[rows].tobytes())
            f.write(ids[rows].tobytes())


class _StoreReader:
    """Reads a store file without asking for more bytes than are left, so a
    size taken from a header can never trigger a huge allocation."""

    def __init__(self, f):
        self.f = f
        self.left = os.fstat(f.fileno()).st_size - f.tell()

    def read(self, size: int, what: str) -> bytes:
        if size > self.left:
            raise StoreFormatError(f"truncated {what}")
        self.left -= size
        return self.f.read(size)


def load_store(path) -> VoxelStore:
    # a signalling NaN in the payload would warn in the float32 -> float64
    # casts; the checks below and Scene reject it with one StoreFormatError
    with open(path, "rb") as f, np.errstate(invalid="ignore"):
        if f.read(4) != _MAGIC:
            raise StoreFormatError("bad voxel-store magic bytes")
        reader = _StoreReader(f)
        version, kind = struct.unpack("<HB", reader.read(3, "voxel-store header"))
        if version != _VERSION or kind != 0:
            raise StoreFormatError(f"unsupported store version {version} / kind {kind}")
        (edge,) = struct.unpack("<d", reader.read(8, "voxel-store header"))
        origin = np.frombuffer(reader.read(24, "voxel-store header"), dtype="<f8").copy()
        dims = np.frombuffer(reader.read(12, "voxel-store header"), dtype="<u4")
        dims = dims.astype(np.int64)
        (nonempty,) = struct.unpack("<I", reader.read(4, "voxel-store header"))
        cells = math.prod(int(d) for d in dims)
        if nonempty > cells:
            raise StoreFormatError(f"{nonempty} non-empty voxels in a grid of {cells} cells")
        vids = np.frombuffer(reader.read(4 * nonempty, "voxel renaming table"), dtype="<u4")
        try:
            grid = VoxelGrid(origin=origin, edge=edge, dims=dims, vids=vids)
        except ValueError as exc:
            raise StoreFormatError(f"bad voxel-store header: {exc}") from None
        records = _read_records(reader, nonempty)
    # float32 rounding is monotone, so a saved store's coarse half is exactly
    # the max of its scales; NaN never compares equal
    bad = np.flatnonzero(records.max_scales != records.scales.max(axis=1))
    if len(bad):
        r = int(np.searchsorted(records.offsets, bad[0], "right")) - 1
        raise StoreFormatError(
            f"voxel {r}: a coarse max scale is not the largest of its splat's scales"
        )
    try:
        # voxel order: the fingerprint sorts by id itself
        scene = _scene(records, slice(None))
    except ValueError as exc:
        raise StoreFormatError(f"invalid splat values: {exc}") from None
    return VoxelStore(grid=grid, records=records, scene_hash=scene_fingerprint(scene))


def _read_records(reader: _StoreReader, nonempty: int) -> FlatRecords:
    """The per-voxel blocks of a store file, cast into flat float64 arrays."""
    counts, coarse, fine, ids = [], [], [], []
    for r in range(nonempty):
        (count,) = struct.unpack("<I", reader.read(4, f"record header for voxel {r}"))
        payload = memoryview(reader.read(4 * 61 * count, f"record payload for voxel {r}"))
        counts.append(count)
        coarse.append(payload[: 16 * count])
        fine.append(payload[16 * count : 240 * count])
        ids.append(payload[240 * count :])
    coarse = np.frombuffer(b"".join(coarse), dtype="<f4").reshape(-1, 4)
    fine = np.frombuffer(b"".join(fine), dtype="<f4").reshape(-1, 56)
    return FlatRecords(
        offsets=np.cumsum([0] + counts),
        positions=coarse[:, :3].astype(np.float64),
        max_scales=coarse[:, 3].astype(np.float64),
        ids=np.frombuffer(b"".join(ids), dtype="<u4").astype(np.int64),
        opacities=fine[:, 55].astype(np.float64),
        scales=fine[:, 0:3].astype(np.float64),
        rotations=fine[:, 3:7].astype(np.float64),
        sh=fine[:, 7:55].astype(np.float64).reshape(-1, 16, 3),
    )
