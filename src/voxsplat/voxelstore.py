"""Voxel partition of a scene and the two-half per-voxel record layout.

Each splat lives in exactly one voxel, chosen by its center (extent may
overhang).  Non-empty voxels get dense renamed ids; each record keeps the
lightweight first half (position + max scale, streamed for coarse filtering)
apart from the second half (everything else, raw or codebook-encoded).
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import CodebookCorruptionError, StoreFormatError
from .scene import Aabb, Scene, scene_fingerprint
from .vq import ATTRIBUTES, Codebook, nearest_indices

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
    renaming: dict[int, int] = field(default_factory=dict)  # VID -> VID_r

    def __post_init__(self):
        self.origin = np.asarray(self.origin, dtype=np.float64).reshape(3)
        self.dims = np.asarray(self.dims, dtype=np.int64).reshape(3)
        _check_edge(self.edge)
        if not np.all(np.isfinite(self.origin)):
            raise ValueError("grid origin must be finite")
        if np.any(self.dims < 1):
            raise ValueError("grid dims must be >= 1")
        cells = math.prod(int(d) for d in self.dims)
        if cells > MAX_GRID_CELLS:
            raise ValueError(f"grid of {cells} cells exceeds the cap of {MAX_GRID_CELLS}")

    def __setattr__(self, name, value):
        # the lookup tables below derive from ``renaming``; nothing mutates
        # the dict in place, so reassigning it is the only way they go stale
        if name == "renaming":
            self._dense = self._inverse = None
        super().__setattr__(name, value)

    @property
    def voxel_count(self) -> int:
        return int(np.prod(self.dims))

    @property
    def nonempty_count(self) -> int:
        return len(self.renaming)

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

    def renamed_vids(self) -> np.ndarray:
        """Original VIDs ordered by renamed id (cached until ``renaming`` is reassigned)."""
        if self._inverse is None:
            out = np.empty(len(self.renaming), dtype=np.int64)
            for vid, vid_r in self.renaming.items():
                out[vid_r] = vid
            self._inverse = out
        return self._inverse

    def dense_renaming(self) -> np.ndarray:
        """Array lookup VID -> VID_r with -1 for empty voxels (cached until
        ``renaming`` is reassigned)."""
        if self._dense is None:
            table = np.full(self.voxel_count, -1, dtype=np.int64)
            for vid, vid_r in self.renaming.items():
                table[vid] = vid_r
            self._dense = table
        return self._dense

    def centers(self, vid_r: np.ndarray) -> np.ndarray:
        cells = self.cell_of_vid(self.renamed_vids()[np.asarray(vid_r)])
        return self.origin + (cells + 0.5) * self.edge

    def voxel_aabb(self, vid_r: int) -> Aabb:
        cell = self.cell_of_vid(np.asarray(self.renamed_vids()[vid_r]))
        lo = self.origin + cell * self.edge
        return Aabb(lo, lo + self.edge)

    @property
    def world_aabb(self) -> Aabb:
        return Aabb(self.origin, self.origin + self.dims * self.edge)


def _check_edge(edge: float) -> None:
    if not (math.isfinite(edge) and edge > 0):
        raise ValueError(f"voxel edge must be positive and finite, got {edge}")


@dataclass
class VoxelRecord:
    """All splats resident in one voxel, in ascending-id order."""

    vid_r: int
    positions: np.ndarray  # (n, 3) first half
    max_scales: np.ndarray  # (n,) first half
    ids: np.ndarray  # (n,)
    # raw second half (present unless encoded)
    scales: np.ndarray | None = None
    rotations: np.ndarray | None = None
    dc: np.ndarray | None = None
    sh_rest: np.ndarray | None = None  # (n, 15, 3)
    opacities: np.ndarray | None = None  # raw in both layouts
    # encoded second half
    scale_idx: np.ndarray | None = None
    rot_idx: np.ndarray | None = None
    dc_idx: np.ndarray | None = None
    sh_idx: np.ndarray | None = None

    @property
    def count(self) -> int:
        return len(self.ids)

    @property
    def encoded(self) -> bool:
        return self.scale_idx is not None


def build_grid(scene: Scene, edge: float) -> tuple[VoxelGrid, list[VoxelRecord]]:
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

    records: list[VoxelRecord] = []
    if len(scene):
        vids = grid.vid_of_cell(grid.cell_of(scene.positions))
        order = np.lexsort((scene.ids, vids))
        sorted_vids = vids[order]
        uniq, starts = np.unique(sorted_vids, return_index=True)
        grid.renaming = {int(v): r for r, v in enumerate(uniq)}
        boundaries = np.append(starts, len(sorted_vids))
        max_scales = scene.scales.max(axis=1)
        for r in range(len(uniq)):
            sel = order[boundaries[r] : boundaries[r + 1]]
            records.append(
                VoxelRecord(
                    vid_r=r,
                    positions=scene.positions[sel].copy(),
                    max_scales=max_scales[sel].copy(),
                    ids=scene.ids[sel].copy(),
                    scales=scene.scales[sel].copy(),
                    rotations=scene.rotations[sel].copy(),
                    dc=scene.sh[sel, 0, :].copy(),
                    sh_rest=scene.sh[sel, 1:, :].copy(),
                    opacities=scene.opacities[sel].copy(),
                )
            )
    return grid, records


def gather_attribute(records: list[VoxelRecord], attribute: str) -> np.ndarray:
    """Concatenated raw attribute vectors across records, in VID_r order."""
    if attribute not in ATTRIBUTES:
        raise ValueError(f"unknown attribute {attribute!r}")
    parts = []
    for rec in records:
        if rec.encoded:
            raise ValueError("records already encoded; raw attributes unavailable")
        if attribute == "scale":
            parts.append(rec.scales)
        elif attribute == "rotation":
            parts.append(rec.rotations)
        elif attribute == "dc":
            parts.append(rec.dc)
        else:
            parts.append(rec.sh_rest.reshape(rec.count, 45))
    if not parts:
        return np.empty((0, {"scale": 3, "rotation": 4, "dc": 3, "sh_rest": 45}[attribute]))
    return np.concatenate(parts, axis=0)


def encode_records(records: list[VoxelRecord], books: dict[str, Codebook]) -> list[VoxelRecord]:
    """Replace raw second halves with codebook indices (new record list)."""
    out = []
    for rec in records:
        if rec.encoded:
            raise ValueError("records already encoded")
        out.append(
            VoxelRecord(
                vid_r=rec.vid_r,
                positions=rec.positions,
                max_scales=rec.max_scales,
                ids=rec.ids,
                opacities=rec.opacities,
                scale_idx=nearest_indices(rec.scales, books["scale"]),
                rot_idx=nearest_indices(rec.rotations, books["rotation"]),
                dc_idx=nearest_indices(rec.dc, books["dc"]),
                sh_idx=nearest_indices(rec.sh_rest.reshape(rec.count, 45), books["sh_rest"]),
            )
        )
    return out


def stream_coarse(record: VoxelRecord, ledger) -> tuple[np.ndarray, np.ndarray]:
    """Fetch the first halves of a voxel, charging 16 bytes per splat."""
    ledger.charge("coarse-load", COARSE_BYTES_PER_GAUSSIAN * record.count, record.count)
    return record.positions, record.max_scales


def stream_fine(
    record: VoxelRecord,
    survivors: np.ndarray,
    books: dict[str, Codebook] | None,
    ledger,
    *,
    decode: bool,
) -> tuple | None:
    """Fetch the second halves of the surviving splats, charging for them only.

    Encoded records charge the 12-byte packed layout; raw records charge 56
    float32 values.  With ``decode``, returns the whole voxel decoded as
    ``project_splats``'s inputs (positions, scales, rotations, opacities, sh,
    ids), else None: a renderer decodes each voxel once per frame and
    reuses its projection on later visits, which the ledger still charges.
    """
    survivors = np.asarray(survivors, dtype=np.int64)
    n = len(survivors)
    if np.any((survivors < 0) | (survivors >= record.count)):
        raise ValueError("survivor index out of range")
    if record.encoded and books is None:
        raise ValueError("encoded records need codebooks to decode")
    per_splat = ENCODED_FINE_BYTES if record.encoded else RAW_FINE_STREAM_BYTES
    ledger.charge("fine-load", per_splat * n, n)
    if not decode:
        return None
    if record.encoded:
        scales = _lookup(books, "scale", record.scale_idx, record.vid_r)
        rots = _lookup(books, "rotation", record.rot_idx, record.vid_r)
        norms = np.linalg.norm(rots, axis=1, keepdims=True)
        norms[norms == 0.0] = 1.0
        rots = rots / norms
        dc = _lookup(books, "dc", record.dc_idx, record.vid_r)
        rest = _lookup(books, "sh_rest", record.sh_idx, record.vid_r).reshape(record.count, 15, 3)
    else:
        scales, rots, dc, rest = record.scales, record.rotations, record.dc, record.sh_rest
    sh = np.concatenate([dc[:, None, :], rest], axis=1)
    return record.positions, scales, rots, record.opacities, sh, record.ids


def _lookup(books: dict[str, Codebook], attribute: str, idx: np.ndarray, vid_r: int):
    """Centroids for one voxel's indices into one codebook, range-checked."""
    count = books[attribute].entry_count
    bad = idx[(idx < 0) | (idx >= count)]
    if len(bad):
        raise CodebookCorruptionError(
            f"{attribute} index {bad[0]} out of range for {count} entries in voxel {vid_r}"
        )
    return books[attribute].entries[idx].astype(np.float64)


def scene_from_records(grid: VoxelGrid, records: list[VoxelRecord]) -> Scene:
    """Rebuild the flat scene (id order) from raw records, e.g. for the oracle."""
    if not records:
        return Scene(
            positions=np.empty((0, 3)),
            scales=np.empty((0, 3)),
            rotations=np.empty((0, 4)),
            opacities=np.empty(0),
            sh=np.empty((0, 16, 3)),
            ids=np.empty(0, dtype=np.int64),
        )
    ids = np.concatenate([r.ids for r in records])
    order = np.argsort(ids, kind="stable")
    sh = np.concatenate(
        [np.concatenate([r.dc[:, None, :], r.sh_rest], axis=1) for r in records]
    )
    return Scene(
        positions=np.concatenate([r.positions for r in records])[order],
        scales=np.concatenate([r.scales for r in records])[order],
        rotations=np.concatenate([r.rotations for r in records])[order],
        opacities=np.concatenate([r.opacities for r in records])[order],
        sh=sh[order],
        ids=ids[order],
    )


@dataclass
class VoxelStore:
    """Grid + records + the fingerprint of the scene they came from."""

    grid: VoxelGrid
    records: list[VoxelRecord]
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
        counts = [r.count for r in self.records]
        return {
            "voxels": self.grid.voxel_count,
            "nonempty": len(self.records),
            "gaussians": int(sum(counts)),
            "min_per_voxel": int(min(counts)) if counts else 0,
            "max_per_voxel": int(max(counts)) if counts else 0,
        }


def save_store(store: VoxelStore, path) -> None:
    """GSVX file: header, renaming table, then raw per-voxel blocks."""
    grid = store.grid
    with open(path, "wb") as f:
        f.write(_MAGIC)
        f.write(struct.pack("<HB", _VERSION, 0))  # fine-block kind 0 = raw
        f.write(struct.pack("<d", grid.edge))
        f.write(np.asarray(grid.origin, dtype="<f8").tobytes())
        f.write(np.asarray(grid.dims, dtype="<u4").tobytes())
        f.write(struct.pack("<I", grid.nonempty_count))
        f.write(grid.renamed_vids().astype("<u4").tobytes())
        for rec in store.records:
            if rec.encoded:
                raise ValueError("store files hold raw second halves; encode at load time")
            f.write(struct.pack("<I", rec.count))
            coarse = np.concatenate([rec.positions, rec.max_scales[:, None]], axis=1)
            f.write(coarse.astype("<f4").tobytes())
            fine = np.concatenate(
                [
                    rec.scales,
                    rec.rotations,
                    rec.dc,
                    rec.sh_rest.reshape(rec.count, 45),
                    rec.opacities[:, None],
                ],
                axis=1,
            )
            f.write(fine.astype("<f4").tobytes())
            f.write(rec.ids.astype("<u4").tobytes())


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
    with open(path, "rb") as f:
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
        try:
            grid = VoxelGrid(origin=origin, edge=edge, dims=dims)
        except ValueError as exc:
            raise StoreFormatError(f"bad voxel-store header: {exc}") from None
        if nonempty > grid.voxel_count:
            raise StoreFormatError(
                f"{nonempty} non-empty voxels in a grid of {grid.voxel_count} cells"
            )
        table = reader.read(4 * nonempty, "voxel renaming table")
        vids = np.frombuffer(table, dtype="<u4").astype(np.int64)
        if np.any(np.diff(vids) <= 0) or np.any(vids >= grid.voxel_count):
            raise StoreFormatError(
                f"voxel renaming table is not strictly ascending below {grid.voxel_count}"
            )
        grid.renaming = {int(v): r for r, v in enumerate(vids)}
        records = []
        for r in range(nonempty):
            (count,) = struct.unpack("<I", reader.read(4, f"record header for voxel {r}"))
            payload = reader.read(4 * 61 * count, f"record payload for voxel {r}")
            coarse = np.frombuffer(payload, dtype="<f4", count=4 * count).reshape(count, 4)
            fine = np.frombuffer(payload, dtype="<f4", count=56 * count, offset=16 * count)
            fine = fine.reshape(count, 56)
            ids = np.frombuffer(payload, dtype="<u4", offset=4 * 60 * count).astype(np.int64)
            records.append(
                VoxelRecord(
                    vid_r=r,
                    positions=coarse[:, :3].astype(np.float64),
                    max_scales=coarse[:, 3].astype(np.float64),
                    ids=ids,
                    scales=fine[:, 0:3].astype(np.float64),
                    rotations=fine[:, 3:7].astype(np.float64),
                    dc=fine[:, 7:10].astype(np.float64),
                    sh_rest=fine[:, 10:55].astype(np.float64).reshape(count, 15, 3),
                    opacities=fine[:, 55].astype(np.float64),
                )
            )
    try:
        scene = scene_from_records(grid, records)
    except ValueError as exc:
        raise StoreFormatError(f"invalid splat values: {exc}") from None
    return VoxelStore(grid=grid, records=records, scene_hash=scene_fingerprint(scene))
