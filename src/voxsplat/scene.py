"""Scene and camera types, splat point-cloud I/O, and procedural test scenes.

A splat carries exactly 59 parameters: position (3), scale (3), rotation
quaternion (4, stored w,x,y,z), opacity (1) and 48 spherical-harmonic color
coefficients (16 per channel, degree 3).  Scales are kept linear in memory
(exponentiated at load) and opacities are post-sigmoid.
"""

from __future__ import annotations

import hashlib
import json
import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import PlyParseError, PlySchemaError

GAUSSIAN_PARAMS = 59
TILE_EDGE = 16
QUAT_NORM_TOL = 1e-6


@dataclass(frozen=True)
class Aabb:
    """Axis-aligned box; `hi` is inclusive for containment checks."""

    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "lo", np.asarray(self.lo, dtype=np.float64))
        object.__setattr__(self, "hi", np.asarray(self.hi, dtype=np.float64))
        if np.any(self.hi < self.lo):
            raise ValueError("box upper corner below lower corner")

    def contains(self, points: np.ndarray) -> np.ndarray:
        points = np.asarray(points, dtype=np.float64)
        return np.all((points >= self.lo) & (points <= self.hi), axis=-1)

    @property
    def extent(self) -> np.ndarray:
        return self.hi - self.lo


@dataclass
class Gaussian:
    """One splat.  Field layout mirrors the 59-parameter representation."""

    position: np.ndarray
    scale: np.ndarray
    rotation: np.ndarray
    opacity: float
    sh: np.ndarray  # (16, 3), coefficient 0 is the DC term
    id: int

    def __post_init__(self):
        self.position = np.asarray(self.position, dtype=np.float64).reshape(3)
        self.scale = np.asarray(self.scale, dtype=np.float64).reshape(3)
        self.rotation = np.asarray(self.rotation, dtype=np.float64).reshape(4)
        self.sh = np.asarray(self.sh, dtype=np.float64).reshape(16, 3)
        n = self.position.size + self.scale.size + self.rotation.size + 1 + self.sh.size
        assert n == GAUSSIAN_PARAMS
        if not np.all(self.scale > 0):
            raise ValueError("scale components must be positive")
        if not 0.0 <= self.opacity <= 1.0:
            raise ValueError("opacity outside [0, 1]")
        if abs(np.linalg.norm(self.rotation) - 1.0) > QUAT_NORM_TOL:
            raise ValueError("rotation quaternion not normalized")


@dataclass
class Scene:
    """Immutable-after-construction splat soup, stored as arrays of length N."""

    positions: np.ndarray  # (N, 3)
    scales: np.ndarray  # (N, 3), linear
    rotations: np.ndarray  # (N, 4), unit quaternions (w, x, y, z)
    opacities: np.ndarray  # (N,)
    sh: np.ndarray  # (N, 16, 3)
    ids: np.ndarray  # (N,)
    bounds: Aabb = field(default=None)

    def __post_init__(self):
        self.positions = np.asarray(self.positions, dtype=np.float64).reshape(-1, 3)
        n = len(self.positions)
        self.scales = np.asarray(self.scales, dtype=np.float64).reshape(n, 3)
        self.rotations = np.asarray(self.rotations, dtype=np.float64).reshape(n, 4)
        self.opacities = np.asarray(self.opacities, dtype=np.float64).reshape(n)
        self.sh = np.asarray(self.sh, dtype=np.float64).reshape(n, 16, 3)
        self.ids = np.asarray(self.ids, dtype=np.int64).reshape(n)
        for name in ("positions", "scales", "rotations", "opacities", "sh"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise ValueError(f"non-finite values in splat {name}")
        if self.bounds is None:
            if n:
                self.bounds = Aabb(self.positions.min(axis=0), self.positions.max(axis=0))
            else:
                self.bounds = Aabb(np.zeros(3), np.zeros(3))
        if n:
            norms = np.linalg.norm(self.rotations, axis=1)
            if np.any(np.abs(norms - 1.0) > QUAT_NORM_TOL):
                raise ValueError("rotation quaternions not normalized")
            if np.any(self.scales <= 0):
                raise ValueError("scale components must be positive")
            if np.any((self.opacities < 0) | (self.opacities > 1)):
                raise ValueError("opacity outside [0, 1]")
            if not np.all(self.bounds.contains(self.positions)):
                raise ValueError("scene bounds do not contain all positions")

    def __len__(self) -> int:
        return len(self.positions)

    def gaussian(self, i: int) -> Gaussian:
        return Gaussian(
            position=self.positions[i],
            scale=self.scales[i],
            rotation=self.rotations[i],
            opacity=float(self.opacities[i]),
            sh=self.sh[i],
            id=int(self.ids[i]),
        )


def scene_fingerprint(scene: Scene) -> str:
    """Order-stable content hash used to guard cross-pipeline comparisons."""
    h = hashlib.sha256()
    order = np.argsort(scene.ids, kind="stable")
    for arr in (
        scene.ids[order],
        scene.positions[order],
        scene.scales[order],
        scene.rotations[order],
        scene.opacities[order],
        scene.sh[order],
    ):
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()[:16]


@dataclass(frozen=True, eq=False)
class Camera:
    """Pinhole camera with pixel-unit intrinsics and a rigid world-to-camera map.

    `rotation` maps world to camera coordinates (camera looks along +z), so a
    world point p lands at ``rotation @ p + translation``.  Width and height
    must be multiples of the 16-pixel tile edge.
    """

    width: int
    height: int
    fx: float
    fy: float
    cx: float
    cy: float
    rotation: np.ndarray
    translation: np.ndarray
    near: float = 0.1

    def __post_init__(self):
        object.__setattr__(self, "rotation", np.asarray(self.rotation, dtype=np.float64).reshape(3, 3))
        object.__setattr__(self, "translation", np.asarray(self.translation, dtype=np.float64).reshape(3))
        if self.width % TILE_EDGE or self.height % TILE_EDGE:
            raise ValueError(f"image size must be a multiple of {TILE_EDGE}")
        if self.near <= 0:
            raise ValueError("near plane must be positive")
        rrt = self.rotation @ self.rotation.T
        if not np.allclose(rrt, np.eye(3), atol=1e-8):
            raise ValueError("world-to-camera rotation is not orthonormal")

    @property
    def position(self) -> np.ndarray:
        """Camera center in world coordinates."""
        return -self.rotation.T @ self.translation

    @property
    def tile_counts(self) -> tuple[int, int]:
        return self.width // TILE_EDGE, self.height // TILE_EDGE

    def to_camera(self, points: np.ndarray) -> np.ndarray:
        points = np.asarray(points, dtype=np.float64)
        return points @ self.rotation.T + self.translation

    def ray_directions(self, px: np.ndarray, py: np.ndarray) -> np.ndarray:
        """World-space directions through pixel centers (not normalized)."""
        dx = (np.asarray(px, dtype=np.float64) + 0.5 - self.cx) / self.fx
        dy = (np.asarray(py, dtype=np.float64) + 0.5 - self.cy) / self.fy
        d_cam = np.stack([dx, dy, np.ones_like(dx)], axis=-1)
        return d_cam @ self.rotation

    def to_json(self) -> dict:
        return {
            "width": self.width,
            "height": self.height,
            "fx": self.fx,
            "fy": self.fy,
            "cx": self.cx,
            "cy": self.cy,
            "world_to_camera": {
                "rotation": self.rotation.tolist(),
                "translation": self.translation.tolist(),
            },
            "near": self.near,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "Camera":
        w2c = obj["world_to_camera"]
        return cls(
            width=int(obj["width"]),
            height=int(obj["height"]),
            fx=float(obj["fx"]),
            fy=float(obj["fy"]),
            cx=float(obj["cx"]),
            cy=float(obj["cy"]),
            rotation=np.array(w2c["rotation"], dtype=np.float64),
            translation=np.array(w2c["translation"], dtype=np.float64),
            near=float(obj.get("near", 0.1)),
        )

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            json.dump(self.to_json(), f, indent=2)

    @classmethod
    def load(cls, path) -> "Camera":
        with open(path, "r", encoding="utf-8") as f:
            return cls.from_json(json.load(f))


def look_at_camera(
    eye,
    target,
    up=(0.0, -1.0, 0.0),
    width: int = 256,
    height: int = 256,
    focal: float = 300.0,
    near: float = 0.1,
) -> Camera:
    """Camera at `eye` looking toward `target` (y-down, z-forward image frame)."""
    eye = np.asarray(eye, dtype=np.float64)
    fwd = np.asarray(target, dtype=np.float64) - eye
    fwd = fwd / np.linalg.norm(fwd)
    up = np.asarray(up, dtype=np.float64)
    right = np.cross(up, fwd)
    right /= np.linalg.norm(right)
    down = np.cross(fwd, right)
    rot = np.stack([right, down, fwd])  # world -> camera rows
    return Camera(
        width=width,
        height=height,
        fx=focal,
        fy=focal,
        cx=width / 2.0,
        cy=height / 2.0,
        rotation=rot,
        translation=-rot @ eye,
        near=near,
    )


# --- PLY I/O ----------------------------------------------------------------
#
# Binary little-endian layout used by trained splat point clouds: x, y, z,
# nx, ny, nz (ignored), f_dc_0..2, f_rest_0..44 (channel-major: 15 per
# channel), opacity (logit), scale_0..2 (log), rot_0..3 (w, x, y, z).

_REQUIRED_PROPS = (
    ["x", "y", "z"]
    + [f"f_dc_{i}" for i in range(3)]
    + [f"f_rest_{i}" for i in range(45)]
    + ["opacity"]
    + [f"scale_{i}" for i in range(3)]
    + [f"rot_{i}" for i in range(4)]
)

_PLY_TYPES = {
    "float": "<f4",
    "float32": "<f4",
    "double": "<f8",
    "float64": "<f8",
    "uchar": "<u1",
    "uint8": "<u1",
    "char": "<i1",
    "int8": "<i1",
    "short": "<i2",
    "int16": "<i2",
    "ushort": "<u2",
    "uint16": "<u2",
    "int": "<i4",
    "int32": "<i4",
    "uint": "<u4",
    "uint32": "<u4",
}


def _parse_ply_header(f) -> tuple[int, list[tuple[str, str]]]:
    line = f.readline()
    if line.strip() != b"ply":
        raise PlyParseError("missing 'ply' magic line")
    fmt = f.readline().strip()
    if fmt != b"format binary_little_endian 1.0":
        raise PlyParseError(f"unsupported format line {fmt!r}; need binary little-endian 1.0")
    count = None
    props: list[tuple[str, str]] = []
    in_vertex = False
    while True:
        raw = f.readline()
        if not raw:
            raise PlyParseError("header ended before 'end_header'")
        line = raw.decode("ascii", "replace").strip()
        if line == "end_header":
            break
        if not line or line.startswith("comment"):
            continue
        parts = line.split()
        if parts[0] == "element":
            if len(parts) != 3:
                raise PlyParseError(f"malformed element line {line!r}")
            if parts[1] == "vertex":
                in_vertex = True
                try:
                    count = int(parts[2])
                except ValueError:
                    raise PlyParseError(f"bad vertex count in {line!r}") from None
            elif in_vertex:
                in_vertex = False  # vertex block done; later elements ignored
            elif count is None:
                raise PlyParseError(f"element {parts[1]!r} precedes vertex element")
        elif parts[0] == "property" and in_vertex:
            if parts[1] == "list":
                raise PlyParseError(f"list property {parts[-1]!r} not supported")
            if len(parts) != 3:
                raise PlyParseError(f"malformed property line {line!r}")
            if parts[1] not in _PLY_TYPES:
                raise PlyParseError(f"unknown property type {parts[1]!r}")
            props.append((parts[2], _PLY_TYPES[parts[1]]))
    if count is None:
        raise PlyParseError("no vertex element in header")
    return count, props


def load_ply(path) -> Scene:
    """Read a trained splat point cloud; ids follow file order."""
    with open(path, "rb") as f:
        count, props = _parse_ply_header(f)
        names = [p[0] for p in props]
        for req in _REQUIRED_PROPS:
            if req not in names:
                raise PlySchemaError(f"missing vertex property {req!r}")
        dtype = np.dtype(props)
        data = np.frombuffer(f.read(dtype.itemsize * count), dtype=dtype, count=count)

    pos = np.stack([data["x"], data["y"], data["z"]], axis=1).astype(np.float64)
    scales = np.exp(np.stack([data[f"scale_{i}"] for i in range(3)], axis=1).astype(np.float64))
    rots = np.stack([data[f"rot_{i}"] for i in range(4)], axis=1).astype(np.float64)
    norms = np.linalg.norm(rots, axis=1)
    if np.any(norms == 0):
        raise PlySchemaError("zero-norm rotation quaternion")
    rots /= norms[:, None]
    opac = 1.0 / (1.0 + np.exp(-data["opacity"].astype(np.float64)))
    sh = np.zeros((count, 16, 3), dtype=np.float64)
    for c in range(3):
        sh[:, 0, c] = data[f"f_dc_{c}"]
        for j in range(15):
            sh[:, 1 + j, c] = data[f"f_rest_{c * 15 + j}"]
    return Scene(
        positions=pos,
        scales=scales,
        rotations=rots,
        opacities=opac,
        sh=sh,
        ids=np.arange(count, dtype=np.int64),
    )


def save_ply(scene: Scene, path) -> None:
    """Write the standard 59-parameter binary layout (normals written as zero).

    Opacity and scale go through the inverse activations (logit / log), so a
    save -> load cycle is a fixed point at float32 precision.
    """
    n = len(scene)
    header_props = (
        ["x", "y", "z", "nx", "ny", "nz"]
        + [f"f_dc_{i}" for i in range(3)]
        + [f"f_rest_{i}" for i in range(45)]
        + ["opacity"]
        + [f"scale_{i}" for i in range(3)]
        + [f"rot_{i}" for i in range(4)]
    )
    dtype = np.dtype([(nm, "<f4") for nm in header_props])
    rec = np.zeros(n, dtype=dtype)
    rec["x"], rec["y"], rec["z"] = scene.positions.T.astype(np.float32)
    for c in range(3):
        rec[f"f_dc_{c}"] = scene.sh[:, 0, c]
        for j in range(15):
            rec[f"f_rest_{c * 15 + j}"] = scene.sh[:, 1 + j, c]
    op = np.clip(scene.opacities, 1e-9, 1.0 - 1e-9)
    rec["opacity"] = np.log(op / (1.0 - op))
    for i in range(3):
        rec[f"scale_{i}"] = np.log(scene.scales[:, i])
    for i in range(4):
        rec[f"rot_{i}"] = scene.rotations[:, i]

    with open(path, "wb") as f:
        f.write(b"ply\n")
        f.write(b"format binary_little_endian 1.0\n")
        f.write(f"element vertex {n}\n".encode("ascii"))
        for nm in header_props:
            f.write(f"property float {nm}\n".encode("ascii"))
        f.write(b"end_header\n")
        f.write(rec.tobytes())


# --- procedural scenes -------------------------------------------------------


def _random_unit_quaternions(rng: np.random.Generator, n: int) -> np.ndarray:
    q = rng.normal(size=(n, 4))
    return q / np.linalg.norm(q, axis=1, keepdims=True)


def generate_scene(
    count: int,
    bounds: Aabb,
    seed: int,
    max_extent_fraction: float = 1.0,
    *,
    voxel_edge: float = 2.0,
    constrained: bool = False,
    scale_range: tuple[float, float] | None = None,
    opacity_range: tuple[float, float] = (0.05, 0.98),
    dc_sigma: float = 0.35,
    rest_sigma: float = 0.04,
    rest_prototypes: int = 48,
    rest_jitter: float = 0.0015,
    margin_sigmas: float = 6.0,
    min_separation_sigmas: float = 16.0,
) -> Scene:
    """Deterministic synthetic desk-scale scene.

    ``max_extent_fraction`` caps every splat's 3-sigma extent at
    ``fraction * voxel_edge / 2``.  With ``constrained=True`` the placement
    additionally guarantees an unambiguous cross-voxel blending order for
    moderate-field-of-view cameras:

    * each center sits at least ``margin_sigmas * max(scale)`` from every
      face of its voxel, so a splat's visible footprint never reaches rays
      that miss its voxel;
    * centers in *different* voxels are at least
      ``min_separation_sigmas * (s_a + s_b)`` apart, which rules out pairs
      whose screen footprints overlap while their depth order disagrees
      with the voxel traversal order;
    * higher-order SH vectors are drawn from a small per-scene prototype
      set plus jitter, mimicking the clustering of trained scenes.
    """
    if count <= 0:
        raise ValueError("count must be positive")
    if not 0.0 < max_extent_fraction <= 1.0:
        raise ValueError("max_extent_fraction must be in (0, 1]")
    if voxel_edge <= 0:
        raise ValueError("voxel_edge must be positive")

    rng = np.random.default_rng(seed)
    s_cap = max_extent_fraction * voxel_edge / 6.0  # 3*s_max <= fraction*edge/2
    if scale_range is None:
        scale_range = (2.0 / 3.0 * s_cap, s_cap) if constrained else (0.25 * s_cap, s_cap)
    if not 0 < scale_range[0] <= scale_range[1] <= s_cap * (1 + 1e-12):
        raise ValueError("scale_range inconsistent with max_extent_fraction")

    s_max = rng.uniform(scale_range[0], scale_range[1], size=count)
    # per-splat anisotropy: components in [0.5, 1] of the max scale
    scales = s_max[:, None] * rng.uniform(0.5, 1.0, size=(count, 3))
    axis_pick = rng.integers(0, 3, size=count)
    scales[np.arange(count), axis_pick] = s_max

    if constrained:
        positions = _place_constrained(
            rng, count, bounds, voxel_edge, s_max, margin_sigmas, min_separation_sigmas
        )
    else:
        positions = rng.uniform(bounds.lo, bounds.hi, size=(count, 3))

    rotations = _random_unit_quaternions(rng, count)
    opacities = rng.uniform(opacity_range[0], opacity_range[1], size=count)
    sh = np.zeros((count, 16, 3))
    sh[:, 0, :] = rng.normal(0.0, dc_sigma, size=(count, 3))
    if constrained:
        protos = rng.normal(0.0, rest_sigma, size=(rest_prototypes, 15, 3))
        pick = rng.integers(0, rest_prototypes, size=count)
        sh[:, 1:, :] = protos[pick] + rng.normal(0.0, rest_jitter, size=(count, 15, 3))
    else:
        sh[:, 1:, :] = rng.normal(0.0, rest_sigma, size=(count, 15, 3))

    return Scene(
        positions=positions,
        scales=scales,
        rotations=rotations,
        opacities=opacities,
        sh=sh,
        ids=np.arange(count, dtype=np.int64),
        bounds=bounds,
    )


def _place_constrained(
    rng: np.random.Generator,
    count: int,
    bounds: Aabb,
    edge: float,
    s_max: np.ndarray,
    margin_sigmas: float,
    min_separation_sigmas: float,
) -> np.ndarray:
    # same snapped lattice as the voxel store, so margins survive a round trip
    origin = np.floor(bounds.lo / edge) * edge
    dims = np.maximum(1, np.floor((bounds.hi - origin) / edge).astype(int) + 1)
    # voxel occupancy hash for the cross-voxel separation test
    by_voxel: dict[tuple[int, int, int], list[int]] = {}
    positions = np.empty((count, 3))
    max_margin = margin_sigmas * s_max.max()
    if 2.0 * max_margin >= edge:
        raise ValueError("voxel edge too small for the requested placement margin")

    for i in range(count):
        margin = margin_sigmas * s_max[i]
        placed = False
        for _ in range(500):
            vox = tuple(rng.integers(0, dims))
            lo = np.maximum(origin + np.array(vox) * edge + margin, bounds.lo)
            hi = np.minimum(origin + (np.array(vox) + 1) * edge - margin, bounds.hi)
            if np.any(hi <= lo):
                continue
            p = rng.uniform(lo, hi)
            ok = True
            for dv in np.ndindex(3, 3, 3):
                nb = (vox[0] + dv[0] - 1, vox[1] + dv[1] - 1, vox[2] + dv[2] - 1)
                if nb == vox:
                    continue  # same-voxel neighbors are ordered consistently anyway
                for j in by_voxel.get(nb, ()):
                    sep = min_separation_sigmas * (s_max[i] + s_max[j])
                    if np.sum((p - positions[j]) ** 2) < sep * sep:
                        ok = False
                        break
                if not ok:
                    break
            if ok:
                positions[i] = p
                by_voxel.setdefault(vox, []).append(i)
                placed = True
                break
        if not placed:
            raise RuntimeError(
                "constrained placement failed; lower count or scales for these bounds"
            )
    return positions
