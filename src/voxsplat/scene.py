"""Scene and camera types, splat point-cloud I/O, and procedural test scenes.

A splat carries exactly 59 parameters: position (3), scale (3), rotation
quaternion (4, stored w,x,y,z), opacity (1) and 48 spherical-harmonic color
coefficients (16 per channel, degree 3).  Scales are kept linear in memory
(exponentiated at load) and opacities are post-sigmoid.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.recfunctions import structured_to_unstructured

from .errors import CameraFormatError, PlyParseError, PlySchemaError

TILE_EDGE = 16
# Per-pixel arrays such as a frame or a tile row's ray walk scale with the
# image; the cap bounds them whatever a camera file asks for.
MAX_PIXELS = 1 << 24
# Focal lengths and principal point in pixels, translation in world units:
# within these, projection, ray set-up and tile binning stay finite in float64.
FOCAL_RANGE = (1e-3, 1e6)
PRINCIPAL_POINT_RANGE = (-1e7, 1e7)
TRANSLATION_RANGE = (-1e9, 1e9)
# How far a splat quaternion's norm, and each entry of a camera rotation's
# W W^T, may stray from 1 and from the identity's; the coarse filter's margin
# is derived from both (``filtering.COARSE_SAFETY``).  The rotation's is the
# diagonal reach of np.allclose(W W^T, I, atol=1e-8), numpy's default rtol
# plus the atol, so it takes every rotation allclose takes, and holds on
# every entry.
QUAT_NORM_TOL = 1e-6
CAMERA_ROTATION_TOL = 1e-5 + 1e-8


# (x, y) offsets of a tile's pixels, row-major: mgrid gives (y, x), reversed
_TILE_OFFSETS = np.stack(np.mgrid[0:TILE_EDGE, 0:TILE_EDGE][::-1], axis=-1).reshape(-1, 2)


def tile_pixels(tiles) -> np.ndarray:
    """(len(tiles), 256, 2) integer (x, y) pixel coordinates of each (tx, ty)
    tile, row-major inside a tile.  Pixel centers are these plus 0.5."""
    return np.asarray(tiles, dtype=np.int64).reshape(-1, 1, 2) * TILE_EDGE + _TILE_OFFSETS


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
        fmax = np.finfo(np.float32).max
        for name in ("positions", "scales", "rotations", "opacities", "sh"):
            x = getattr(self, name)  # NaN fails both comparisons
            if not (x.min(initial=0.0) >= -fmax and x.max(initial=0.0) <= fmax):
                raise ValueError(f"non-finite values in splat {name}, or values past the "
                                 "float32 range a store holds")
        derived = self.bounds is None
        if derived:
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
            if not derived and not np.all(self.bounds.contains(self.positions)):
                raise ValueError("scene bounds do not contain all positions")

    def __len__(self) -> int:
        return len(self.positions)


@dataclass(frozen=True, eq=False)
class Camera:
    """Pinhole camera with pixel-unit intrinsics and a rigid world-to-camera map.

    `rotation` maps world to camera coordinates (camera looks along +z), so a
    world point p lands at ``rotation`` times p plus ``translation``.  Width
    and height must be positive multiples of the 16-pixel tile edge, at most
    MAX_PIXELS in all; the near plane finite and positive, the rotation
    orthonormal (every entry of W W^T within CAMERA_ROTATION_TOL of the
    identity's), and the focal lengths, the principal point and each
    translation component within FOCAL_RANGE, PRINCIPAL_POINT_RANGE and
    TRANSLATION_RANGE.
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
        if self.width < TILE_EDGE or self.height < TILE_EDGE:
            raise ValueError(
                f"image size {self.width}x{self.height} is below one {TILE_EDGE}-pixel tile"
            )
        if self.width % TILE_EDGE or self.height % TILE_EDGE:
            raise ValueError(f"image size must be a multiple of {TILE_EDGE}")
        if self.width * self.height > MAX_PIXELS:
            raise ValueError(
                f"image size {self.width}x{self.height} exceeds the cap of {MAX_PIXELS} pixels"
            )
        if not (math.isfinite(self.near) and self.near > 0):
            raise ValueError(f"camera near must be finite and positive, got {self.near}")
        for name, (lo, hi) in (("fx", FOCAL_RANGE), ("fy", FOCAL_RANGE),
                               ("cx", PRINCIPAL_POINT_RANGE), ("cy", PRINCIPAL_POINT_RANGE),
                               ("translation", TRANSLATION_RANGE)):
            value = getattr(self, name)
            if not np.all((lo <= value) & (value <= hi)):
                positive = " and positive" if lo > 0 else ""
                raise ValueError(f"camera {name} must be finite{positive} and in [{lo:g}, {hi:g}], "
                                 f"got {value}")
        with np.errstate(over="ignore", invalid="ignore"):  # a huge or non-finite entry fails
            off = np.abs(self.rotation @ self.rotation.T - np.eye(3))
        if not np.all(off <= CAMERA_ROTATION_TOL):
            raise ValueError("world-to-camera rotation is not orthonormal")

    @property
    def position(self) -> np.ndarray:
        """Camera center in world coordinates."""
        return -self.rotation.T @ self.translation

    @property
    def tile_counts(self) -> tuple[int, int]:
        return self.width // TILE_EDGE, self.height // TILE_EDGE

    def to_camera(self, points: np.ndarray) -> np.ndarray:
        """Camera-space coordinates of (..., 3) world points.

        Element-wise products summed in one fixed order, not a matrix
        product: BLAS sums a one-row batch in another order than a larger
        one, and a row's bits must not depend on the rows beside it.
        """
        p = np.asarray(points, dtype=np.float64)
        rot = self.rotation
        return (p[..., :1] * rot[:, 0] + p[..., 1:2] * rot[:, 1] + p[..., 2:] * rot[:, 2]
                + self.translation)

    def ray_directions(self, px: np.ndarray, py: np.ndarray) -> np.ndarray:
        """World-space directions through pixel centers (not normalized),
        row-independent like ``to_camera``."""
        dx = (np.asarray(px, dtype=np.float64) + 0.5 - self.cx) / self.fx
        dy = (np.asarray(py, dtype=np.float64) + 0.5 - self.cy) / self.fy
        rot = self.rotation
        return dx[..., None] * rot[0] + dy[..., None] * rot[1] + rot[2]

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
    def from_json(cls, obj) -> "Camera":
        """The camera a parsed JSON object describes; any missing key, wrong
        type (a value that is not a JSON number, or lists of them for the
        rotation and translation) or invalid value raises ``CameraFormatError``."""
        if not isinstance(obj, dict):
            raise CameraFormatError(f"camera JSON must be an object, not {type(obj).__name__}")
        try:
            w2c = obj["world_to_camera"]
            values = dict(
                width=int(_json_numbers(obj["width"], "width", integral=True)),
                height=int(_json_numbers(obj["height"], "height", integral=True)),
                fx=float(_json_numbers(obj["fx"], "fx")),
                fy=float(_json_numbers(obj["fy"], "fy")),
                cx=float(_json_numbers(obj["cx"], "cx")),
                cy=float(_json_numbers(obj["cy"], "cy")),
                rotation=_json_numbers(w2c["rotation"], "rotation"),
                translation=_json_numbers(w2c["translation"], "translation"),
                near=float(_json_numbers(obj.get("near", 0.1), "near")),
            )
        except KeyError as exc:
            raise CameraFormatError(f"camera JSON is missing {exc.args[0]!r}") from None
        except (TypeError, ValueError, OverflowError) as exc:
            raise CameraFormatError(f"bad camera JSON value: {exc}") from None
        try:
            return cls(**values)
        except (ValueError, OverflowError) as exc:
            raise CameraFormatError(str(exc)) from None

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            json.dump(self.to_json(), f, indent=2)

    @classmethod
    def load(cls, path) -> "Camera":
        with open(path, "r", encoding="utf-8") as f:
            return cls.from_json(json.load(f))


def _json_numbers(value, name: str, integral: bool = False):
    """``value`` if it is a JSON number or nested lists of them, integral
    when asked; an entry of any other type, a bool or a string included,
    raises ``CameraFormatError``."""
    for entry in np.array(value, dtype=object).flat:
        if type(entry) not in (int, float):
            raise CameraFormatError(f"camera {name} must hold JSON numbers only, got {value!r}")
        if integral and not (type(entry) is int or entry.is_integer()):
            raise CameraFormatError(f"camera {name} must be an integer, got {value!r}")
    return value


def look_at_camera(
    eye,
    target,
    width: int = 256,
    height: int = 256,
    focal: float = 300.0,
    near: float = 0.1,
) -> Camera:
    """Camera at `eye` looking toward `target` (y-down, z-forward image
    frame), with world -y up."""
    eye = np.asarray(eye, dtype=np.float64)
    fwd = np.asarray(target, dtype=np.float64) - eye
    fwd = fwd / np.linalg.norm(fwd)
    right = np.cross([0.0, -1.0, 0.0], fwd)
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


def snapped_lattice(bounds: Aabb, edge: float) -> tuple[np.ndarray, np.ndarray]:
    """The voxel grid over ``bounds``: the origin snapped down to a multiple of
    ``edge``, so cells form one global lattice, and the float cell count per axis."""
    origin = np.floor(bounds.lo / edge) * edge
    # +1 so points exactly on the far bound stay in range under floor
    return origin, np.floor((bounds.hi - origin) / edge) + 1


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
    names: set[str] = set()
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
                if count < 0:
                    raise PlyParseError(f"negative vertex count in {line!r}")
            elif in_vertex:
                in_vertex = False  # vertex block done; later elements ignored
            elif count is None:
                raise PlyParseError(f"element {parts[1]!r} precedes vertex element")
        elif parts[0] == "property" and in_vertex:
            if parts[1:2] == ["list"]:
                raise PlyParseError(f"list property {parts[-1]!r} not supported")
            if len(parts) != 3:
                raise PlyParseError(f"malformed property line {line!r}")
            if parts[1] not in _PLY_TYPES:
                raise PlyParseError(f"unknown property type {parts[1]!r}")
            if parts[2] in names:
                raise PlyParseError(f"duplicate property {parts[2]!r}")
            names.add(parts[2])
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
        size = dtype.itemsize * count
        left = os.fstat(f.fileno()).st_size - f.tell()
        if size > left:
            raise PlyParseError(
                f"truncated vertex payload: {count} vertices need {size} bytes, {left} follow"
            )
        data = np.frombuffer(f.read(size), dtype=dtype, count=count)
    try:
        # overflowing or NaN values are rejected by Scene below
        with np.errstate(all="ignore"):
            return _scene_from_ply(data, count)
    except ValueError as exc:
        raise PlySchemaError(f"invalid splat values: {exc}") from None


def _scene_from_ply(data: np.ndarray, count: int) -> Scene:
    pos = np.stack([data["x"], data["y"], data["z"]], axis=1).astype(np.float64)
    scales = np.exp(np.stack([data[f"scale_{i}"] for i in range(3)], axis=1).astype(np.float64))
    rots = np.stack([data[f"rot_{i}"] for i in range(4)], axis=1).astype(np.float64)
    norms = np.linalg.norm(rots, axis=1)
    if np.any(norms == 0):
        raise PlySchemaError("zero-norm rotation quaternion")
    rots /= norms[:, None]
    opac = 1.0 / (1.0 + np.exp(-data["opacity"].astype(np.float64)))
    # one cast of the 48 colour columns: f_dc_0..2, then f_rest channel-major
    cols = structured_to_unstructured(data[_REQUIRED_PROPS[3:51]], dtype=np.float64)
    sh = np.empty((count, 16, 3), dtype=np.float64)
    sh[:, 0] = cols[:, :3]
    sh[:, 1:] = cols[:, 3:].reshape(count, 3, 15).transpose(0, 2, 1)
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
    header_props = _REQUIRED_PROPS[:3] + ["nx", "ny", "nz"] + _REQUIRED_PROPS[3:]
    op = np.clip(scene.opacities, 1e-9, 1.0 - 1e-9)
    # one column per header property; f_rest channel-major, 15 per channel, as
    # _scene_from_ply reads it, from views that cost no float64 copy of the SH
    block = np.concatenate([
        scene.positions, np.zeros((n, 3)), scene.sh[:, 0], *scene.sh[:, 1:].transpose(2, 0, 1),
        np.log(op / (1.0 - op))[:, None], np.log(scene.scales), scene.rotations,
    ], axis=1, dtype="<f4")
    header = ["ply", "format binary_little_endian 1.0", f"element vertex {n}",
              *(f"property float {nm}" for nm in header_props), "end_header", ""]
    with open(path, "wb") as f:
        f.write("\n".join(header).encode("ascii"))
        f.write(block.tobytes())


# --- procedural scenes -------------------------------------------------------


def _random_unit_quaternions(rng: np.random.Generator, n: int) -> np.ndarray:
    q = rng.normal(size=(n, 4))
    return q / np.linalg.norm(q, axis=1, keepdims=True)


# generate_scene's SH spreads, and its constrained regime's SH prototypes and
# jitter, face margin and cross-voxel separation (in units of max scale)
DC_SIGMA = 0.35
REST_SIGMA = 0.04
REST_PROTOTYPES = 48
REST_JITTER = 0.0015
MARGIN_SIGMAS = 6.0
MIN_SEPARATION_SIGMAS = 16.0
# Like MAX_PIXELS, bounds the generator's per-splat arrays whatever is asked.
MAX_SPLATS = 1 << 24


def generate_scene(
    count: int,
    bounds: Aabb,
    seed: int,
    max_extent_fraction: float = 1.0,
    *,
    voxel_edge: float = 2.0,
    constrained: bool = False,
    opacity_range: tuple[float, float] = (0.05, 0.98),
) -> Scene:
    """Deterministic synthetic desk-scale scene.

    ``max_extent_fraction`` caps every splat's 3-sigma extent at
    ``fraction * voxel_edge / 2``.  With ``constrained=True`` the placement
    additionally guarantees an unambiguous cross-voxel blending order for
    moderate-field-of-view cameras:

    * each center sits at least ``MARGIN_SIGMAS * max(scale)`` from every
      face of its voxel, so a splat's visible footprint never reaches rays
      that miss its voxel;
    * centers in *different* voxels are at least
      ``MIN_SEPARATION_SIGMAS * (s_a + s_b)`` apart, which rules out pairs
      whose screen footprints overlap while their depth order disagrees
      with the voxel traversal order;
    * higher-order SH vectors are drawn from a small per-scene prototype
      set plus jitter, mimicking the clustering of trained scenes.

    ``bounds`` must be finite and inside the float32 range a PLY stores.
    """
    if not 0 < count <= MAX_SPLATS:
        raise ValueError(f"count must be in [1, {MAX_SPLATS}], got {count}")
    if not 0.0 < max_extent_fraction <= 1.0:
        raise ValueError("max_extent_fraction must be in (0, 1]")
    if not (math.isfinite(voxel_edge) and voxel_edge > 0):
        raise ValueError(f"voxel_edge must be finite and positive, got {voxel_edge}")
    corners = np.concatenate([bounds.lo, bounds.hi])
    if not np.all(np.abs(corners) <= np.finfo(np.float32).max):
        raise ValueError(f"bounds must be finite float32 values, got {corners.tolist()}")

    rng = np.random.default_rng(seed)
    s_cap = max_extent_fraction * voxel_edge / 6.0  # 3*s_max <= fraction*edge/2
    s_max = rng.uniform((2.0 / 3.0 if constrained else 0.25) * s_cap, s_cap, size=count)
    # per-splat anisotropy: components in [0.5, 1] of the max scale
    scales = s_max[:, None] * rng.uniform(0.5, 1.0, size=(count, 3))
    axis_pick = rng.integers(0, 3, size=count)
    scales[np.arange(count), axis_pick] = s_max

    if constrained:
        positions = _place_constrained(rng, count, bounds, voxel_edge, s_max)
    else:
        positions = rng.uniform(bounds.lo, bounds.hi, size=(count, 3))

    rotations = _random_unit_quaternions(rng, count)
    opacities = rng.uniform(opacity_range[0], opacity_range[1], size=count)
    sh = np.zeros((count, 16, 3))
    sh[:, 0, :] = rng.normal(0.0, DC_SIGMA, size=(count, 3))
    if constrained:
        protos = rng.normal(0.0, REST_SIGMA, size=(REST_PROTOTYPES, 15, 3))
        pick = rng.integers(0, REST_PROTOTYPES, size=count)
        sh[:, 1:, :] = protos[pick] + rng.normal(0.0, REST_JITTER, size=(count, 15, 3))
    else:
        sh[:, 1:, :] = rng.normal(0.0, REST_SIGMA, size=(count, 15, 3))

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
) -> np.ndarray:
    # the voxel store's lattice, so margins survive a round trip
    origin, dims = snapped_lattice(bounds, edge)
    dims = np.maximum(1, dims.astype(int))
    # voxel occupancy hash for the cross-voxel separation test
    by_voxel: dict[tuple[int, int, int], list[int]] = {}
    positions = np.empty((count, 3))
    max_margin = MARGIN_SIGMAS * s_max.max()
    if 2.0 * max_margin >= edge:
        raise ValueError("voxel edge too small for the requested placement margin")

    for i in range(count):
        margin = MARGIN_SIGMAS * s_max[i]
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
                    sep = MIN_SEPARATION_SIGMAS * (s_max[i] + s_max[j])
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
