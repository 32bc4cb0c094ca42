"""Per-attribute codebooks: k-means training, index encoding, decoding, file I/O.

The quantized second half of a splat is split into four attribute vectors —
scale (3), rotation (4), DC color (3) and the 45 higher-order SH values —
each with its own codebook.  Opacity stays raw and uncompressed.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .errors import CodebookCorruptionError

ATTRIBUTES = ("scale", "rotation", "dc", "sh_rest")
ATTRIBUTE_DIMS = {"scale": 3, "rotation": 4, "dc": 3, "sh_rest": 45}
DEFAULT_ENTRIES = {"scale": 4096, "rotation": 4096, "dc": 4096, "sh_rest": 512}
INDEX_BITS = {"scale": 12, "rotation": 12, "dc": 12, "sh_rest": 9}

_MAGIC = b"GSVQ"
_VERSION = 1
_ATTR_TAGS = {name: i for i, name in enumerate(ATTRIBUTES)}


@dataclass
class Codebook:
    attribute: str
    entries: np.ndarray  # (entry_count, dim) float32
    mse: float = 0.0
    iterations: int = 0
    padded: bool = False

    def __post_init__(self):
        self.entries = np.ascontiguousarray(self.entries, dtype=np.float32)
        k = self.entry_count
        if k < 1 or (k & (k - 1)) != 0:
            raise ValueError(f"entry count {k} is not a power of two")
        if not np.all(np.isfinite(self.entries)):
            raise ValueError("codebook contains non-finite centroids")
        if self.attribute == "rotation":
            norms = np.linalg.norm(self.entries.astype(np.float64), axis=1, keepdims=True)
            norms[norms == 0.0] = 1.0
            if np.max(np.abs(norms - 1.0)) > 1e-6:  # keep re-construction idempotent
                self.entries = (self.entries.astype(np.float64) / norms).astype(np.float32)

    @property
    def entry_count(self) -> int:
        return self.entries.shape[0]

    @property
    def dim(self) -> int:
        return self.entries.shape[1]


@dataclass(frozen=True)
class EncodedGaussian:
    """Second-half record as stored off-chip: four indices plus raw opacity."""

    scale_idx: int
    rot_idx: int
    dc_idx: int
    sh_idx: int
    opacity: float

    def validate(self, books: dict[str, Codebook]) -> None:
        for name, idx in (
            ("scale", self.scale_idx),
            ("rotation", self.rot_idx),
            ("dc", self.dc_idx),
            ("sh_rest", self.sh_idx),
        ):
            if not 0 <= idx < books[name].entry_count:
                raise CodebookCorruptionError(
                    f"{name} index {idx} out of range for {books[name].entry_count} entries"
                )


def _squared_distances(vectors: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    # |x - c|^2 via the dot expansion; clip tiny negatives from rounding.
    d2 = (
        np.sum(vectors * vectors, axis=1)[:, None]
        - 2.0 * vectors @ centroids.T
        + np.sum(centroids * centroids, axis=1)[None, :]
    )
    return np.maximum(d2, 0.0)


def kmeans_pp_init(vectors: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """Standard D^2-weighted seeding; deterministic for a given generator state."""
    n = len(vectors)
    centroids = np.empty((k, vectors.shape[1]))
    centroids[0] = vectors[rng.integers(0, n)]
    best = np.sum((vectors - centroids[0]) ** 2, axis=1)
    for j in range(1, k):
        total = best.sum()
        if total <= 0.0:
            centroids[j:] = centroids[0]
            break
        pick = rng.choice(n, p=best / total)
        centroids[j] = vectors[pick]
        best = np.minimum(best, np.sum((vectors - centroids[j]) ** 2, axis=1))
    return centroids


def train_codebook(
    vectors: np.ndarray,
    k: int,
    *,
    seed: int = 0,
    max_iters: int = 50,
    tol: float = 1e-6,
    attribute: str = "generic",
) -> Codebook:
    """Lloyd's k-means with k-means++ init.

    Terminates at ``max_iters`` or when the relative decrease of the mean
    squared quantization error drops below ``tol``.  Empty clusters are
    re-seeded from the point currently farthest from its centroid, which
    leaves the objective non-increasing (checked every iteration).  If there
    are fewer distinct vectors than ``k``, the distinct set becomes the
    codebook and the remaining entries duplicate existing centroids
    (``padded=True``).
    """
    vectors = np.asarray(vectors, dtype=np.float64)
    if vectors.ndim != 2 or len(vectors) == 0:
        raise ValueError("vectors must be a non-empty (n, d) array")
    if k < 1:
        raise ValueError("entry count must be >= 1")

    distinct = np.unique(vectors, axis=0)
    if len(distinct) <= k:
        reps = -(-k // len(distinct))  # ceil
        entries = np.tile(distinct, (reps, 1))[:k]
        book = Codebook(attribute=attribute, entries=entries, padded=len(distinct) < k)
        d2 = _squared_distances(vectors, book.entries.astype(np.float64))
        book.mse = float(d2.min(axis=1).mean())
        return book

    if max_iters < 1:
        raise ValueError("max_iters must be >= 1")
    rng = np.random.default_rng(seed)
    centroids = kmeans_pp_init(vectors, k, rng)
    prev_mse = np.inf
    iterations = 0
    for _ in range(max_iters):
        d2 = _squared_distances(vectors, centroids)
        assign = np.argmin(d2, axis=1)  # ties resolve to the lowest index
        mse = float(d2[np.arange(len(vectors)), assign].mean())
        if not mse <= prev_mse + 1e-9:
            raise RuntimeError(f"k-means objective increased from {prev_mse} to {mse}")
        iterations += 1
        if np.isfinite(prev_mse) and prev_mse > 0 and (prev_mse - mse) / prev_mse < tol:
            prev_mse = mse
            break
        prev_mse = mse

        counts = np.bincount(assign, minlength=k)
        sums = np.zeros_like(centroids)
        np.add.at(sums, assign, vectors)
        nonempty = counts > 0
        centroids[nonempty] = sums[nonempty] / counts[nonempty, None]

        empties = np.flatnonzero(~nonempty)
        if len(empties):
            dist_to_own = d2[np.arange(len(vectors)), assign].copy()
            for j in empties:
                far = int(np.argmax(dist_to_own))
                centroids[j] = vectors[far]
                dist_to_own[far] = -1.0  # not reused for another empty cluster

    # report the error of the float32 entries actually returned
    book = Codebook(attribute=attribute, entries=centroids, iterations=iterations)
    d2 = _squared_distances(vectors, book.entries.astype(np.float64))
    book.mse = float(d2.min(axis=1).mean())
    return book


def nearest_indices(vectors: np.ndarray, book: Codebook) -> np.ndarray:
    """Index of the nearest centroid per vector (Euclidean, ties -> lowest)."""
    vectors = np.asarray(vectors, dtype=np.float64).reshape(-1, book.dim)
    d2 = _squared_distances(vectors, book.entries.astype(np.float64))
    return np.argmin(d2, axis=1).astype(np.int64)


def encode(g, books: dict[str, Codebook]) -> EncodedGaussian:
    """Map one splat's second half onto codebook indices."""
    for name in ATTRIBUTES:
        if books[name].dim != ATTRIBUTE_DIMS[name]:
            raise ValueError(f"codebook {name!r} has dim {books[name].dim}")
    return EncodedGaussian(
        scale_idx=int(nearest_indices(g.scale, books["scale"])[0]),
        rot_idx=int(nearest_indices(g.rotation, books["rotation"])[0]),
        dc_idx=int(nearest_indices(g.sh[0], books["dc"])[0]),
        sh_idx=int(nearest_indices(g.sh[1:].reshape(-1), books["sh_rest"])[0]),
        opacity=float(g.opacity),
    )


def decode(e: EncodedGaussian, books: dict[str, Codebook]):
    """Centroid values for one encoded splat: (scale, rotation, dc, sh_rest, opacity)."""
    e.validate(books)
    scale = books["scale"].entries[e.scale_idx].astype(np.float64)
    rot = books["rotation"].entries[e.rot_idx].astype(np.float64)
    rot = rot / np.linalg.norm(rot)
    dc = books["dc"].entries[e.dc_idx].astype(np.float64)
    rest = books["sh_rest"].entries[e.sh_idx].astype(np.float64).reshape(15, 3)
    return scale, rot, dc, rest, e.opacity


def save_codebooks(books: dict[str, Codebook], path) -> None:
    with open(path, "wb") as f:
        for name in ATTRIBUTES:
            book = books[name]
            f.write(_MAGIC)
            f.write(struct.pack("<HBHI", _VERSION, _ATTR_TAGS[name], book.dim, book.entry_count))
            f.write(book.entries.astype("<f4").tobytes())


def load_codebooks(path) -> dict[str, Codebook]:
    books: dict[str, Codebook] = {}
    tag_names = {v: k for k, v in _ATTR_TAGS.items()}
    with open(path, "rb") as f:
        while True:
            magic = f.read(4)
            if not magic:
                break
            if magic != _MAGIC:
                raise CodebookCorruptionError("bad codebook magic bytes")
            header = f.read(9)
            if len(header) != 9:
                raise CodebookCorruptionError("truncated codebook header")
            version, tag, dim, count = struct.unpack("<HBHI", header)
            if version != _VERSION:
                raise CodebookCorruptionError(f"unsupported codebook version {version}")
            if tag not in tag_names:
                raise CodebookCorruptionError(f"unknown attribute tag {tag}")
            raw = f.read(4 * dim * count)
            if len(raw) != 4 * dim * count:
                raise CodebookCorruptionError("truncated codebook payload")
            entries = np.frombuffer(raw, dtype="<f4").reshape(count, dim)
            name = tag_names[tag]
            if dim != ATTRIBUTE_DIMS[name]:
                raise CodebookCorruptionError(f"codebook {name!r} has dim {dim}")
            books[name] = Codebook(attribute=name, entries=entries)
    missing = [n for n in ATTRIBUTES if n not in books]
    if missing:
        raise CodebookCorruptionError(f"codebook file missing attributes {missing}")
    return books
