"""Per-attribute codebooks: k-means training, nearest-centroid indices, file I/O.

The quantized second half of a splat is split into four attribute vectors —
scale (3), rotation (4), DC color (3) and the 45 higher-order SH values —
each with its own codebook.  Opacity stays raw and uncompressed.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass

import numpy as np

from .errors import CodebookCorruptionError

ATTRIBUTES = ("scale", "rotation", "dc", "sh_rest")
ATTRIBUTE_DIMS = {"scale": 3, "rotation": 4, "dc": 3, "sh_rest": 45}
# an attribute's codebook holds at most 2**bits entries, the width of its index
INDEX_BITS = {"scale": 12, "rotation": 12, "dc": 12, "sh_rest": 9}
DEFAULT_ENTRIES = {name: 2**bits for name, bits in INDEX_BITS.items()}
KMEANS_TOL = 1e-6  # Lloyd stops once the relative drop in mean squared error is below this
# one chunk's float64 distances, 32 MB at 4096 entries, are the only large array
# alive in an assignment step: training 5,000 vectors peaks at 35 MB
NEAREST_CHUNK_ROWS = 1024

_MAGIC = b"GSVQ"
_VERSION = 1
_ATTR_TAGS = {name: i for i, name in enumerate(ATTRIBUTES)}
_SECTION = struct.Struct("<HBHI")  # after the magic: version, attribute tag, dim, entry count


@dataclass
class Codebook:
    attribute: str
    entries: np.ndarray  # (entry_count, dim) float32
    mse: float = 0.0
    iterations: int = 0
    padded: bool = False

    def __post_init__(self):
        self.entries = np.ascontiguousarray(self.entries, dtype=np.float32)
        check_entry_count(self.attribute, self.entry_count)
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


def _squared_distances(vectors: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    # |x - c|^2 via the dot expansion, computed in one (vectors, centroids)
    # buffer in the order |x|^2 - (2x . c) + |c|^2; clip tiny negatives from rounding.
    d2 = (2.0 * vectors) @ centroids.T
    np.subtract(np.sum(vectors * vectors, axis=1)[:, None], d2, out=d2)
    d2 += np.sum(centroids * centroids, axis=1)[None, :]
    return np.maximum(d2, 0.0, out=d2)


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
    attribute: str = "generic",
) -> Codebook:
    """Lloyd's k-means with k-means++ init.

    Terminates at ``max_iters`` or when the relative decrease of the mean
    squared quantization error drops below ``KMEANS_TOL``.  Empty clusters are
    re-seeded from the point currently farthest from its centroid, which
    leaves the objective non-increasing (checked every iteration).  ``k``
    must be a power of two, and a named attribute's may not exceed its index
    width (``INDEX_BITS``); both are checked before any work.  If there
    are fewer distinct vectors than ``k``, the distinct set becomes the
    codebook and the remaining entries duplicate existing centroids
    (``padded=True``).
    """
    check_entry_count(attribute, k)
    vectors = np.asarray(vectors, dtype=np.float64)
    if vectors.ndim != 2 or len(vectors) == 0:
        raise ValueError("vectors must be a non-empty (n, d) array")

    distinct = np.unique(vectors, axis=0)
    if len(distinct) <= k:
        reps = -(-k // len(distinct))  # ceil
        entries = np.tile(distinct, (reps, 1))[:k]
        book = Codebook(attribute=attribute, entries=entries, padded=len(distinct) < k)
        book.mse = float(_nearest(vectors, book.entries.astype(np.float64))[1].mean())
        return book

    if max_iters < 1:
        raise ValueError("max_iters must be >= 1")
    rng = np.random.default_rng(seed)
    centroids = kmeans_pp_init(vectors, k, rng)
    prev_mse = np.inf
    iterations = 0
    for _ in range(max_iters):
        assign, dist = _nearest(vectors, centroids)
        mse = float(dist.mean())
        if not mse <= prev_mse + 1e-9:
            raise RuntimeError(f"k-means objective increased from {prev_mse} to {mse}")
        iterations += 1
        if np.isfinite(prev_mse) and prev_mse > 0 and (prev_mse - mse) / prev_mse < KMEANS_TOL:
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
            for j in empties:
                far = int(np.argmax(dist))
                centroids[j] = vectors[far]
                dist[far] = -1.0  # not reused for another empty cluster

    # report the error of the float32 entries actually returned
    book = Codebook(attribute=attribute, entries=centroids, iterations=iterations)
    book.mse = float(_nearest(vectors, book.entries.astype(np.float64))[1].mean())
    return book


def check_entry_count(attribute: str, k: int) -> None:
    """A codebook's entry count: a power of two within the attribute's index width."""
    if k < 1 or (k & (k - 1)) != 0:
        raise ValueError(f"{attribute} codebook entry count {k} is not a power of two")
    bits = INDEX_BITS.get(attribute)
    if bits is not None and k > 2**bits:
        raise ValueError(f"{attribute} codebook of {k} entries exceeds its {bits}-bit index "
                         f"({2**bits} entries)")


def _nearest(vectors: np.ndarray, centroids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Index of the nearest centroid per vector (Euclidean, ties -> lowest)
    and the squared distance to it.

    Vectors go through in near-equal chunks of at most ``NEAREST_CHUNK_ROWS``
    rows, so only one (chunk, entries) distance matrix is alive at a time
    rather than one with a row per vector.
    """
    index, dist = [], []
    for chunk in np.array_split(vectors, max(1, -(-len(vectors) // NEAREST_CHUNK_ROWS))):
        d2 = _squared_distances(chunk, centroids)
        nearest = np.argmin(d2, axis=1)
        index.append(nearest)
        dist.append(d2[np.arange(len(chunk)), nearest])
        del d2  # free this chunk's matrix before the next one is built
    return np.concatenate(index), np.concatenate(dist)


def nearest_indices(vectors: np.ndarray, book: Codebook) -> np.ndarray:
    """Index of the nearest centroid per vector (Euclidean, ties -> lowest)."""
    vectors = np.asarray(vectors, dtype=np.float64).reshape(-1, book.dim)
    return _nearest(vectors, book.entries.astype(np.float64))[0]


def save_codebooks(books: dict[str, Codebook], path) -> None:
    with open(path, "wb") as f:
        for name in ATTRIBUTES:
            book = books[name]
            f.write(_MAGIC)
            f.write(_SECTION.pack(_VERSION, _ATTR_TAGS[name], book.dim, book.entry_count))
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
            header = f.read(_SECTION.size)
            if len(header) != _SECTION.size:
                raise CodebookCorruptionError("truncated codebook header")
            version, tag, dim, count = _SECTION.unpack(header)
            if version != _VERSION:
                raise CodebookCorruptionError(f"unsupported codebook version {version}")
            if tag not in tag_names:
                raise CodebookCorruptionError(f"unknown attribute tag {tag}")
            name = tag_names[tag]
            if name in books:
                raise CodebookCorruptionError(f"codebook {name!r} appears twice")
            if dim != ATTRIBUTE_DIMS[name]:
                raise CodebookCorruptionError(f"codebook {name!r} has dim {dim}")
            # compare with the bytes left first, so a header's count never allocates
            if 4 * dim * count > os.fstat(f.fileno()).st_size - f.tell():
                raise CodebookCorruptionError("truncated codebook payload")
            entries = np.frombuffer(f.read(4 * dim * count), dtype="<f4").reshape(count, dim)
            try:
                books[name] = Codebook(attribute=name, entries=entries)
            except ValueError as exc:
                raise CodebookCorruptionError(f"codebook {name!r}: {exc}") from None
    missing = [n for n in ATTRIBUTES if n not in books]
    if missing:
        raise CodebookCorruptionError(f"codebook file missing attributes {missing}")
    return books
