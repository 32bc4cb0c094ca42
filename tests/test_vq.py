import numpy as np
import pytest

from voxsplat.errors import CodebookCorruptionError
from voxsplat.vq import (
    ATTRIBUTE_DIMS,
    Codebook,
    DEFAULT_ENTRIES,
    EncodedGaussian,
    INDEX_BITS,
    decode,
    encode,
    kmeans_pp_init,
    load_codebooks,
    nearest_indices,
    save_codebooks,
    train_codebook,
)


def _brute_lloyd(vectors, centroids, iters=200, tol=1e-6):
    """Straightforward reference Lloyd loop (own code path, loops not matmuls)."""
    centroids = centroids.copy()
    prev = np.inf
    for _ in range(iters):
        d2 = np.array([[np.sum((v - c) ** 2) for c in centroids] for v in vectors])
        assign = d2.argmin(axis=1)
        mse = d2[np.arange(len(vectors)), assign].mean()
        if np.isfinite(prev) and prev > 0 and (prev - mse) / prev < tol:
            prev = mse
            break
        prev = mse
        for j in range(len(centroids)):
            members = vectors[assign == j]
            if len(members):
                centroids[j] = members.mean(axis=0)
        own = d2[np.arange(len(vectors)), assign].copy()
        for j in np.flatnonzero(np.bincount(assign, minlength=len(centroids)) == 0):
            far = int(np.argmax(own))
            centroids[j] = vectors[far]
            own[far] = -1.0
    return centroids, prev


def test_single_cluster_is_componentwise_mean():
    rng = np.random.default_rng(0)
    vectors = rng.normal(size=(100, 3))
    book = train_codebook(vectors, 1, seed=0)
    assert np.allclose(book.entries[0], vectors.mean(axis=0), atol=1e-6)


def test_k_distinct_points_reach_zero_error():
    vectors = np.arange(24, dtype=np.float64).reshape(8, 3)
    book = train_codebook(vectors, 8, seed=0)
    assert book.mse == 0.0
    assert not book.padded
    assert sorted(map(tuple, book.entries.tolist())) == sorted(map(tuple, vectors.tolist()))


def test_matches_independent_lloyd_with_identical_init():
    rng = np.random.default_rng(1)
    vectors = rng.normal(size=(1000, 3))
    init = kmeans_pp_init(vectors, 16, np.random.default_rng(1))
    _, want_mse = _brute_lloyd(vectors, init)
    book = train_codebook(vectors, 16, seed=1)
    assert book.mse == pytest.approx(want_mse, rel=1e-5)


def test_objective_non_increasing_and_converges():
    rng = np.random.default_rng(2)
    vectors = rng.normal(size=(500, 4))
    book = train_codebook(vectors, 8, seed=2, max_iters=100)
    assert book.iterations <= 100  # the per-iteration assert inside did not fire


def test_fewer_distinct_vectors_than_entries_pads_and_flags():
    vectors = np.tile(np.arange(6, dtype=np.float64).reshape(2, 3), (5, 1))
    book = train_codebook(vectors, 8, seed=0)
    assert book.padded
    assert book.entry_count == 8
    assert book.mse == 0.0


def test_entry_count_must_be_power_of_two():
    with pytest.raises(ValueError, match="power of two"):
        Codebook(attribute="scale", entries=np.zeros((3, 3)))


def test_rotation_centroids_renormalized():
    vectors = np.random.default_rng(3).normal(size=(50, 4)) * 2.0
    book = train_codebook(vectors, 4, seed=3, attribute="rotation")
    norms = np.linalg.norm(book.entries.astype(np.float64), axis=1)
    assert np.allclose(norms, 1.0, atol=1e-6)


class _Splat:
    def __init__(self, scale, rotation, sh, opacity):
        self.scale = np.asarray(scale, dtype=np.float64)
        self.rotation = np.asarray(rotation, dtype=np.float64)
        self.sh = np.asarray(sh, dtype=np.float64)
        self.opacity = opacity


def _books_from(rng, n=64):
    data = {
        "scale": np.abs(rng.normal(size=(n, 3))) + 0.1,
        "rotation": rng.normal(size=(n, 4)),
        "dc": rng.normal(size=(n, 3)),
        "sh_rest": rng.normal(size=(n, 45)) * 0.1,
    }
    return {k: train_codebook(v, 16, seed=5, attribute=k) for k, v in data.items()}


def test_encode_exact_centroid_hits_its_index():
    rng = np.random.default_rng(4)
    books = _books_from(rng)
    sh = np.zeros((16, 3))
    sh[0] = books["dc"].entries[7]
    sh[1:] = books["sh_rest"].entries[3].reshape(15, 3)
    g = _Splat(books["scale"].entries[11], books["rotation"].entries[5], sh, 0.7)
    e = encode(g, books)
    assert (e.scale_idx, e.rot_idx, e.dc_idx, e.sh_idx) == (11, 5, 7, 3)
    assert e.opacity == 0.7


def test_equidistant_tie_takes_lower_index():
    # vector at the origin, centroids with bit-identical squared norms
    book = Codebook(attribute="dc", entries=np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]))
    assert nearest_indices(np.zeros((1, 3)), book)[0] == 0


def test_decode_encode_round_trip_error_is_nearest_distance():
    rng = np.random.default_rng(6)
    books = _books_from(rng)
    for _ in range(20):
        vec = rng.normal(size=3)
        idx = int(nearest_indices(vec, books["dc"])[0])
        brute = np.argmin([np.sum((vec - c) ** 2) for c in books["dc"].entries.astype(np.float64)])
        assert idx == brute


def test_decode_is_identity_on_centroid_valued_splat():
    rng = np.random.default_rng(7)
    books = _books_from(rng)
    e = EncodedGaussian(scale_idx=2, rot_idx=3, dc_idx=4, sh_idx=5, opacity=0.25)
    scale, rot, dc, rest, op = decode(e, books)
    assert np.allclose(scale, books["scale"].entries[2])
    assert np.allclose(dc, books["dc"].entries[4])
    assert op == 0.25
    e2 = encode(_Splat(scale, rot, np.concatenate([dc[None], rest]), op), books)
    assert (e2.scale_idx, e2.rot_idx, e2.dc_idx, e2.sh_idx) == (2, 3, 4, 5)


def test_out_of_range_index_is_corruption_error():
    rng = np.random.default_rng(8)
    books = _books_from(rng)
    bad = EncodedGaussian(scale_idx=16, rot_idx=0, dc_idx=0, sh_idx=0, opacity=0.5)
    with pytest.raises(CodebookCorruptionError, match="16"):
        decode(bad, books)


def test_reported_mse_matches_recomputation_from_entries():
    rng = np.random.default_rng(9)
    vectors = rng.normal(size=(400, 45))
    book = train_codebook(vectors, 32, seed=9)
    d2 = ((vectors[:, None, :] - book.entries.astype(np.float64)[None]) ** 2).sum(axis=2)
    assert book.mse == pytest.approx(d2.min(axis=1).mean(), rel=1e-9)


def test_default_entry_counts_fit_declared_index_bits():
    for name, k in DEFAULT_ENTRIES.items():
        assert k <= 2 ** INDEX_BITS[name]


def test_codebook_file_round_trip(tmp_path):
    rng = np.random.default_rng(10)
    books = {
        name: train_codebook(rng.normal(size=(100, dim)), 16, seed=1, attribute=name)
        for name, dim in ATTRIBUTE_DIMS.items()
    }
    path = tmp_path / "books.gsvq"
    save_codebooks(books, path)
    back = load_codebooks(path)
    for name in books:
        assert np.array_equal(back[name].entries, books[name].entries)


def test_codebook_file_rejects_garbage(tmp_path):
    path = tmp_path / "bad.gsvq"
    path.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(CodebookCorruptionError):
        load_codebooks(path)


def test_truncated_codebook_files_are_corruption_errors(tmp_path):
    rng = np.random.default_rng(11)
    books = {
        name: train_codebook(rng.normal(size=(40, dim)), 4, seed=1, attribute=name)
        for name, dim in ATTRIBUTE_DIMS.items()
    }
    path = tmp_path / "books.gsvq"
    save_codebooks(books, path)
    data = path.read_bytes()
    cut = tmp_path / "cut.gsvq"
    for size in range(len(data)):
        cut.write_bytes(data[:size])
        with pytest.raises(CodebookCorruptionError):
            load_codebooks(cut)
