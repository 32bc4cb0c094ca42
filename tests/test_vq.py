import struct
import tracemalloc
from unittest import mock

import numpy as np
import pytest

from voxsplat import Scene, TrafficLedger, VoxelStore, vq
from voxsplat.errors import CodebookCorruptionError
from voxsplat.voxelstore import stream_fine
from voxsplat.vq import (
    ATTRIBUTE_DIMS,
    Codebook,
    DEFAULT_ENTRIES,
    INDEX_BITS,
    NEAREST_CHUNK_ROWS,
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


def _encoded_splat(books, scale, rotation, sh, opacity):
    """The encoded records of a one-splat store."""
    scene = Scene(positions=[[0.0, 0.0, 0.0]], scales=[scale], rotations=[rotation],
                  opacities=[opacity], sh=[sh], ids=[0])
    return VoxelStore.build(scene, 1.0).encode(books).records


def _indices(records):
    return tuple(int(getattr(records, f)[0]) for f in ("scale_idx", "rot_idx", "dc_idx", "sh_idx"))


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
    e = _encoded_splat(books, books["scale"].entries[11], books["rotation"].entries[5], sh, 0.7)
    assert _indices(e) == (11, 5, 7, 3)
    assert e.opacities[0] == 0.7


def test_equidistant_tie_takes_lower_index():
    # vector at the origin, centroids with bit-identical squared norms
    book = Codebook(attribute="dc", entries=np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]))
    assert nearest_indices(np.zeros((1, 3)), book)[0] == 0


def test_nearest_indices_do_not_depend_on_the_chunking():
    rng = np.random.default_rng(12)
    book = train_codebook(rng.normal(size=(600, 45)), 64, seed=0, attribute="sh_rest")
    vectors = rng.normal(size=(2 * NEAREST_CHUNK_ROWS + 5, 45))
    pieces = [nearest_indices(vectors[i : i + 7], book) for i in range(0, len(vectors), 7)]
    assert nearest_indices(vectors, book).tolist() == np.concatenate(pieces).tolist()
    assert nearest_indices(vectors[:0], book).tolist() == []


def _far_init(vectors, k, rng):
    """Every centroid but the first far from the data, so the first step
    leaves k - 1 clusters empty and reseeds them."""
    far = 1e3 * np.arange(1, k)[:, None] * np.ones(vectors.shape[1])
    return np.concatenate([vectors[:1], far])


@pytest.mark.parametrize("dim", [3, 4, 45])
@pytest.mark.parametrize("init", [kmeans_pp_init, _far_init])
def test_training_does_not_depend_on_the_chunking(dim, init):
    # 512 entries, as the real books have at least: with 16 entries and 45
    # dims, OpenBLAS sums a 7-row product in another order than the whole
    # matrix's, and a distance can differ in its last bit
    vectors = np.random.default_rng(dim).normal(size=(1200, dim))
    padded = np.repeat(vectors[:5], 120, axis=0)
    runs = []
    for rows in (NEAREST_CHUNK_ROWS, 7):
        with mock.patch.object(vq, "NEAREST_CHUNK_ROWS", rows), \
                mock.patch.object(vq, "kmeans_pp_init", init):
            runs.append([train_codebook(v, 512, seed=0) for v in (vectors, padded)])
    for want, got in zip(*runs):
        assert got.entries.tobytes() == want.entries.tobytes()
        assert (got.mse, got.iterations, got.padded) == (want.mse, want.iterations, want.padded)


def test_training_holds_no_distance_matrix_with_a_row_per_vector():
    vectors = np.random.default_rng(5).normal(size=(2000, 3))
    with mock.patch.object(vq, "NEAREST_CHUNK_ROWS", 64):
        tracemalloc.start()
        try:
            train_codebook(vectors, 512, seed=0, max_iters=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak < 2000 * 512 * 8  # one float64 (vectors, entries) matrix


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
    e = _encoded_splat(books, [1.0, 1.0, 1.0], [1.0, 0.0, 0.0, 0.0], np.zeros((16, 3)), 0.25)
    e.scale_idx[0], e.rot_idx[0], e.dc_idx[0], e.sh_idx[0] = 2, 3, 4, 5
    _, scale, rot, op, sh, _ = stream_fine(e, 0, [0], books, TrafficLedger(), decode=True)
    assert np.allclose(scale[0], books["scale"].entries[2])
    assert np.allclose(sh[0, 0], books["dc"].entries[4])
    assert op[0] == 0.25
    e2 = _encoded_splat(books, scale[0], rot[0], sh[0], op[0])
    assert _indices(e2) == (2, 3, 4, 5)


def test_out_of_range_index_is_corruption_error():
    rng = np.random.default_rng(8)
    books = _books_from(rng)
    bad = _encoded_splat(books, [1.0, 1.0, 1.0], [1.0, 0.0, 0.0, 0.0], np.zeros((16, 3)), 0.5)
    bad.scale_idx[0], bad.rot_idx[0], bad.dc_idx[0], bad.sh_idx[0] = 16, 0, 0, 0
    with pytest.raises(CodebookCorruptionError, match="16"):
        stream_fine(bad, 0, [0], books, TrafficLedger(), decode=True)


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


def test_codebook_header_with_a_huge_count_is_a_corruption_error(tmp_path):
    """4 * 45 * (2^32 - 1) bytes would be read; the loader checks the file first."""
    path = tmp_path / "huge.gsvq"
    path.write_bytes(b"GSVQ" + struct.pack("<HBHI", 1, 3, 45, 2**32 - 1) + b"\x00" * 180)
    with pytest.raises(CodebookCorruptionError, match="truncated codebook payload"):
        load_codebooks(path)
