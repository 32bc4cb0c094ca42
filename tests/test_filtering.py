import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from voxsplat import Camera, Scene, look_at_camera
from voxsplat.filtering import (
    COARSE_MACS,
    COARSE_SAFETY,
    FINE_MACS,
    RADIUS_SIGMAS,
    FilterStats,
    coarse_filter,
    coarse_screen_radius,
    disc_overlaps_rect,
    project_means,
    project_splats,
    projected_covariance,
    quat_to_rotmat,
    tile_rects,
)
from voxsplat.scene import CAMERA_ROTATION_TOL, QUAT_NORM_TOL
from voxsplat.sh import evaluate_sh

from conftest import filter_voxel
from oracles import add_counters


def _camera():
    return look_at_camera([0, 0, -8], [0, 0, 0], focal=300.0)


def _random_inputs(rng, n):
    pos = rng.uniform([-4, -4, -3], [4, 4, 3], size=(n, 3))
    scales = rng.uniform(0.005, 0.4, size=(n, 3))
    q = rng.normal(size=(n, 4))
    q /= np.linalg.norm(q, axis=1, keepdims=True)
    opac = rng.uniform(0.05, 0.99, size=n)
    sh = rng.normal(0, 0.2, size=(n, 16, 3))
    ids = np.arange(n)
    return pos, scales, q, opac, sh, ids


# --- independent projection oracle (explicit matrices, scalar loop) ----------

def _quat_matrix_scalar(q):
    w, x, y, z = q
    return np.array(
        [
            [1 - 2 * y * y - 2 * z * z, 2 * x * y - 2 * w * z, 2 * x * z + 2 * w * y],
            [2 * x * y + 2 * w * z, 1 - 2 * x * x - 2 * z * z, 2 * y * z - 2 * w * x],
            [2 * x * z - 2 * w * y, 2 * y * z + 2 * w * x, 1 - 2 * x * x - 2 * y * y],
        ]
    )


def _oracle_project_one(camera, p, scale, q):
    t = camera.rotation @ p + camera.translation
    sigma = _quat_matrix_scalar(q) @ np.diag(scale**2) @ _quat_matrix_scalar(q).T
    jac = np.array(
        [
            [camera.fx / t[2], 0, -camera.fx * t[0] / t[2] ** 2],
            [0, camera.fy / t[2], -camera.fy * t[1] / t[2] ** 2],
        ]
    )
    cov2 = jac @ camera.rotation @ sigma @ camera.rotation.T @ jac.T
    cov2 = cov2 + np.diag([0.3, 0.3])
    det = np.linalg.det(cov2)
    conic = np.linalg.inv(cov2)
    lam = np.linalg.eigvalsh(cov2).max()
    radius = 3.0 * np.sqrt(lam)
    mean2d = np.array(
        [camera.fx * t[0] / t[2] + camera.cx, camera.fy * t[1] / t[2] + camera.cy]
    )
    return mean2d, (conic[0, 0], conic[0, 1], conic[1, 1]), radius, det


def test_projection_matches_independent_implementation():
    rng = np.random.default_rng(21)
    camera = _camera()
    pos, scales, q, opac, sh, ids = _random_inputs(rng, 200)
    valid, batch, _ = project_splats(camera, pos, scales, q, opac, sh, ids)
    for i in np.flatnonzero(valid):
        mean2d, conic, radius, det = _oracle_project_one(camera, pos[i], scales[i], q[i])
        assert np.allclose(batch.mean2d[i], mean2d, rtol=1e-9)
        assert np.allclose(batch.conic[i], conic, rtol=1e-4, atol=1e-9)
        assert radius == pytest.approx(batch.radius[i], rel=1e-4)


def test_isotropic_splat_has_symmetric_conic():
    camera = _camera()
    pos = np.array([[0.0, 0.0, 0.0]])  # projects to the image center
    scales = np.full((1, 3), 0.2)
    q = np.array([[1.0, 0, 0, 0]])
    valid, batch, _ = project_splats(
        camera, pos, scales, q, np.array([0.5]), np.zeros((1, 16, 3)), np.array([0])
    )
    assert valid[0]
    a, b, c = batch.conic[0]
    assert a == pytest.approx(c, abs=1e-5)
    assert b == pytest.approx(0.0, abs=1e-5)


def test_behind_camera_rejected_by_coarse():
    camera = _camera()
    pos = np.array([[0.0, 0.0, -20.0]])
    mask = coarse_filter(camera, pos, np.array([1.0]), tile_rects([(8, 8)]))
    stats = FilterStats.counted(len(pos), int(mask.sum()), 0, 0)
    assert not mask[0]
    assert stats.loaded == 1 and stats.coarse_survivors == 0


def test_center_of_tile_passes_coarse():
    camera = _camera()
    mask = coarse_filter(camera, np.array([[0.0, 0.0, 0.0]]), np.array([0.01]),
                         tile_rects([(8, 8)]))
    assert mask[0]


def test_mac_charges_are_55_and_427():
    camera = _camera()
    pos = np.array([[0.0, 0.0, 0.0]])
    mask, batch, stats = filter_voxel(
        camera, tile_rects([(8, 8)]),
        (pos, np.full((1, 3), 0.1), np.array([[1.0, 0, 0, 0]]), np.array([0.5]),
         np.zeros((1, 16, 3)), np.array([0])),
    )
    assert mask[0] and len(batch.ids) == 1
    assert stats.macs_coarse == 55 == COARSE_MACS
    assert stats.macs_coarse + stats.macs_fine == 427
    assert FINE_MACS == 427 - 55


def test_conservativeness_fine_pass_implies_coarse_pass():
    # randomized splats/cameras/tiles; zero fine passes may be coarse rejects
    rng = np.random.default_rng(22)
    total = 0
    for trial in range(20):
        eye = rng.uniform([-2, -2, -12], [2, 2, -6])
        camera = look_at_camera(eye, rng.uniform(-1, 1, size=3), focal=rng.uniform(150, 500))
        n = 5000
        pos, scales, q, opac, sh, ids = _random_inputs(rng, n)
        scales *= rng.uniform(0.05, 2.0)  # include near-zero and large splats
        tile = (int(rng.integers(0, 16)), int(rng.integers(0, 16)))
        rect = tile_rects([tile])
        cmask, fine, _ = filter_voxel(camera, rect, (pos, scales, q, opac, sh, ids),
                                      survivors=np.arange(n))
        fine_ids = set(fine.ids.tolist())
        coarse_ids = set(np.asarray(ids)[cmask].tolist())
        assert fine_ids <= coarse_ids
        total += n
    assert total >= 100000


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    focal=st.floats(8.0, 80.0),
    near=st.floats(0.05, 2.0),
    tile=st.tuples(st.integers(0, 15), st.integers(0, 15)),
)
def test_coarse_keeps_every_fine_survivor_under_wide_fov_near_plane_cameras(
    seed, focal, near, tile
):
    """Wide fields of view and splats whose centers sit from 0.3 in front of
    to 0.6 behind the near plane: the coarse radius must still bound the fine
    one wherever the fine test keeps a splat."""
    rng = np.random.default_rng(seed)
    direction = rng.normal(size=3)
    eye = direction / np.linalg.norm(direction) * rng.uniform(2.0, 10.0)
    camera = look_at_camera(eye, rng.uniform(-1.0, 1.0, 3), focal=focal, near=near)
    n = 2000
    pos, scales, q, opac, sh, ids = _random_inputs(rng, n)
    # camera-space centers across the frame's view and around the near plane
    z = near + rng.uniform(-0.3, 0.6, n)
    xy = (rng.uniform(0.0, 256.0, (n, 2)) - 128.0) / focal * np.abs(z)[:, None]
    cam = np.column_stack([xy, z])
    pos = (cam - camera.translation) @ camera.rotation  # rotation^T (cam - t)
    scales *= rng.uniform(0.05, 2.0)
    cmask, fine, _ = filter_voxel(camera, tile_rects([tile]), (pos, scales, q, opac, sh, ids),
                                  survivors=np.arange(n))
    assert set(fine.ids.tolist()) <= set(np.flatnonzero(cmask).tolist())


def _skewed_camera(rng, fx, aspect, offset, near):
    """A 256x256 camera with fy = aspect * fx, its principal point ``offset``
    pixels off centre and a random orientation: ``look_at_camera`` makes
    neither unequal focal lengths nor an off-centre principal point."""
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    return Camera(256, 256, fx, aspect * fx, 128.0 + offset[0], 128.0 + offset[1],
                  rotation=q * np.sign(np.diag(r)), translation=rng.uniform(-5.0, 5.0, 3),
                  near=near)


def _splats_around(rng, camera, scales):
    """``project_splats``' inputs for splats of ``scales`` whose camera-space
    centres run from 0.3 in front of the near plane to 50 deep, |x| and |y|
    up to 5 z."""
    n = len(scales)
    z = camera.near - 0.3 + 10.0 ** rng.uniform(-3.0, np.log10(50.0), n)
    cam = np.column_stack([rng.uniform(-5.0, 5.0, (n, 2)) * z[:, None], z])
    pos = (cam - camera.translation) @ camera.rotation  # rotation^T (cam - t)
    q = rng.normal(size=(n, 4))
    q /= np.linalg.norm(q, axis=1, keepdims=True)
    return pos, scales, q, np.full(n, 0.5), rng.normal(0, 0.2, (n, 16, 3)), np.arange(n)


_skewed_cameras = dict(
    seed=st.integers(0, 2**32 - 1),
    fx=st.floats(20.0, 2000.0),
    aspect=st.floats(1.0 / 16.0, 16.0),
    offset=st.tuples(st.floats(-300.0, 300.0), st.floats(-300.0, 300.0)),
    near=st.floats(0.05, 2.0),
)


@settings(max_examples=40, deadline=None)
@given(tile=st.tuples(st.integers(0, 15), st.integers(0, 15)), **_skewed_cameras)
def test_coarse_radius_bounds_the_fine_one_under_skewed_off_centre_cameras(
    seed, fx, aspect, offset, near, tile
):
    """fx and fy apart by up to 16x, the principal point off centre and
    scales from 1e-4 to 5: the coarse radius bounds the fine one splat by
    splat wherever the projection is valid, and no fine survivor of a tile
    fails its coarse test."""
    rng = np.random.default_rng(seed)
    camera = _skewed_camera(rng, fx, aspect, offset, near)
    n = 2000
    splats = _splats_around(rng, camera, 10.0 ** rng.uniform(-4.0, np.log10(5.0), (n, 3)))
    valid, batch, _ = project_splats(camera, *splats)
    assert valid.any()
    cam, _, _ = project_means(camera, splats[0])
    coarse = coarse_screen_radius(camera, cam, splats[1].max(axis=1))
    assert np.all(coarse[valid] >= batch.radius[valid])
    cmask, fine, _ = filter_voxel(camera, tile_rects([tile]), splats, survivors=np.arange(n))
    assert set(fine.ids.tolist()) <= set(np.flatnonzero(cmask).tolist())


def _isotropic_radii(seed, fx, aspect, offset, near):
    """Splats with three equal scales under a skewed camera, where valid: the
    coarse radius, ``project_splats``' fine radius, and the fine radius from
    ``eigvalsh`` of the fine phase's own covariance."""
    rng = np.random.default_rng(seed)
    camera = _skewed_camera(rng, fx, aspect, offset, near)
    n = 2000
    scales = np.repeat(10.0 ** rng.uniform(-4.0, np.log10(5.0), (n, 1)), 3, axis=1)
    splats = _splats_around(rng, camera, scales)
    valid, batch, _ = project_splats(camera, *splats)
    cam, _, _ = project_means(camera, splats[0])
    cov = projected_covariance(camera, cam, scales, splats[2])[valid]
    exact = RADIUS_SIGMAS * np.sqrt(np.linalg.eigvalsh(
        np.stack([cov[:, :2], cov[:, 1:]], axis=1))[:, 1])
    return coarse_screen_radius(camera, cam, scales[:, 0])[valid], batch.radius[valid], exact


@settings(max_examples=20, deadline=None)
@given(**_skewed_cameras)
def test_coarse_radius_is_the_fine_one_times_the_safety_factor_for_isotropic_splats(
    seed, fx, aspect, offset, near
):
    """With three equal scales B B^T = s^2 J J^T, so the coarse radius is the
    exact fine radius times COARSE_SAFETY: a looser bound fails here."""
    coarse, fine, exact = _isotropic_radii(seed, fx, aspect, offset, near)
    np.testing.assert_allclose(coarse / exact, COARSE_SAFETY, rtol=1e-12)
    np.testing.assert_allclose(coarse / fine, COARSE_SAFETY, rtol=1e-12)


@settings(max_examples=20, deadline=None)
@given(**_skewed_cameras)
def test_fine_radius_of_isotropic_splats_is_the_eigvalsh_one(seed, fx, aspect, offset, near):
    """An isotropic splat's two eigenvalues nearly coincide near the optical
    axis, where mid + sqrt(mid^2 - det) cancels half their digits; the hypot
    form ``project_splats`` takes matches ``eigvalsh`` to 1e-14."""
    _, fine, exact = _isotropic_radii(seed, fx, aspect, offset, near)
    np.testing.assert_allclose(fine, exact, rtol=1e-14)


def test_coarse_radius_bounds_the_fine_one_at_both_tolerance_edges():
    """W = sqrt(1 + 0.99 tol) I and q = (0, 1, 0, 0)(1 + 0.99 tol_q) are
    accepted, and they stretch an isotropic splat on the optical axis by
    |W|_2 |R(q)|_2 = 1 + 8.9e-6 at the tolerances in ``scene``: the coarse
    radius must still cover the fine one, and a rectangle the fine disc just
    reaches must pass the coarse test.  A margin of 1 + 1e-9 fails here, and
    so does a tolerance loosened without COARSE_SAFETY following it; the
    margin is that stretch at the tolerances' edges, plus rounding only."""
    stretch_bound = np.sqrt(1 + 3 * CAMERA_ROTATION_TOL) * (2 * (1 + QUAT_NORM_TOL) ** 2 - 1)
    assert stretch_bound < COARSE_SAFETY < stretch_bound * (1 + 1e-13)
    stretch = np.sqrt(1 + 0.99 * CAMERA_ROTATION_TOL)
    camera = Camera(256, 256, 500.0, 500.0, 128.0, 128.0, rotation=stretch * np.eye(3),
                    translation=[0.0, 0.0, 5.0])
    q = np.array([[0.0, 1.0 + 0.99 * QUAT_NORM_TOL, 0.0, 0.0]])
    splats = (np.zeros((1, 3)), np.ones((1, 3)), q, np.full(1, 0.5), np.zeros((1, 16, 3)),
              np.arange(1))
    Scene(*splats)  # accepted
    valid, batch, _ = project_splats(camera, *splats)
    cam, _, _ = project_means(camera, splats[0])
    coarse = coarse_screen_radius(camera, cam, np.ones(1))
    assert valid[0] and coarse[0] / COARSE_SAFETY * (1 + 8.8e-6) < batch.radius[0] <= coarse[0]
    # a rectangle right of the centre that the fine disc reaches by 1e-7 of its radius
    x0 = 128.0 + batch.radius[0] * (1 - 1e-7)
    cmask, fine, _ = filter_voxel(camera, (x0, 0.0, x0 + 16.0, 256.0), splats,
                                  survivors=np.arange(1))
    assert fine.ids.tolist() == [0] and cmask.tolist() == [True]


def _stretched_rotation(rng, shape, tol):
    """sqrt(I + E) times a random rotation Q, E symmetric with every entry
    within ``tol``: W W^T = I + E.  ``shape`` picks E: tol I (every direction
    stretched), tol on every entry (Gershgorin's bound 1 + 3 tol attained),
    or random."""
    if shape == "scalar":
        e = tol * np.eye(3)
    elif shape == "ones":
        e = np.full((3, 3), tol)
    else:
        e = rng.uniform(-tol, tol, (3, 3))
        e = (e + e.T) / 2
    lam, v = np.linalg.eigh(np.eye(3) + e)
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    return (v * np.sqrt(lam)) @ v.T @ (q * np.sign(np.diag(r)))


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    shape=st.sampled_from(["scalar", "ones", "random"]),
    q_edge=st.floats(-1.0, 1.0),
    half_turn=st.booleans(),
    isotropic=st.booleans(),
    fx=st.floats(20.0, 2000.0),
    aspect=st.floats(0.25, 4.0),
)
def test_coarse_radius_bounds_the_fine_one_for_every_accepted_rotation_and_quaternion(
    seed, shape, q_edge, half_turn, isotropic, fx, aspect
):
    """Camera rotations and quaternions anywhere inside the tolerances that
    ``Camera`` and ``Scene`` accept, up to their edges: the coarse radius
    bounds the fine one for every valid splat, and the coarse survivors of
    random rectangles hold every fine survivor.  Half the quaternions have
    |q| = 1 + q_edge tol_q, the rest a random norm within tol_q; a half turn
    (w = 0) gives R(q) its largest 2-norm, 2|q|^2 - 1."""
    rng = np.random.default_rng(seed)
    rotation = _stretched_rotation(rng, shape, CAMERA_ROTATION_TOL * (1 - 1e-6))
    camera = Camera(256, 256, fx, aspect * fx, 128.0, 128.0, rotation=rotation,
                    translation=rng.uniform(-5.0, 5.0, 3), near=0.1)
    n = 2000
    scales = 10.0 ** rng.uniform(-4.0, np.log10(5.0), (n, 1 if isotropic else 3))
    pos, scales, q, *values = _splats_around(rng, camera, np.broadcast_to(scales, (n, 3)))
    if half_turn:
        q[:, 0] = 0.0
        q /= np.linalg.norm(q, axis=1, keepdims=True)
    edge = np.where(np.arange(n) < n // 2, q_edge, rng.uniform(-1.0, 1.0, n))
    q *= (1 + edge * QUAT_NORM_TOL * (1 - 1e-6))[:, None]
    splats = (pos, scales, q, *values)
    Scene(*splats)  # accepted
    valid, batch, _ = project_splats(camera, *splats)
    assert valid.any()
    cam, _, _ = project_means(camera, pos)
    coarse = coarse_screen_radius(camera, cam, scales.max(axis=1))
    assert np.all(coarse[valid] >= batch.radius[valid])
    corner = rng.uniform(-64.0, 320.0, (2, n))
    rect = (*corner, *(corner + rng.uniform(0.0, 64.0, (2, n))))
    cmask, fine, _ = filter_voxel(camera, rect, splats, survivors=np.arange(n))
    assert set(fine.ids.tolist()) <= set(np.flatnonzero(cmask).tolist())


def test_filter_stats_monotone():
    rng = np.random.default_rng(23)
    camera = _camera()
    stats = FilterStats()
    for _ in range(10):
        pos, scales, q, opac, sh, ids = _random_inputs(rng, 100)
        rect = tile_rects([(int(rng.integers(0, 16)), int(rng.integers(0, 16)))])
        add_counters(stats, filter_voxel(camera, rect, (pos, scales, q, opac, sh, ids))[2])
        stats.check()


def test_emitted_conics_positive_definite():
    rng = np.random.default_rng(24)
    camera = _camera()
    pos, scales, q, opac, sh, ids = _random_inputs(rng, 2000)
    _, batch, _ = filter_voxel(camera, tile_rects([(7, 9)]), (pos, scales, q, opac, sh, ids),
                               survivors=np.arange(len(pos)))
    a, b, c = batch.conic[:, 0], batch.conic[:, 1], batch.conic[:, 2]
    assert np.all(a > 0) and np.all(c > 0) and np.all(a * c - b * b > 0)
    assert np.all(batch.depth > camera.near)


def test_fine_color_is_sh_toward_center():
    rng = np.random.default_rng(25)
    camera = _camera()
    pos = np.array([[0.3, -0.2, 0.5]])
    sh = rng.normal(0, 0.3, size=(1, 16, 3))
    _, batch, _ = filter_voxel(
        camera, tile_rects([(8, 8)]),
        (pos, np.full((1, 3), 0.3), np.array([[1.0, 0, 0, 0]]), np.array([0.7]), sh,
         np.array([4])),
        survivors=np.array([0]),
    )
    d = pos[0] - camera.position
    want = evaluate_sh(sh[0], d / np.linalg.norm(d))
    assert np.allclose(batch.rgb[0], want)


def test_disc_rect_overlap_cases():
    rect = (0.0, 0.0, 16.0, 16.0)
    center = np.array([[8.0, 8.0], [20.0, 8.0], [20.0, 8.0], [17.0, 17.0]])
    radius = np.array([1.0, 3.0, 5.0, 1.0])
    got = disc_overlaps_rect(center, radius, rect)
    assert got.tolist() == [True, False, True, False]


def test_quat_rotmat_is_rotation():
    rng = np.random.default_rng(26)
    q = rng.normal(size=(50, 4))
    q /= np.linalg.norm(q, axis=1, keepdims=True)
    mats = quat_to_rotmat(q)
    for m in mats:
        assert np.allclose(m @ m.T, np.eye(3), atol=1e-12)
        assert np.linalg.det(m) == pytest.approx(1.0)
