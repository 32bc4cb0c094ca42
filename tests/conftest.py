import os
from unittest import mock

import pytest

import voxsplat.tileloop as tileloop
from voxsplat import Aabb, generate_scene, look_at_camera


@pytest.fixture
def desk_camera():
    """256x256 camera a few meters back from the scene box used in most tests."""
    return look_at_camera([0.0, 0.0, -10.0], [0.0, 0.0, 0.0], focal=300.0)


def constrained_scene(seed, count=600):
    """Oracle-regime scene: every splat well inside its voxel, ordering-safe."""
    return generate_scene(
        count=count,
        bounds=Aabb([-8.0, -8.0, -2.0], [8.0, 8.0, 2.0]),
        seed=seed,
        max_extent_fraction=0.135,
        voxel_edge=2.0,
        constrained=True,
    )


def cluttered_scene(seed=0, count=30000):
    """Deep unconstrained scene used for the traffic-shape and filtering checks."""
    return generate_scene(
        count=count,
        bounds=Aabb([-6.0, -6.0, 2.0], [6.0, 6.0, 26.0]),
        seed=seed,
        max_extent_fraction=0.4,
        voxel_edge=2.0,
    )


def leave_rows_to_workers():
    """Patch the row loop so the parent takes no rows: every row is then
    rendered in a forked worker, which inherits the patch."""
    parent, drain = os.getpid(), tileloop._drain
    return mock.patch.object(tileloop, "_drain",
                             lambda state: [] if os.getpid() == parent else drain(state))
