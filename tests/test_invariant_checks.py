"""Internal invariants are real raises, so they survive ``python -O``."""

import os
import subprocess
import sys
from pathlib import Path

import voxsplat

SRC = str(Path(voxsplat.__file__).resolve().parents[1])

_PROBE = """
import sys

import numpy as np

from voxsplat import streaming, traffic, vq
from voxsplat.filtering import FilterStats
from voxsplat.streaming import COUNTERS, tally

if __debug__:
    sys.exit("expected to run under python -O")

try:
    FilterStats(loaded=1, coarse_survivors=2, fine_survivors=1).check()
except RuntimeError as exc:
    print("filter:", exc)

# a row of two tiles that load 3 splats each, the second a 4-splat voxel
counts = np.zeros((len(COUNTERS), 2), dtype=np.int64)
counts[COUNTERS.index("loaded")] = 3
keys = (np.array([0 * 3 + 0, 1 * 3 + 1]), np.empty(0, dtype=np.int64))
try:
    tally(counts, keys, np.array([3, 4]), False)
except RuntimeError as exc:
    print("fetch:", exc)

# a buffer that keeps every tile it has seen, past its capacity
traffic.BUFFER_BYTES = 16
streaming._oldest_held = lambda ends, capacity: np.zeros(len(ends) - 1, dtype=np.int64)
try:
    tally(counts, (np.array([0 * 3 + 0, 0 * 3 + 1]), keys[1]), np.array([3]), False)
except RuntimeError as exc:
    print("buffer:", exc)

# inflate every distance evaluation so the k-means objective rises
real = vq._squared_distances
calls = [0]


def rising(vectors, centroids):
    calls[0] += 1
    return real(vectors, centroids) * 10.0 ** calls[0]


vq._squared_distances = rising
try:
    vq.train_codebook(np.random.default_rng(0).normal(size=(50, 3)), 4)
except RuntimeError as exc:
    print("kmeans:", exc)
"""


def test_invariant_checks_fire_under_python_O():
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
    out = subprocess.run(
        [sys.executable, "-O", "-c", _PROBE],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    assert lines[0].startswith("filter: filter counters out of order")
    assert lines[1].startswith("fetch: fetch counters out of order")
    assert lines[2].startswith("buffer: buffer occupancy 96 B exceeds its 16 B capacity")
    assert lines[3].startswith("kmeans: k-means objective increased")
