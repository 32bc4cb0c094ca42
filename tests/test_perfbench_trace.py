"""perfbench's traced run wraps module attributes of the renderers; every
wrapped layer must stay a real stage that a frame calls through that
attribute, or ``perfbench/run.py --trace 1`` stops with ``TraceDriftError``.
Its untraced run reads the renderers' return tuples, ``StreamStats`` fields
and ``estimate``'s inputs; a small run of it must render every frame
cleanly.  It times the reference on a ``Scene``, which must render what the
command line renders from the store's records."""

import dataclasses
import importlib.util
import math
import sys
from pathlib import Path

import numpy as np
import pytest

import voxsplat.reference as reference_mod
import voxsplat.streaming as streaming_mod
from voxsplat import VoxelStore, look_at_camera
from voxsplat.voxelstore import scene_from_records

from conftest import constrained_scene

_PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name, monkeypatch=None):
    """perfbench/<name>.py as a module, unchanged; with ``monkeypatch``, also
    importable by its bare name until the test ends, as perfbench/run.py
    imports it (its dataclasses need that while it loads)."""
    spec = importlib.util.spec_from_file_location(name if monkeypatch else f"perfbench_{name}",
                                                  _PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    if monkeypatch:
        monkeypatch.setitem(sys.modules, name, module)
    spec.loader.exec_module(module)
    return module


def _tracing_module():
    return _load("tracing")


def test_every_wrapped_layer_runs_in_a_traced_frame():
    tracing = _tracing_module()
    store = VoxelStore.build(constrained_scene(seed=3, count=150), 2.0)
    camera = look_at_camera([0.0, 0.0, -10.0], [0.0, 0.0, 0.0], width=64, height=64, focal=75.0)
    scene = scene_from_records(store.grid, store.records)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        with tracer.root("streaming.frame"):
            streaming_mod.render_frame_streaming(camera, store.grid, store.records)
        with tracer.root("reference.frame"):
            reference_mod.render_frame_reference(camera, scene)
    finally:
        tracer.uninstall()
    tracer.check_calls(("streaming.frame", "reference.frame"))
    assert len(tracer.frames()) == 2


def _small(workloads, name):
    return dataclasses.replace(workloads.WORKLOADS[name], scenes=2, count=120, size=64,
                               setup_repeats=1)


@pytest.mark.parametrize("name", ["oracle-raw", "deep-cluttered"])
def test_the_benchmarks_reference_scene_renders_what_the_cli_renders(tmp_path, monkeypatch,
                                                                     name):
    """``Prepared.reference_scene()`` and the loaded store's records give the
    same reference frame bytes and ledger."""
    _load("tracing", monkeypatch)
    workloads = _load("workloads", monkeypatch)
    workload = _small(workloads, name)
    for path in workloads.make_inputs(workload, 1, str(tmp_path)):
        prepared = workloads.set_up(workload, path, str(tmp_path))
        scene_frame, scene_ledger = reference_mod.render_frame_reference(
            workload.camera(), prepared.reference_scene())
        frame, ledger = reference_mod.render_frame_reference(workload.camera(),
                                                             prepared.raw.records)
        assert frame.tobytes() == scene_frame.tobytes() and np.any(frame)
        assert ledger.as_dict() == scene_ledger.as_dict()


@pytest.mark.parametrize("name", ["oracle-raw", "oracle-vq", "deep-cluttered"])
def test_a_small_untraced_benchmark_run_renders_every_frame(tmp_path, monkeypatch, name):
    _load("tracing", monkeypatch)
    workloads = _load("workloads", monkeypatch)
    measure = _load("measure", monkeypatch)
    workload = _small(workloads, name)
    paths = workloads.make_inputs(workload, 1, str(tmp_path))
    runner, metrics, exact = measure.run_untraced(workload, paths, str(tmp_path), seconds=0)
    assert runner.attempted == 6 and runner.failed == 0
    assert all(math.isfinite(value) for value in metrics.values()), metrics
    if workload.bit_exact:  # the run's own check held: streaming == reference, bit for bit
        for i in range(2):
            assert (exact[f"scene{i}.stream_frame_sha256"]
                    == exact[f"scene{i}.reference_frame_sha256"])
