"""perfbench's traced run wraps module attributes of the renderers; every
wrapped layer must stay a real stage that a frame calls through that
attribute, or ``perfbench/run.py --trace 1`` stops with ``TraceDriftError``."""

import importlib.util
from pathlib import Path

import voxsplat.reference as reference_mod
import voxsplat.streaming as streaming_mod
from voxsplat import VoxelStore, look_at_camera
from voxsplat.voxelstore import scene_from_records

from conftest import constrained_scene

_TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _tracing_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", _TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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
