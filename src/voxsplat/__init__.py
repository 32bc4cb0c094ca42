"""Voxel-streaming Gaussian splat renderer with a tile-centric oracle and a
byte/MAC-accurate DRAM traffic model."""

from .errors import (
    CameraFormatError,
    CodebookCorruptionError,
    PlyParseError,
    PlySchemaError,
    SceneMismatchError,
    StoreFormatError,
    VoxsplatError,
)
from .filtering import FilterStats, ProjectedBatch, ProjectionCache, coarse_filter, fine_filter
from .metrics import cbp_loss, cross_boundary_stats, psnr
from .reference import render_frame_reference, traffic_breakdown
from .scene import (
    Aabb,
    Camera,
    Scene,
    generate_scene,
    load_ply,
    look_at_camera,
    save_ply,
)
from .scheduler import schedule, traverse
from .sh import evaluate_sh
from .streaming import StreamStats, render_frame_streaming, render_tile_streaming
from .traffic import PerfConfig, PipelineEstimate, TrafficLedger, compare_pipelines, estimate
from .voxelstore import (
    FlatRecords,
    VoxelGrid,
    VoxelStore,
    build_grid,
    load_store,
    save_store,
    stream_coarse,
    stream_fine,
)
from .vq import Codebook, load_codebooks, save_codebooks, train_codebook

__version__ = "0.1.0"
