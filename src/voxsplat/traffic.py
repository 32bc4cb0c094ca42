"""Byte/MAC ledger shared by both pipelines and the bottleneck-throughput model.

Declared byte constants (all little-endian float32 unless stated):

* splat load at projection: 59 params x 4 B = 236 B
* projected intermediate record: 48 B (center, conic, rgb, opacity, depth,
  radius, id)
* sort record: 8 B (depth key + id); merge-sort traffic is read+write per
  pass, ceil(log2 n) passes per tile list
* coarse first half: 16 B; encoded second half: 12 B (raw equivalent 220 B)
* final pixel: 12 B (rgb float32)
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import SceneMismatchError
from .filtering import FilterStats, Tally
from .voxelstore import ENCODED_FINE_BYTES, PACKED_INDEX_BITS, RAW_FINE_BYTES

STAGES = (
    "coarse-load",
    "fine-load",
    "projection",
    "projection-writeback",
    "sort-spill",
    "render-load",
    "pixel-writeback",
)
INTERMEDIATE_STAGES = ("projection-writeback", "sort-spill")

PROJECTION_LOAD_BYTES = 59 * 4
PROJECTED_RECORD_BYTES = 48
SORT_RECORD_BYTES = 8
PIXEL_BYTES = 12


@dataclass
class TrafficLedger(Tally):
    bytes: dict[str, int] = field(default_factory=lambda: {s: 0 for s in STAGES})
    records: dict[str, int] = field(default_factory=lambda: {s: 0 for s in STAGES})
    macs: dict[str, int] = field(default_factory=lambda: {"coarse": 0, "fine": 0})
    scene_hash: str = ""

    def charge(self, stage: str, nbytes: int, nrecords: int = 0) -> None:
        if stage not in self.bytes:
            raise KeyError(f"unknown traffic stage {stage!r}")
        if nbytes < 0 or nrecords < 0:
            raise ValueError("traffic charges must be non-negative")
        self.bytes[stage] += int(nbytes)
        self.records[stage] += int(nrecords)

    @property
    def total_bytes(self) -> int:
        return sum(self.bytes.values())

    @property
    def intermediate_bytes(self) -> int:
        return sum(self.bytes[s] for s in INTERMEDIATE_STAGES)


def merge_sort_pass_bytes(n_records: int) -> int:
    """Read+write bytes to depth-sort one tile's list of n 8-byte records."""
    if n_records < 2:
        return 0
    passes = math.ceil(math.log2(n_records))
    return 2 * SORT_RECORD_BYTES * n_records * passes


@dataclass(frozen=True)
class PerfConfig:
    """Unit counts for the analytical throughput model."""

    coarse_units: int = 4
    fine_units: int = 1
    sorter_units: int = 2
    render_units: int = 64
    macs_per_unit_cycle: int = 1
    coarse_macs: int = 55
    fine_macs: int = 372

    def __post_init__(self):
        for name in ("coarse_units", "fine_units", "sorter_units", "render_units",
                     "macs_per_unit_cycle"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")


@dataclass
class PipelineEstimate:
    stage_cycles: dict[str, float]
    bottleneck: str
    total_cycles: float
    assumption: str = "perfect stage overlap; total = max over stages"


def estimate(config: PerfConfig, stats: FilterStats, counts: dict[str, int]) -> PipelineEstimate:
    """Cycle estimate of the streamed pipeline under perfect stage overlap.

    ``counts`` needs ``sorted_records`` and ``blended_records``; both default
    to the fine survivor count when derived via :func:`counts_from_stats`.
    """
    mpc = config.macs_per_unit_cycle
    cycles = {
        "coarse": stats.loaded * config.coarse_macs / (config.coarse_units * mpc),
        "fine": stats.coarse_survivors * config.fine_macs / (config.fine_units * mpc),
        "sort": counts["sorted_records"] / config.sorter_units,
        "render": counts["blended_records"] / config.render_units,
    }
    bottleneck = max(cycles, key=lambda k: (cycles[k], k))
    return PipelineEstimate(
        stage_cycles=cycles, bottleneck=bottleneck, total_cycles=max(cycles.values())
    )


def counts_from_stats(stats: FilterStats) -> dict[str, int]:
    return {"sorted_records": stats.fine_survivors, "blended_records": stats.fine_survivors}


def compare_pipelines(
    stream_ledger: TrafficLedger,
    ref_ledger: TrafficLedger,
    stream_stats: FilterStats,
) -> dict:
    """Memory-efficiency report for one scene rendered by both pipelines."""
    if stream_ledger.scene_hash != ref_ledger.scene_hash:
        raise SceneMismatchError(
            f"ledgers from different scenes: {stream_ledger.scene_hash!r} vs "
            f"{ref_ledger.scene_hash!r}"
        )
    fine_records = stream_ledger.records["fine-load"]
    fine_bytes = stream_ledger.bytes["fine-load"]
    raw_equivalent = RAW_FINE_BYTES * fine_records
    vq_enabled = fine_records > 0 and fine_bytes == ENCODED_FINE_BYTES * fine_records
    report = {
        "stream_intermediate_bytes": stream_ledger.intermediate_bytes,
        "reference_intermediate_bytes": ref_ledger.intermediate_bytes,
        "reference_intermediate_fraction": (
            ref_ledger.intermediate_bytes / ref_ledger.total_bytes
            if ref_ledger.total_bytes
            else 0.0
        ),
        "stream_total_bytes": stream_ledger.total_bytes,
        "reference_total_bytes": ref_ledger.total_bytes,
        "vq_enabled": vq_enabled,
        "second_half_reduction": None,
        "second_half_reduction_bit_packed": None,
        "gaussian_reduction": None,
    }
    if vq_enabled:
        report["second_half_reduction"] = 1.0 - fine_bytes / raw_equivalent
        report["second_half_reduction_bit_packed"] = 1.0 - (PACKED_INDEX_BITS / 8.0) / RAW_FINE_BYTES
    if stream_stats.loaded:
        report["gaussian_reduction"] = 1.0 - stream_stats.fine_survivors / stream_stats.loaded
    return report
