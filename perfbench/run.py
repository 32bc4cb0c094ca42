#!/usr/bin/env python3
"""Stage-traced benchmark of voxsplat's streaming and reference pipelines.

Run from the repository root:

    python3 perfbench/run.py --workload oracle-raw --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separate traced run.  ``--workload all`` runs every workload in
its own process.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  See perfbench/README.md.
"""

from __future__ import annotations

import os

# One BLAS thread, so a frame never uses more threads than its render workers.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import hashlib
import json
import math
import platform
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"  # scratch inputs, span dumps and exact values of earlier runs
WORKLOAD_NAMES = ("oracle-raw", "oracle-vq", "deep-cluttered")
# Any later speed claim must also hold on this seed; it was never used to tune the benchmark.
HELD_OUT_SEED = 7919


def import_package():
    """Import voxsplat from this checkout's sources, never from elsewhere."""
    package = SRC / "voxsplat"
    if not (package / "__init__.py").is_file():
        sys.exit(f"perfbench: no voxsplat sources at {package}; run from a repository checkout")
    sys.path.insert(0, str(SRC))
    import voxsplat

    if Path(voxsplat.__file__).resolve().parent != package.resolve():
        sys.exit(f"perfbench: imported voxsplat from {voxsplat.__file__}, not {package}")


def code_digest() -> str:
    """sha256 of the package sources and of this benchmark's code."""
    h = hashlib.sha256()
    here = Path(__file__).resolve().parent
    for path in sorted((SRC / "voxsplat").glob("*.py")) + sorted(here.glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment() -> dict:
    import numpy

    git = "none"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, check=False)
        git = proc.stdout.strip() or "none"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": git,
        "code_sha256": code_digest(),
        "held_out_seed": HELD_OUT_SEED,
    }


def exact_guard(workload: str, seed: int, exact: dict, code: str) -> list[str]:
    """Values that must repeat exactly are compared with earlier runs of the
    same seed and the same code; returns the keys that changed."""
    path = STATE / "exact" / f"{workload}-seed{seed}-{code[:16]}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    earlier = json.loads(path.read_text()) if path.exists() else {}
    changed = [k for k in exact if k in earlier and earlier[k] != exact[k]]
    path.write_text(json.dumps({**earlier, **exact}, indent=1, sort_keys=True))
    return changed


def finite_or_none(value):
    return value if isinstance(value, (int, float)) and math.isfinite(value) else None


def run_one(args) -> int:
    import measure
    from tracing import TraceDriftError
    from workloads import WORKLOADS, make_inputs

    workload = WORKLOADS[args.workload]
    env = environment()
    print(f"perfbench workload={workload.name} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"load: closed loop, one client, frames back to back; scene seeds "
          f"{workload.scene_seeds(args.seed)}")
    (STATE / "work").mkdir(parents=True, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{workload.name}-", dir=STATE / "work")
    try:
        paths = make_inputs(workload, args.seed, workdir)
        if args.trace:
            (STATE / "spans").mkdir(parents=True, exist_ok=True)
            spans = STATE / "spans" / f"{workload.name}-seed{args.seed}.json"
            try:
                runner, metrics, exact = measure.run_traced(
                    workload, paths, workdir, args.seconds, str(spans))
            except TraceDriftError as exc:
                sys.exit(f"perfbench: trace drift: {exc}")
            units = dict(measure.PER_LAYER)
            kinds = {}
            print(f"spans written to {spans.relative_to(ROOT)}")
        else:
            runner, metrics, exact = measure.run_untraced(
                workload, paths, workdir, args.seconds)
            units = {n: u for n, u, _ in measure.END_TO_END}
            kinds = {n: k for n, _, k in measure.END_TO_END}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    changed = exact_guard(workload.name, args.seed, exact, env["code_sha256"])
    for key in changed:
        print(f"exact-count guard: {key} differs from an earlier run of seed {args.seed}",
              file=sys.stderr)
    for key, value in exact.items():
        if key.endswith("sha256"):
            print(f"{key} {value}")
    for kind, (scaled, raw, probe, count) in runner.medians().items():
        print(f"timed {kind}: {count} samples, median {scaled:.6g} s scaled, {raw:.6g} s raw, "
              f"host probe {1e3 * probe:.4g} ms")
    for name, value in metrics.items():
        kind = f" [{kinds[name]}]" if name in kinds else ""
        print(f"{name:36s} {value:.6g} {units[name]}{kind}")
    share = runner.failed / runner.attempted
    print(f"failure share {runner.failed}/{runner.attempted} = {share:.4f}")
    nonfinite = [n for n, v in metrics.items() if finite_or_none(v) is None]
    correct = runner.failed == 0 and not changed and not nonfinite
    print(json.dumps({
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {n: {"value": finite_or_none(v), "unit": units[n]} for n, v in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, so peak RSS belongs to one workload."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        print(proc.stdout, end="", flush=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.exit(f"perfbench: workload {name} exited with code {proc.returncode}")
        result = json.loads(lines[-1])
        total["correct"] &= result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            total["metrics"][f"{name}.{metric}"] = entry
    print(json.dumps(total))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=(*WORKLOAD_NAMES, "all"), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="length of the timed loop of one run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    import_package()
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
