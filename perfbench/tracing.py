"""Spans recorded around calls into voxsplat's layers, from outside the package.

The traced run replaces module attributes with timing wrappers, so no file
under ``src/`` changes.  Each span holds a name, start, end, parent span and
frame id; spans stay in memory and are written once, when the run ends.  The
tracer assumes one thread: the traced run renders single-threaded.
"""

from __future__ import annotations

import importlib
import json
from contextlib import contextmanager
from time import perf_counter

# Attributes replaced in the traced run, looked up where the renderers call them.
WRAPPED = (
    ("voxsplat.streaming", "traverse"),
    ("voxsplat.streaming", "voxel_depths"),
    ("voxsplat.streaming", "schedule"),
    ("voxsplat.streaming", "stream_coarse"),
    ("voxsplat.streaming", "coarse_filter"),
    ("voxsplat.streaming", "stream_fine"),
    ("voxsplat.streaming", "fine_filter"),
    ("voxsplat.streaming", "blend"),
    ("voxsplat.streaming", "render_tile_streaming"),
    ("voxsplat.filtering", "project_splats"),
    ("voxsplat.filtering", "evaluate_sh"),
    ("voxsplat.reference", "project_splats"),
    ("voxsplat.reference", "disc_overlaps_rect"),
    ("voxsplat.reference", "blend"),
)


def span_name(module: str, attribute: str) -> str:
    return f"{module.rsplit('.', 1)[-1]}.{attribute}"


class TraceDriftError(RuntimeError):
    """A wrapped attribute is missing, or a layer that should run recorded nothing."""


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, frame id]
        self._stack: list[int] = []
        self._frame = -1
        self._saved: list[tuple] = []

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, 0.0, 0.0, parent, self._frame])
        index = len(self.spans) - 1
        self._stack.append(index)
        self.spans[index][1] = perf_counter()
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    @contextmanager
    def root(self, name: str):
        """A top-level span that starts a new frame id (a frame or a set-up)."""
        self._frame += 1
        with self.span(name):
            yield

    def _wrap(self, fn, name: str):
        def traced(*args, **kwargs):
            index = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(index)

        return traced

    def install(self) -> None:
        for module_name, attribute in WRAPPED:
            module = importlib.import_module(module_name)
            if not hasattr(module, attribute):
                self.uninstall()
                raise TraceDriftError(f"{module_name}.{attribute} no longer exists; update WRAPPED")
            original = getattr(module, attribute)
            self._saved.append((module, attribute, original))
            setattr(module, attribute, self._wrap(original, span_name(module_name, attribute)))

    def uninstall(self) -> None:
        while self._saved:
            module, attribute, original = self._saved.pop()
            setattr(module, attribute, original)

    @contextmanager
    def suspended(self):
        """Run a block with every wrapper removed (the untraced comparison)."""
        self.uninstall()
        try:
            yield
        finally:
            self.install()

    def check_calls(self, roots: tuple[str, ...]) -> None:
        """Every wrapped layer must have run inside at least one of ``roots``."""
        frame_root = {}
        for name, _, _, parent, frame in self.spans:
            if parent < 0:
                frame_root[frame] = name
        seen = {s[0] for s in self.spans if frame_root.get(s[4]) in roots}
        missing = [span_name(m, a) for m, a in WRAPPED if span_name(m, a) not in seen]
        if missing:
            raise TraceDriftError(f"wrapped layers recorded zero calls: {', '.join(missing)}")

    def frames(self) -> list[dict]:
        """Per frame id: root name, duration, and per span name the total
        time, call count and self time (duration minus direct children)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[int, dict] = {}
        for i, (name, start, end, parent, frame) in enumerate(self.spans):
            f = out.setdefault(frame, {"root": None, "duration": 0.0, "total": {},
                                       "calls": {}, "self": {}, "durations": {}})
            duration = end - start
            if parent < 0:
                f["root"], f["duration"] = name, duration
            f["total"][name] = f["total"].get(name, 0.0) + duration
            f["calls"][name] = f["calls"].get(name, 0) + 1
            f["self"][name] = f["self"].get(name, 0.0) + duration - child[i]
            f["durations"].setdefault(name, []).append(duration)
        return [out[k] for k in sorted(out)]

    def write(self, path: str) -> None:
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        t0 = self.spans[0][1] if self.spans else 0.0
        rows = [
            [index[n], round(s - t0, 9), round(e - t0, 9), p, f] for n, s, e, p, f in self.spans
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start_s", "end_s", "parent", "frame"],
                       "names": names, "spans": rows}, fh, separators=(",", ":"))
