"""Outside-in span tracing for the traced benchmark run.

Each layer's public function is replaced, at the name its caller looks
it up under, by a wrapper that records a span. Nothing under ``src/``
changes, and ``uninstall`` puts every original back. Spans are kept in
memory and written out once the run ends.

Wrapped functions are called from the main thread only (the tile
compositor's worker threads run code that is not wrapped), so one
stack of open spans gives every span its parent.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from dataclasses import asdict, dataclass

# (module, attribute, span name). A function looked up under two names
# (``splat.composite`` by the renderer, ``ops.composite`` by training) is
# wrapped at both and records under one span name.
TARGETS = [
    ("meshsplat.deform", "animate_frame", "deform.animate_frame"),
    ("meshsplat.deform", "student_deform", "deform.student_deform"),
    ("meshsplat.deform", "blend_coeffs", "deform.blend_coeffs"),
    ("meshsplat.deform", "blend_shape_apply", "deform.blend_shape_apply"),
    ("meshsplat.deform", "pose_skeleton", "skinning.pose_skeleton"),
    ("meshsplat.deform", "lbs_forward", "skinning.lbs_forward"),
    ("meshsplat.deform", "local_to_world", "gstexture.local_to_world"),
    ("meshsplat.splat", "render", "splat.render"),
    ("meshsplat.splat", "project_gaussians", "projection.project_gaussians"),
    ("meshsplat.splat", "composite", "tiles.composite"),
    ("meshsplat.splat.tiles", "bin_gaussians", "tiles.bin_gaussians"),
    ("meshsplat.splat", "deformation_maps", "meshraster.deformation_maps"),
    ("meshsplat.splat", "map_caches", "meshraster.map_caches"),
    ("meshsplat.splat", "rasterize_mesh_camera", "meshraster.rasterize_mesh_camera"),
    ("meshsplat.splat.meshraster", "RasterCache.backward", "meshraster.cache_backward"),
    ("meshsplat.teacher", "procedural_teacher", "teacher.procedural_teacher"),
    ("meshsplat.train", "bake", "train.bake"),
    # the package attribute ``meshsplat.train.bake`` is the bake function,
    # so the module is reached through importlib
    ("meshsplat.train.bake", "prepare_frame", "bake.prepare_frame"),
    ("meshsplat.train.bake", "student_delta_graph", "bake.student_delta_graph"),
    ("meshsplat.train.ops", "project_gaussians", "projection.project_gaussians"),
    ("meshsplat.train.ops", "composite", "tiles.composite"),
    ("meshsplat.train.ops", "composite_backward", "tiles.composite_backward"),
    ("meshsplat.train.ops", "SplatRender.forward", "ops.splat_render"),
    ("meshsplat.train.ops", "SplatRender.backward", "ops.splat_render"),
    ("meshsplat.train.losses", "loss_l1", "losses.l1"),
    ("meshsplat.train.losses", "loss_dssim", "losses.dssim"),
    ("meshsplat.train.losses", "loss_normal", "losses.normal"),
    ("meshsplat.train.losses", "loss_nonrigid", "losses.nonrigid"),
    ("meshsplat.train.losses", "loss_semantic", "losses.semantic"),
    ("meshsplat.train.optim", "Adam.step", "optim.adam_step"),
    ("meshsplat.train.engine", "Tensor.backward", "engine.backward"),
]

# Spans whose arguments and results the counters need, and how many calls
# of the timed phase to keep.
CAPTURE = {"tiles.composite": 4, "projection.project_gaussians": 4,
           "meshraster.rasterize_mesh_camera": 4}

# Per-layer metrics: (name, unit, spans, phase, time kind). Phase "run"
# divides by the timed operations (frames or optimizer steps), phase
# "setup" by the set-up repetitions; every "run" metric also has a
# "setup."-prefixed twin, its share of set-up time. Self time is a span's
# duration minus its children's; "total" keeps the children.
LAYER_TIMES = [
    ("skinning.pose_ms", "ms", ("skinning.pose_skeleton", "skinning.lbs_forward"), "run", "self"),
    ("deform.student_ms", "ms", ("deform.student_deform",), "run", "self"),
    ("deform.blend_ms", "ms", ("deform.blend_coeffs", "deform.blend_shape_apply"), "run", "self"),
    ("gstexture.bind_ms", "ms", ("gstexture.local_to_world",), "run", "self"),
    ("projection.project_ms", "ms", ("projection.project_gaussians",), "run", "self"),
    ("tiles.bin_ms", "ms", ("tiles.bin_gaussians",), "run", "self"),
    ("tiles.composite_ms", "ms", ("tiles.composite",), "run", "self"),
    ("tiles.composite_backward_ms", "ms", ("tiles.composite_backward",), "run", "self"),
    ("meshraster.camera_ms", "ms", ("meshraster.rasterize_mesh_camera",), "run", "self"),
    ("meshraster.maps_ms", "ms", ("meshraster.deformation_maps", "meshraster.map_caches"), "setup", "self"),
    ("teacher.build_s", "s", ("teacher.procedural_teacher",), "setup", "total"),
    ("bake.prepare_ms", "ms", ("bake.prepare_frame",), "run", "self"),
    ("bake.student_graph_ms", "ms", ("bake.student_delta_graph",), "run", "self"),
    ("ops.splat_render_ms", "ms", ("ops.splat_render",), "run", "self"),
    ("engine.backward_ms", "ms", ("engine.backward",), "run", "self"),
    ("losses.l1_ms", "ms", ("losses.l1",), "run", "self"),
    ("losses.dssim_ms", "ms", ("losses.dssim",), "run", "self"),
    ("losses.normal_ms", "ms", ("losses.normal",), "run", "self"),
    ("losses.nonrigid_ms", "ms", ("losses.nonrigid",), "run", "self"),
    ("losses.semantic_ms", "ms", ("losses.semantic",), "run", "self"),
    ("optim.adam_ms", "ms", ("optim.adam_step",), "run", "self"),
]


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 at the top
    op: str      # "setup<k>" or "run<k>"


def _resolve(module: str, attr: str):
    owner = importlib.import_module(module)
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.op = "setup0"
        self.captures: dict[str, list] = {name: [] for name in CAPTURE}
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def install(self) -> None:
        self.missing = []
        for module, attr, name in TARGETS:
            try:
                owner, fname = _resolve(module, attr)
                fn = getattr(owner, fname)
            except (ImportError, AttributeError):
                self.missing.append(f"{module}.{attr}")
                continue
            self._saved.append((owner, fname, fn))
            setattr(owner, fname, self._wrap(fn, name))

    def uninstall(self) -> None:
        for owner, fname, fn in reversed(self._saved):
            setattr(owner, fname, fn)
        self._saved = []

    def _wrap(self, fn, name: str):
        keep = CAPTURE.get(name, 0)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            span = Span(name, time.perf_counter(), 0.0, parent, self.op)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if keep and self.op.startswith("run") and len(self.captures[name]) < keep:
                self.captures[name].append((args, kwargs, result))
            return result

        return traced

    def span_table(self) -> dict[str, dict]:
        """Calls, total and self seconds per span name and phase. Every
        wrapped name appears, with zero calls if it never fired."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent >= 0:
                child[s.parent] += s.end - s.start
        table = {name: {} for _, _, name in TARGETS}
        for s, c in zip(self.spans, child):
            phase = s.op.rstrip("0123456789")
            row = table[s.name].setdefault(phase, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += s.end - s.start
            row["self_s"] += s.end - s.start - c
        return table

    def layer_metrics(self, run_ops: int, setup_reps: int) -> dict[str, dict]:
        table = self.span_table()

        def value(spans, phase, kind, unit):
            seconds = sum(table[s].get(phase, {}).get(f"{kind}_s", 0.0) for s in spans)
            per = seconds / (run_ops if phase == "run" else setup_reps)
            return {"value": per * (1e3 if unit == "ms" else 1.0), "unit": unit}

        out = {name: value(spans, phase, kind, unit) for name, unit, spans, phase, kind in LAYER_TIMES}
        for name, unit, spans, phase, kind in LAYER_TIMES:
            if phase == "run":
                out[f"setup.{name}"] = value(spans, "setup", kind, unit)
        return out

    def write(self, path, extra: dict) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": [asdict(s) for s in self.spans], "table": self.span_table(),
                       "missing": self.missing, **extra}, fh)
