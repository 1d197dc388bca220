"""Seeded inputs, set-up and timed operations of the benchmark workloads.

Every input is derived from the workload seed; the library only sees the
generated inputs. See README.md for why each workload exists.

- ``animate``: the runtime. One operation is one frame of
  ``deform.animate_frame`` on an opaque 10.8k-Gaussian avatar; a window
  is one pass over the 8-frame motion.
- ``bake``: stage 1 training. One operation is one optimizer step of a
  48-step ``train.bake`` call against a procedural sway teacher; a window
  is two calls.
"""

from __future__ import annotations

import dataclasses
import inspect
import os
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from meshsplat import assets, deform, gstexture, teacher, train

import oracle

JOINTS = 22                 # 63-dim pose, the full-size configuration
ANIMATE_RES = (256, 256)
ANIMATE_FRAMES = 8          # a run times whole passes over the motion
TRAIN_RES = (128, 128)
MAP_RES = 128
TRAIN_FRAMES = 16
TRAIN_STEPS = 48            # three passes over the motion per call
TEACHER_AMPLITUDE = 0.25
LOSS_KEYS = ("l1", "dssim", "nor", "non", "sem")


def _seeds(seed: int, n: int) -> list[int]:
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(n)]


@dataclass
class Op:
    """One timed call: a frame, or a training call of many steps."""

    seconds: float
    latencies_ms: list          # per frame or per optimizer step
    attempted: int
    failed: int
    history: list = field(default_factory=list)
    note: str = ""


# ---------------------------------------------------------------------------
# animate


def _live_net(layers, rng, scale):
    """Give a zero-initialized output layer small random weights."""
    *hidden, (w, b) = layers
    return hidden + [(rng.normal(scale=scale, size=w.shape).astype(np.float32), b)]


def build_animate(seed: int) -> dict:
    s = _seeds(seed, 4)
    rig = assets.make_capsule_rig(JOINTS, cloth=True, seed=s[0], n_around=24, rings_per_segment=3)
    tex = gstexture.init_texture(rig, 2, 4, seed=s[1])
    rng = np.random.default_rng(s[2])
    # refined attributes: opaque splats with view-dependent color
    tex = dataclasses.replace(
        tex,
        opacity_logit=rng.uniform(0.0, 4.0, size=tex.num_gaussians).astype(np.float32),
        sh=rng.normal(scale=0.15, size=tex.sh.shape).astype(np.float32),
    )
    motion = assets.make_swing_motion(rig, ANIMATE_FRAMES, seed=s[3], resolution=ANIMATE_RES)
    bundle = deform.init_bundle(rig, tex, n_frames=len(motion), seed=s[2])
    bundle = dataclasses.replace(
        bundle,
        body_mlp=_live_net(bundle.body_mlp, rng, 5e-4),
        cloth_mlp=_live_net(bundle.cloth_mlp, rng, 5e-4),
        blend_pos=rng.normal(scale=1e-3, size=bundle.blend_pos.shape).astype(np.float32),
        blend_col=rng.normal(scale=5e-3, size=bundle.blend_col.shape).astype(np.float32),
    )
    threads = {}
    if "threads" in inspect.signature(deform.animate_frame).parameters:
        threads["threads"] = os.cpu_count() or 1
    return {"rig": rig, "tex": tex, "motion": motion, "bundle": bundle, "threads": threads,
            "check_rng": np.random.default_rng(s[3]), "checked": {}}


def animate_frame(inp: dict, k: int):
    motion = inp["motion"]
    i = k % len(motion)
    t0 = time.perf_counter()
    result = deform.animate_frame(inp["rig"], inp["tex"], inp["bundle"], motion.frames[i],
                                  motion.camera_for(i), channels=("color", "alpha"),
                                  frame_index=i, **inp["threads"])
    return result, time.perf_counter() - t0


def animate_op(inp: dict, k: int) -> Op:
    """One timed frame. Its first rendering is checked against the oracle;
    later passes over the motion must reproduce it."""
    result, seconds = animate_frame(inp, k)
    i, checked = k % len(inp["motion"]), inp["checked"]
    if i in checked:
        problem = oracle.check_repeat(result, checked[i])
    else:
        problem = oracle.check_frame(result, inp["motion"].camera_for(i), inp["check_rng"])
        checked[i] = oracle.frame_image(result).astype(np.float32)
    return Op(seconds, [seconds * 1e3], 1, int(problem is not None), note=problem or "")


# ---------------------------------------------------------------------------
# bake


def train_config(steps: int) -> train.TrainConfig:
    """The CLI defaults: semantic loss on, perceptual term off, one thread."""
    return train.TrainConfig(iterations=steps, map_resolution=MAP_RES, threads=1,
                             weights=train.LossWeights(lpips=0.0))


def _training_inputs(seed: int) -> tuple[dict, int]:
    s = _seeds(seed, 4)
    rig = assets.make_capsule_rig(JOINTS, cloth=True, seed=s[0])
    tex = gstexture.init_texture(rig, 1, 1, seed=s[1])
    motion = assets.make_swing_motion(rig, TRAIN_FRAMES, seed=s[2], resolution=TRAIN_RES)
    bundle = deform.init_bundle(rig, tex, n_frames=len(motion), seed=s[3])
    return {"rig": rig, "tex": tex, "motion": motion, "bundle": bundle}, s[3]


def build_bake(seed: int) -> dict:
    inp, s = _training_inputs(seed)
    inp["teacher"] = teacher.procedural_teacher(
        inp["rig"], inp["tex"], inp["motion"], field="sway", amplitude=TEACHER_AMPLITUDE,
        seed=s, map_resolution=MAP_RES)
    return inp


def _train_call(inp: dict, steps: int):
    return train.bake(inp["rig"], inp["tex"], inp["bundle"], inp["teacher"], inp["motion"],
                      train_config(steps))[2]


def training_op(inp: dict, steps: int = TRAIN_STEPS) -> Op:
    """One timed training call. A step fails if its loss is not finite or
    training diverges at or before it."""
    t0 = time.perf_counter()
    try:
        history = _train_call(inp, steps)
    except train.TrainingDiverged as e:
        return Op(time.perf_counter() - t0, [], steps, steps - e.iteration, note=str(e))
    seconds = time.perf_counter() - t0
    history = [rec for rec in history if "total" in rec]
    bad = sum(not all(np.isfinite(rec[k]) for k in LOSS_KEYS + ("total",)) for rec in history)
    return Op(seconds, [rec["wall_ms"] for rec in history], steps, bad + steps - len(history),
              history=history)


def losses_only(history: list) -> list:
    return [tuple(rec[k] for k in LOSS_KEYS + ("total",)) for rec in history]


# ---------------------------------------------------------------------------


@dataclass
class Workload:
    name: str
    unit: str       # what one operation is
    window: int     # timed calls per window; a run times whole windows
    build: Callable
    warmup: Callable
    op: Callable


WORKLOADS = {
    "animate": Workload("animate", "frame", ANIMATE_FRAMES, build_animate,
                        lambda inp: animate_frame(inp, 0)[0], animate_op),
    "bake": Workload("bake", "step", 2, build_bake,
                     lambda inp: training_op(inp, 1), lambda inp, k: training_op(inp)),
}
