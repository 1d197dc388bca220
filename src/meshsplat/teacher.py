"""Teacher ground truth for distillation.

A teacher is a list of ``TeacherFrame``s, one per motion frame: the
deformation maps ``train.bake`` distills and the color, normal and mask
images both training stages fit. The procedural teacher builds that list
from an analytic pose-dependent deformation field, rasterized to
front/back canonical maps, and renders its images through the same
pipeline the student uses, so the baking loss has a reachable optimum.
``ingest_teacher`` reads an exported list back. Ground-truth images are
quantized to 8-bit at construction, which makes file export lossless:
an exported-then-ingested list is bit-identical to the in-memory one.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import assets, deform, splat
from .assets import (
    DeformationMap,
    GaussianTexture,
    MotionSequence,
    RiggedTemplate,
    ValidationError,
)

FIELDS = ("none", "sway", "breathing")
PHASE_GAIN = 12.0
MANIFEST = "manifest.txt"  # the frame list inside an exported teacher directory


@dataclass
class TeacherFrame:
    dmap: DeformationMap | None
    gt_color: np.ndarray         # [H,W,3] f32 (u8-quantized values)
    gt_normal: np.ndarray | None  # [H,W,3] f32 in [-1,1]
    gt_mask: np.ndarray | None    # [H,W] bool


def make_field(template: RiggedTemplate, kind: str, amplitude: float,
               seed: int = 0) -> Callable[[np.ndarray], np.ndarray]:
    """Analytic per-vertex field ``theta -> [V,3]`` float32:
    ``amplitude * sin(PHASE_GAIN * <theta, u>) * profile * mask *
    direction`` with ``u`` a random unit pose direction. ``sway`` moves
    the cloth along one random horizontal direction, falling off from
    the waist down; ``breathing`` moves the body radially in a band
    around the chest. ``none``, or an amplitude of 0, is zero."""
    if kind not in FIELDS:
        raise ValidationError(f"unknown teacher field '{kind}' (choose from {FIELDS})")
    if amplitude < 0:
        raise ValidationError("amplitude must be nonnegative")
    V = template.num_vertices
    if kind == "none" or amplitude == 0.0:
        return lambda theta: np.zeros((V, 3), dtype=np.float32)
    rng = np.random.default_rng(seed)
    phase_dir = rng.normal(size=template.theta_dim)
    phase_dir /= np.linalg.norm(phase_dir)
    z = template.vertices[:, 2].astype(np.float64)

    if kind == "sway":
        mask = template.cloth_mask.astype(np.float64)
        if mask.sum() > 0:
            z_cloth = z[mask > 0]
            z_top, z_bot = z_cloth.max(), z_cloth.min()
        else:
            z_top, z_bot = z.max(), z.min()
        profile = np.clip((z_top - z) / max(z_top - z_bot, 1e-9), 0.0, 1.0)
        ang = rng.uniform(0, 2 * np.pi)
        direction = np.array([[np.cos(ang), np.sin(ang), 0.0]])
    else:
        mask = 1.0 - template.cloth_mask.astype(np.float64)
        z_mid = 0.55 * (z.max() - z.min()) + z.min()
        width = 0.15 * (z.max() - z.min())
        profile = np.exp(-0.5 * ((z - z_mid) / width) ** 2)
        r = template.vertices[:, :2].astype(np.float64)
        norm = np.linalg.norm(r, axis=1, keepdims=True)
        direction = np.concatenate([r / np.maximum(norm, 1e-9), np.zeros((V, 1))], axis=1)
    w = (profile * mask)[:, None]

    def field(theta: np.ndarray) -> np.ndarray:
        s = amplitude * np.sin(PHASE_GAIN * float(theta.astype(np.float64) @ phase_dir))
        return (s * w * direction).astype(np.float32)

    return field


def quantize_images(color: np.ndarray, normal: np.ndarray):
    """Round pseudo-GT to what the 8-bit interchange files can carry."""
    c = splat.images.quantize_u8(color).astype(np.float32) / 255.0
    n01 = splat.images.quantize_u8((normal + 1.0) * 0.5).astype(np.float32) / 255.0
    return c, n01 * 2.0 - 1.0


def procedural_teacher(
    template: RiggedTemplate,
    texture: GaussianTexture,
    sequence: MotionSequence,
    field: str = "none",
    amplitude: float = 0.0,
    seed: int = 0,
    map_resolution: int = 128,
) -> list[TeacherFrame]:
    """Analytic teacher over a motion sequence.

    Per frame: the field's canonical deltas interpolated to front/back
    maps through one raster of the canonical template, plus
    color/normal/mask pseudo-GT rendered with the current texture.
    """
    f = make_field(template, field, amplitude, seed)
    front_cache, back_cache, bounds = splat.map_caches(template.vertices, template.faces, map_resolution)
    frames = []
    for t, frame in enumerate(sequence.frames):
        delta = f(frame.theta)
        dmap = splat.apply_map_caches(front_cache, back_cache, bounds, delta)
        camera = sequence.camera_for(t)
        posed = deform.pose_frame(template, texture, frame, camera, delta)
        target = splat.render(posed.world, camera, channels=("color", "alpha", "normal"))
        mask = target.alpha > 0.5
        color, normal = quantize_images(target.color, target.normal)
        frames.append(TeacherFrame(dmap=dmap, gt_color=color, gt_normal=normal, gt_mask=mask))
    return frames


# ---------------------------------------------------------------------------
# export / ingest
#
# Manifest grammar: one line per frame,
#   <dmap-file> <color-ppm> <normal-ppm> <mask-pgm>
# paths relative to the manifest's directory.


def export_teacher(frames: list[TeacherFrame], out_dir) -> str:
    os.makedirs(out_dir, exist_ok=True)
    lines = []
    for t, tf in enumerate(frames):
        if tf.dmap is None or tf.gt_normal is None or tf.gt_mask is None:
            raise ValidationError(f"frame {t} is incomplete; cannot export")
        names = (f"frame{t:05d}.dmap", f"frame{t:05d}_color.ppm",
                 f"frame{t:05d}_normal.ppm", f"frame{t:05d}_mask.pgm")
        assets.save_dmap(tf.dmap, os.path.join(out_dir, names[0]))
        splat.write_ppm(tf.gt_color, os.path.join(out_dir, names[1]))
        splat.write_ppm((tf.gt_normal + 1.0) * 0.5, os.path.join(out_dir, names[2]))
        splat.write_pgm(tf.gt_mask.astype(np.float32), os.path.join(out_dir, names[3]))
        lines.append(" ".join(names))
    manifest = os.path.join(out_dir, MANIFEST)
    with open(manifest, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    return manifest


def ingest_teacher(manifest_path) -> list[TeacherFrame]:
    """Load an externally produced teacher as the same frame list the
    procedural one gives. Missing files and mixed resolutions are
    reported with their frame index."""
    base = os.path.dirname(os.path.abspath(manifest_path))
    with open(manifest_path) as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if not lines:
        raise ValidationError(f"{manifest_path}: empty manifest")
    frames = []
    resolution = None
    map_res = None
    for t, line in enumerate(lines):
        parts = line.split()
        if len(parts) != 4:
            raise ValidationError(f"frame {t}: manifest line needs 4 file names, got {len(parts)}")
        paths = [os.path.join(base, p) for p in parts]
        for p in paths:
            if not os.path.exists(p):
                raise ValidationError(f"frame {t}: missing file {os.path.basename(p)}")
        dmap = assets.load_dmap(paths[0])
        color = splat.read_ppm(paths[1])
        normal = splat.read_ppm(paths[2]) * 2.0 - 1.0
        mask = splat.read_pgm(paths[3]) > 0.5
        if resolution is None:
            resolution = color.shape[:2]
            map_res = dmap.front.shape[0]
        if color.shape[:2] != resolution or normal.shape[:2] != resolution or mask.shape != resolution:
            raise ValidationError(f"frame {t}: image resolution {color.shape[:2]} != {resolution}")
        if dmap.front.shape[0] != map_res:
            raise ValidationError(f"frame {t}: map resolution {dmap.front.shape[0]} != {map_res}")
        frames.append(TeacherFrame(dmap=dmap, gt_color=color, gt_normal=normal, gt_mask=mask))
    return frames
