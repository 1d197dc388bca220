"""The two training stages.

Both stages take their ground truth as one list of
``teacher.TeacherFrame``s, one per motion frame. Baking distills the
frames' deformation maps into the student MLPs while refining Gaussian
local attributes against their images; fine-tuning freezes the
deformation field and fits the mapping networks and blend shapes to the
same images. Both stages run the runtime's student networks through
``ops.mlp`` and splat the runtime's posed Gaussians, differentiated
through ``ops.bind``, in a per-frame graph over the autodiff engine, and
step Adam with per-group learning rates.
"""

from __future__ import annotations

import time
from dataclasses import InitVar, dataclass, field, replace

import numpy as np

from .. import deform, splat
from ..assets import (
    FrameInput,
    GaussianTexture,
    MotionSequence,
    RiggedTemplate,
    ValidationError,
)
from ..gstexture import local_to_world, triangle_frames
from ..teacher import TeacherFrame
from . import losses, ops
from .engine import Tensor, concat, constant
from .optim import DEFAULT_LRS, Adam

SEM_ALPHA_THRESHOLD = 1e-3
# steps between the last-good snapshots that TrainingDiverged carries
CHECKPOINT_EVERY = 200
# the texture attributes bake refines, by their ``ops.bind`` names; no
# gradient reaches rotation or scale (no covariance backward)
ATTRIBUTES = ("opacity_logit", "sh", "gamma")


@dataclass
class LossWeights:
    """Loss term weights. ``finetune`` optimizes only the L1 and D-SSIM
    terms; see there. ``lpips`` is constructor-only and must be 0 (no
    feature network backs a perceptual term); it is kept only while the
    benchmark (``perfbench/workloads.py``) passes ``lpips=0.0``."""

    ssim: float = 0.2
    nor: float = 0.02
    non: float = 0.1
    sem: float = 1.0
    lpips: InitVar[float] = 0.0

    def __post_init__(self, lpips: float) -> None:
        if lpips != 0:
            raise ValidationError(f"loss weight lpips must be 0, got {lpips}: "
                                  "no feature network backs a perceptual term")

    def validate(self) -> None:
        for name in ("ssim", "nor", "non", "sem"):
            if not 0 <= getattr(self, name) < np.inf:
                raise ValidationError(f"loss weight {name} must be finite and nonnegative")


@dataclass
class TrainConfig:
    """``threads`` is constructor-only and must be 1 (rendering is
    single-threaded); it is kept only while the benchmark
    (``perfbench/workloads.py``) passes ``threads=1``."""

    iterations: int = 2000
    batch_size: int = 1
    lrs: dict = field(default_factory=dict)
    map_resolution: int = 128
    tau: float = 25.0
    weights: LossWeights = field(default_factory=LossWeights)
    # embeddings absorb registration error; with exactly-registered
    # synthetic poses they only offer a memorization shortcut, so runs on
    # synthetic data may freeze them at zero
    freeze_embeddings: bool = False
    threads: InitVar[int] = 1

    def __post_init__(self, threads: int) -> None:
        if threads != 1:
            raise ValidationError(f"threads must be 1, got {threads}: rendering is single-threaded")

    def validate(self) -> None:
        if self.iterations <= 0:
            raise ValidationError("iterations must be positive")
        if self.batch_size <= 0:
            raise ValidationError("batch size must be positive")
        if not 0 < self.tau < np.inf:
            raise ValidationError("tau must be finite and positive")
        self.weights.validate()


class TrainingDiverged(RuntimeError):
    """Loss became non-finite; carries the last good checkpoint."""

    def __init__(self, iteration: int, bundle, texture):
        self.iteration = iteration
        self.bundle = bundle
        self.texture = texture
        super().__init__(f"loss diverged at iteration {iteration}; last good checkpoint attached")


def format_log_line(rec: dict) -> str:
    """One ``key=value`` token per record field; a list is comma-joined,
    so no value holds a space."""

    def text(v):
        if isinstance(v, float):
            return f"{v:.6g}"
        if isinstance(v, list):
            return ",".join(map(str, v))
        return str(v)

    return " ".join(f"{k}={text(v)}" for k, v in rec.items())


def write_train_log(history: list[dict], path) -> None:
    with open(path, "w") as f:
        for rec in history:
            f.write(format_log_line(rec) + "\n")


# ---------------------------------------------------------------------------
# per-frame graph pieces


def student_delta_graph(params: dict, template: RiggedTemplate, bundle: deform.StudentBundle,
                        frame: FrameInput, frame_index: int) -> Tensor:
    """``deform.student_deform`` in the graph: the runtime's inputs and
    MLPs, the cloth net on the cloth rows only, differentiated through
    ``ops.student_inputs`` and ``ops.mlp``. The embedding is
    ``deform.resolve_embedding``'s: a frame's own ``z`` (a constant)
    first, else its ``z_table`` row."""
    z = params["z_table"][frame_index] if frame.z is None else constant(deform.resolve_embedding(bundle, frame))
    x = ops.student_inputs(bundle, template, frame, z)
    body = ops.mlp(params["sb"], x)
    rows, rest = np.flatnonzero(template.cloth_mask), np.flatnonzero(template.cloth_mask == 0)
    cloth = body[rows] + ops.mlp(params["sc"], x[rows])
    return concat([cloth, body[rest]])[np.argsort(np.concatenate([rows, rest]))]


def blend_coeffs_graph(params: dict, frame: FrameInput) -> Tensor:
    """``deform.blend_coeffs`` in the graph: the mapping nets through
    ``ops.mlp``, head coefficients first."""
    return concat([ops.mlp(params["maph"], constant(frame.epsilon[None])),
                   ops.mlp(params["mapb"], constant(frame.theta[None]))], axis=1).reshape(-1)


def _tensor_net(layers):
    return [(Tensor(np.array(w, dtype=np.float32), True), Tensor(np.array(b, dtype=np.float32), True))
            for (w, b) in layers]


def _net_arrays(tensors):
    return [(w.data.astype(np.float32), b.data.astype(np.float32)) for (w, b) in tensors]


def _flatten_nets(nets):
    out = []
    for net in nets:
        for w, b in net:
            out.extend([w, b])
    return out


def _optimize(opt: Adam, config: TrainConfig, n_frames: int, frame_loss, snapshot):
    """The step loop both stages share. Step ``it`` sums the gradients of
    frames ``(it * batch_size + bi) % n_frames`` and records each term
    averaged over the batch, and each parameter group's gradient and
    update norms (``Adam.norms``). ``frame_loss(t)`` returns the frame's
    scalar loss tensor and its logged terms as floats; ``snapshot()`` returns
    ``(bundle, texture)``, and the last one taken every
    ``CHECKPOINT_EVERY`` steps rides on ``TrainingDiverged``.
    Returns ``(bundle, texture, history)``."""
    history: list[dict] = []
    last_good = snapshot()
    for it in range(config.iterations):
        t0 = time.perf_counter()
        opt.zero_grad()
        rec = {"iter": it, "l1": 0.0, "dssim": 0.0, "nor": 0.0, "non": 0.0, "sem": 0.0, "total": 0.0}
        for bi in range(config.batch_size):
            loss, terms = frame_loss((it * config.batch_size + bi) % n_frames)
            total = float(loss.data)
            if not np.isfinite(total):
                raise TrainingDiverged(it, *last_good)
            loss.backward()
            for key, value in terms.items():
                rec[key] += value / config.batch_size
            rec["total"] += total / config.batch_size
        opt.step()
        rec.update(opt.norms)
        rec["wall_ms"] = (time.perf_counter() - t0) * 1000.0
        history.append(rec)
        if (it + 1) % CHECKPOINT_EVERY == 0:
            last_good = snapshot()
    return *snapshot(), history


# ---------------------------------------------------------------------------
# baking


def bake(
    template: RiggedTemplate,
    texture: GaussianTexture,
    bundle: deform.StudentBundle,
    frames: list[TeacherFrame],
    sequence: MotionSequence,
    config: TrainConfig,
) -> tuple[deform.StudentBundle, GaussianTexture, list[dict]]:
    """Distill the teacher's frames into the student field and refine
    local attributes. Returns (bundle, texture, history); the inputs are
    not mutated. Blend shapes stay frozen at zero during this stage. Each
    step splats ``deform.pose_frame`` at the current deltas and
    attributes, differentiated through ``ops.bind``.
    """
    config.validate()
    bundle.validate_for(template, texture)
    weights = config.weights
    if len(frames) != len(sequence):
        raise ValidationError(f"teacher supplies {len(frames)} frames, sequence has {len(sequence)}")

    front_cache, back_cache, _ = splat.map_caches(template.vertices, template.faces, config.map_resolution)
    for t, tf in enumerate(frames):
        if tf.dmap is None:
            raise ValidationError(f"teacher frame {t} carries no deformation maps")
        if tf.dmap.front.shape[0] != front_cache.height or tf.dmap.front.shape[1] != front_cache.width:
            raise ValidationError(
                f"teacher frame {t}: map resolution {tf.dmap.front.shape[:2]} != config {config.map_resolution}"
            )
    disagreeing = [
        t for t, tf in enumerate(frames)
        if max(losses.mask_disagreement(front_cache.mask, tf.dmap.front_mask),
               losses.mask_disagreement(back_cache.mask, tf.dmap.back_mask)) > 0.2
    ]

    sem_labels = ops.semantic_label(template, config.tau)
    sem_g = ops.gaussian_semantic(template, texture, config.tau)
    bary = ops.bary_matrix(template, texture)

    params = {
        "sb": _tensor_net(bundle.body_mlp),
        "sc": _tensor_net(bundle.cloth_mlp),
        "z_table": Tensor(np.array(bundle.z_table, dtype=np.float32),
                          requires_grad=not config.freeze_embeddings),
        **{k: Tensor(np.array(getattr(texture, k), dtype=np.float32), True) for k in ATTRIBUTES},
    }
    groups = {
        "mlp": _flatten_nets([params["sb"], params["sc"]]),
        "attributes": [params[k] for k in ATTRIBUTES],
    }
    if not config.freeze_embeddings:
        groups["embeddings"] = [params["z_table"]]
    opt = Adam(groups, lrs=config.lrs)

    def snapshot():
        b = replace(
            bundle,
            body_mlp=_net_arrays(params["sb"]),
            cloth_mlp=_net_arrays(params["sc"]),
            z_table=params["z_table"].data.copy(),
        )
        tex = replace(
            texture,
            **{k: params[k].data.copy() for k in ATTRIBUTES},
            rotation=np.array(texture.rotation, dtype=np.float32),
            log_scale=np.array(texture.log_scale, dtype=np.float32),
        )
        return b, tex

    def frame_loss(t):
        frame = sequence.frames[t]
        camera = sequence.camera_for(t)
        tf = frames[t]

        delta_t = student_delta_graph(params, template, bundle, frame, t)
        # the runtime's pose and binding at the student's current deltas
        # and attributes; blend shapes are frozen at zero in this stage
        current = replace(texture, **{k: params[k].data for k in ATTRIBUTES})
        posed_frame = deform.pose_frame(template, current, frame, camera, delta_t.data)
        world = posed_frame.world

        parts = {}
        loss = None
        if weights.non > 0:
            parts["non"] = losses.loss_nonrigid(ops.mesh_map_apply(delta_t, front_cache),
                                                ops.mesh_map_apply(delta_t, back_cache), tf.dmap)
            loss = parts["non"] * weights.non

        means, color, opacity = ops.bind(
            world, skin=posed_frame.transforms[:, :3, :3], bary=bary,
            delta=delta_t, **{k: params[k] for k in ATTRIBUTES})
        values = concat([color, constant(world.normal), constant(sem_g)], axis=1)

        img = ops.splat_render(means, values, opacity, camera, world.rot_mats, world.scales)
        color_img = img[:, :, 0:3]
        parts["l1"] = l_rec = losses.loss_l1(color_img, tf.gt_color)
        if weights.ssim > 0:
            parts["dssim"] = losses.loss_dssim(color_img, tf.gt_color)
            l_rec = l_rec + parts["dssim"] * weights.ssim
        if weights.nor > 0:
            parts["nor"] = losses.loss_normal(img[:, :, 3:6], tf.gt_normal, tf.gt_mask)
            l_rec = l_rec + parts["nor"] * weights.nor
        loss = l_rec if loss is None else loss + l_rec

        if weights.sem > 0:
            mesh_sem, mesh_mask, _ = splat.rasterize_mesh_camera(
                posed_frame.posed_verts, template.faces, sem_labels, camera)
            union = mesh_mask | (img.data[:, :, -1] > SEM_ALPHA_THRESHOLD)
            parts["sem"] = losses.loss_semantic(img[:, :, 6:9], mesh_sem, union)
            loss = loss + parts["sem"] * weights.sem
        return loss, {key: float(term.data) for key, term in parts.items()}

    new_bundle, new_texture, history = _optimize(opt, config, len(sequence), frame_loss, snapshot)
    if disagreeing:
        history.insert(0, {"iter": -1, "warning": "mask_disagreement", "frames": disagreeing})
    return new_bundle, new_texture, history


# ---------------------------------------------------------------------------
# fine-tuning


def _reject_bake_only_settings(config: TrainConfig) -> None:
    """``finetune`` reads no map, semantic, normal or embedding setting:
    one set away from its default would silently do nothing."""
    default = TrainConfig()
    names = [f for f in ("tau", "map_resolution", "freeze_embeddings")
             if getattr(config, f) != getattr(default, f)]
    names += [f"weights.{f}" for f in ("nor", "non", "sem")
              if getattr(config.weights, f) != getattr(default.weights, f)]
    if names:
        raise ValidationError(f"finetune does not read the bake-only settings {', '.join(names)}; "
                              "leave them at their defaults")


def finetune(
    template: RiggedTemplate,
    texture: GaussianTexture,
    bundle: deform.StudentBundle,
    gt_frames: list[TeacherFrame],
    sequence: MotionSequence,
    config: TrainConfig,
) -> tuple[deform.StudentBundle, list[dict]]:
    """Freeze the deformation field; fit mapping networks and the two
    blend shapes against rendered ground truth with L1 + D-SSIM.

    The normal loss is logged but not optimized. A Gaussian's rendered
    normal comes from its frozen triangle frame, so the blend shapes
    change the normal image only by moving Gaussians. A move along the
    normal changes that image mainly through the compositing order,
    which the backward pass holds fixed, so the normal term's gradient
    does not point at its own minimum.

    Each blend-shape step is sized in output units. Adam moves every
    entry by about the learning rate, whatever its gradient, and a
    Gaussian's offset or color is the sum of n entries times the
    coefficients z. So the step is divided by the mean ``|z|_1`` over the
    frames (when that exceeds 1). It is measured in color units for
    ``blend_col`` and in mean edge lengths, the binding's unit of
    Gaussian scale, for ``blend_pos``. Each step splats the runtime's
    ``local_to_world`` of the current offsets, through ``ops.bind``.
    """
    config.validate()
    _reject_bake_only_settings(config)
    bundle.validate_for(template, texture)
    weights = config.weights
    if len(gt_frames) != len(sequence):
        raise ValidationError(f"{len(gt_frames)} gt frames for {len(sequence)} sequence frames")

    params = {
        "maph": _tensor_net(bundle.head_map),
        "mapb": _tensor_net(bundle.body_map),
        "U": Tensor(np.array(bundle.blend_pos, dtype=np.float32), True),
        "C": Tensor(np.array(bundle.blend_col, dtype=np.float32), True),
    }
    coeff_l1 = float(np.mean([np.abs(deform.blend_coeffs(bundle, frame)).sum() for frame in sequence.frames]))
    blend_lr = {**DEFAULT_LRS, **config.lrs}["blend"] / max(coeff_l1, 1.0)
    edge = float(triangle_frames(template.vertices, template.faces)[1][texture.face_idx.astype(np.int64)].mean())
    opt = Adam(
        {
            "mlp": _flatten_nets([params["maph"], params["mapb"]]),
            "blend_pos": [params["U"]],
            "blend_col": [params["C"]],
        },
        lrs={**config.lrs, "blend_pos": blend_lr * edge, "blend_col": blend_lr},
    )

    def snapshot():
        return replace(
            bundle,
            head_map=_net_arrays(params["maph"]),
            body_map=_net_arrays(params["mapb"]),
            blend_pos=params["U"].data.copy(),
            blend_col=params["C"].data.copy(),
        ), texture

    # the deformation field is frozen, so each frame's posed vertices
    # are built once; the blend shapes are bound on every step
    posed = [deform.pose_frame(template, texture, frame, sequence.camera_for(t),
                               deform.student_deform(bundle, template, frame, frame_index=t)).posed_verts
             for t, frame in enumerate(sequence.frames)]

    def frame_loss(t):
        frame = sequence.frames[t]
        camera = sequence.camera_for(t)
        gt = gt_frames[t]

        coeffs = blend_coeffs_graph(params, frame)
        du = ops.blend_shapes(params["U"], coeffs)
        dc = ops.blend_shapes(params["C"], coeffs)
        world = local_to_world(texture, posed[t], template.faces, delta_u=du.data, delta_c=dc.data,
                               **splat.camera_view(camera))
        means, color, opacity = ops.bind(world, du=du, dc=dc)
        values = concat([color, constant(world.normal)], axis=1)

        img = ops.splat_render(means, values, opacity, camera, world.rot_mats, world.scales)
        color_img = img[:, :, 0:3]

        l1 = losses.loss_l1(color_img, gt.gt_color)
        loss = l1
        terms = {"l1": float(l1.data)}
        if weights.ssim > 0:
            d = losses.loss_dssim(color_img, gt.gt_color)
            terms["dssim"] = float(d.data)
            loss = loss + d * weights.ssim
        if gt.gt_normal is not None:
            nrm = losses.loss_normal(constant(img.data[:, :, 3:6]), gt.gt_normal, gt.gt_mask)
            terms["nor"] = float(nrm.data)
        return loss, terms

    tuned, _, history = _optimize(opt, config, len(sequence), frame_loss, snapshot)
    return tuned, history


def evaluate_nonrigid(
    template: RiggedTemplate,
    bundle: deform.StudentBundle,
    frames: list[TeacherFrame],
    sequence: MotionSequence,
) -> float:
    """Mean front+back map L1 against a teacher's frames over a
    (held-out) sequence, driving novel frames with the z_0 convention.
    The maps are rasterized at the frames' own resolution."""
    front_cache, back_cache, _ = splat.map_caches(template.vertices, template.faces,
                                                  frames[0].dmap.front.shape[0])
    total = 0.0
    for t, frame in enumerate(sequence.frames):
        novel = FrameInput(frame.theta, frame.epsilon, frame.root, bundle.z_table[0])
        delta = deform.student_deform(bundle, template, novel)
        sf, _ = front_cache.apply(delta)
        sb, _ = back_cache.apply(delta)
        tf = frames[t]
        l = losses.loss_nonrigid(constant(sf.astype(np.float64)), constant(sb.astype(np.float64)), tf.dmap)
        total += float(l.data)
    return total / len(sequence)
