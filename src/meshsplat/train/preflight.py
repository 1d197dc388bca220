"""Pre-training gradient validation.

Every op a bake or finetune step builds is finite-difference checked on
small fixtures, through the code training runs, before training is
allowed: the runtime's MLP as training differentiates it (``ops.mlp``)
as a linear layer and a deep net under L1, finetune's blend coefficients
(``bake.blend_coeffs_graph``), blend shapes under L1, D-SSIM, the
non-rigid map loss, the splat backward (color / opacity / 2D mean), the
projection Jacobian, training's differentiable splat end to end
(``ops.splat_render``), the runtime's binding (``ops.bind``), and bake's
student field with its embedding row and the cloth net on the cloth
rows (``bake.student_delta_graph``). Smooth paths must agree to 1e-3
relative, the splat paths to 1e-2.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .. import assets, deform
from ..assets import Camera, FrameInput, look_at, perspective_camera
from ..gstexture import init_texture
from ..skinning import pose_skeleton, vertex_transforms
from ..splat import backproject_mean_grads, composite, composite_backward, meshraster, project_gaussians
from . import losses, ops
from .bake import blend_coeffs_graph, student_delta_graph
from .engine import Tensor
from .gradcheck import GradReport, grad_check

TOL_SMOOTH = 1e-3
TOL_SPLAT = 1e-2
TOL_LINEAR = 1e-4


def engine_fn(build):
    """Lift a graph builder into grad_check's (loss, grads) interface."""

    def f(params):
        tensors = [Tensor(np.asarray(p, dtype=np.float64), requires_grad=True) for p in params]
        loss = build(tensors)
        loss.backward()
        return float(loss.data), [
            t.grad if t.grad is not None else np.zeros_like(t.data) for t in tensors
        ]

    return f


def _mlp_params(rng, dims, w_scale=0.5, b_scale=0.1) -> list[np.ndarray]:
    """Flat (weight, bias) arrays of a random MLP with layer sizes ``dims``."""
    return [p for a, b in zip(dims[:-1], dims[1:])
            for p in (rng.normal(scale=w_scale, size=(a, b)), rng.normal(scale=b_scale, size=b))]


def _check_mlp(seed, dims, rows, loss, tol, **scales) -> GradReport:
    """``ops.mlp`` over random inputs, with ``loss(output, gt)``."""
    rng = np.random.default_rng(seed)
    params = _mlp_params(rng, dims, **scales)
    x = rng.normal(size=(rows, dims[0]))
    gt = rng.normal(size=(rows, dims[-1]))

    def build(ts):
        return loss(ops.mlp(list(zip(ts[0::2], ts[1::2])), Tensor(x)), gt)

    return grad_check(engine_fn(build), params, tol, seed=seed)


def _check_clear_of_kinks(name, build, params, net_inputs, seed) -> GradReport:
    """``grad_check`` of ``build``, failing if any evaluation flips a ReLU
    of the MLPs that ``net_inputs(arrays)`` pairs with their inputs: then
    a kink lies within FD reach of the point checked."""

    def signs(arrays):
        return np.concatenate([a.ravel() > 0 for net, x in net_inputs(arrays)
                               for a in deform.mlp_activations(net, x)[:-1]])

    base, flips = signs(params), []

    def guarded(ts):
        flips.append(np.count_nonzero(signs([t.data for t in ts]) != base))
        return build(ts)

    report = grad_check(engine_fn(guarded), params, TOL_SMOOTH, seed=seed)
    if any(flips):
        raise ValueError(f"preflight '{name}': a ReLU kink lies within FD reach of its fixture")
    return report


def check_linear(seed: int = 0) -> GradReport:
    return _check_mlp(seed, [5, 4], 7, lambda out, gt: (out * Tensor(gt)).sum(), TOL_LINEAR,
                      w_scale=1.0, b_scale=1.0)


def check_mlp(seed: int = 1) -> GradReport:
    return _check_mlp(seed, [12, 16, 16, 16, 16, 3], 9, losses.loss_l1, TOL_SMOOTH)


def check_mapping_net(seed: int = 2) -> GradReport:
    """Finetune's blend coefficients (``bake.blend_coeffs_graph``) in
    float64: the head and body mapping nets over a frame's expression
    and pose, concatenated head first and flattened. With 8 hidden units
    no ReLU kink lies within FD reach of the point checked."""
    rng = np.random.default_rng(seed)
    frame = FrameInput(theta=rng.normal(size=6), epsilon=rng.normal(size=4), root=np.eye(4))
    params = [*_mlp_params(rng, [4, 8, 3]), *_mlp_params(rng, [6, 8, 5])]
    g_out = rng.normal(size=8)

    def nets(arrays):  # the head and body layers of [*head, *body]
        return [list(zip(arrays[i:i + 4:2], arrays[i + 1:i + 4:2])) for i in (0, 4)]

    def build(ts):
        maph, mapb = nets(ts)
        return (blend_coeffs_graph({"maph": maph, "mapb": mapb}, frame) * Tensor(g_out)).sum()

    inputs = (frame.epsilon[None], frame.theta[None])
    return _check_clear_of_kinks("mapping_net", build, params, lambda arrays: zip(nets(arrays), inputs), seed)


def check_blend_shapes(seed: int = 3) -> GradReport:
    """``ops.blend_shapes``, whose forward is the runtime's
    ``deform.blend_shape_apply``."""
    rng = np.random.default_rng(seed)
    G, n = 11, 6
    shapes = rng.normal(size=(G, 3, n))
    coeffs = rng.normal(size=n)
    gt = rng.normal(size=(G, 3))

    def build(ts):
        return losses.loss_l1(ops.blend_shapes(ts[0], ts[1]), gt)

    return grad_check(engine_fn(build), [shapes, coeffs], TOL_SMOOTH, seed=seed)


def check_dssim(seed: int = 4) -> GradReport:
    """D-SSIM through its occupied window: 20 x 20 content at (4, 4) of a
    36 x 36 zero frame. The window, the content widened by 2r = 10 px, is
    clipped to the frame at the top and left and ends 2 px short of its
    bottom and right, so the checked coordinates fall on the content, on
    the zero band the window blurs and outside the window."""
    rng = np.random.default_rng(seed)
    pred, gt = np.zeros((2, 36, 36, 3))
    pred[4:24, 4:24] = rng.random((20, 20, 3))
    gt[4:24, 4:24] = rng.random((20, 20, 3))

    def build(ts):
        return losses.loss_dssim(ts[0], gt)

    return grad_check(engine_fn(build), [pred], TOL_SMOOTH, seed=seed, max_coords=48)


def check_nonrigid(seed: int = 5) -> GradReport:
    """Map loss through the canonical rasterization on a small sheet."""
    rng = np.random.default_rng(seed)
    side = 5
    xs, zs = np.meshgrid(np.linspace(-1, 1, side), np.linspace(0, 2, side))
    verts = np.stack([xs.ravel(), np.zeros(side * side), zs.ravel()], axis=1)
    faces = []
    for r in range(side - 1):
        for c in range(side - 1):
            a = r * side + c
            faces.append([a, a + 1, a + side])
            faces.append([a + 1, a + side + 1, a + side])
    faces = np.asarray(faces, dtype=np.uint32)
    front, back, bounds = meshraster.map_caches(verts, faces, 16)
    delta = rng.normal(scale=0.01, size=(side * side, 3))
    # keep |student - teacher| well above the FD step so the L1 kink
    # never sits inside the central-difference interval
    teacher_delta = delta + 0.05 + rng.normal(scale=0.005, size=delta.shape)
    dmap = meshraster.apply_map_caches(front, back, bounds, teacher_delta)

    def build(ts):
        mf = ops.mesh_map_apply(ts[0], front)
        mb = ops.mesh_map_apply(ts[0], back)
        return losses.loss_nonrigid(mf, mb, dmap)

    return grad_check(engine_fn(build), [delta], TOL_SMOOTH, seed=seed)


def _three_gaussian_scene(seed: int = 6):
    rng = np.random.default_rng(seed)
    means = np.array([[0.0, 0.0, 0.0], [0.15, 2.0, 0.1], [-0.1, -1.0, -0.05]])
    rots = np.tile(np.eye(3), (3, 1, 1))
    scales = np.full((3, 3), 0.25)
    opacity = np.array([0.7, 0.5, 0.6])
    values = rng.random((3, 3))
    cam = perspective_camera((0.0, 4.0, 0.0), (0.0, 0.0, 0.0), (24, 24), focal_px=30.0, near=0.1, far=10.0)
    return means, rots, scales, opacity, values, cam


def check_splat(seed: int = 6) -> GradReport:
    """Finite differences through the tile forward for the contracted
    splat backward channels: values, opacity, and 2D means."""
    means, rots, scales, opacity, values, cam = _three_gaussian_scene(seed)
    proj = project_gaussians(means, rots, scales, cam)
    rng = np.random.default_rng(seed + 1)
    W, H = cam.resolution
    g_out = rng.normal(size=(H, W, values.shape[1] + 1))

    def f(params):
        means2d, op, vals = params
        out, cache = composite(
            means2d, proj.conic, op, vals, proj.depth, proj.radius, W, H, keep_cache=True
        )
        loss = float((out.astype(np.float64) * g_out).sum())
        d_values, d_op, d_means = composite_backward(cache, g_out)
        return loss, [d_means, d_op, d_values]

    return grad_check(f, [proj.means2d, opacity, values], TOL_SPLAT, seed=seed)


def check_projection(seed: int = 7) -> GradReport:
    """World-mean gradients through the projection Jacobian."""
    means, rots, scales, opacity, values, cam = _three_gaussian_scene(seed)
    rng = np.random.default_rng(seed + 1)
    g2d = rng.normal(size=(3, 2))

    def f(params):
        (m,) = params
        proj = project_gaussians(m, rots, scales, cam)
        loss = float((proj.means2d * g2d).sum())
        return loss, [backproject_mean_grads(proj, g2d)]

    return grad_check(f, [means], TOL_SMOOTH, seed=seed)


def check_splat_render(seed: int = 8) -> GradReport:
    """Training's differentiable splat end to end: world means, values and
    opacity through ``ops.splat_render``. The camera is orthographic, so
    the projected covariance does not depend on the mean and no term the
    backward pass holds fixed moves under the finite differences. The
    weights jump to zero at the 3-sigma cutoff; at 16 px/m no pixel center
    lies within 13 FD steps of a cutoff (at 15 px/m some lie on one).
    """
    means, rots, scales, opacity, values, _ = _three_gaussian_scene(seed)
    cam = Camera("ortho-front", (24, 24), np.array([1.5, 1.5, 0.0, 0.0], dtype=np.float32),
                 look_at((0.0, 4.0, 0.0), (0.0, 0.0, 0.0)), near=0.1, far=10.0)
    g_out = np.random.default_rng(seed + 1).normal(size=(24, 24, values.shape[1] + 1))

    def build(ts):
        return (ops.splat_render(ts[0], ts[1], ts[2], cam, rots, scales) * Tensor(g_out)).sum()

    return grad_check(engine_fn(build), [means, values, opacity], TOL_SPLAT, seed=seed)


def check_bind(seed: int = 9) -> GradReport:
    """The runtime's binding (``ops.bind``) through ``deform.pose_frame``
    on a posed rig, in float64, where its held frames are exact: the
    means are read for ``delta``, ``gamma`` and ``du`` at gamma = du = 0,
    and the colours (some past the clip) and opacities for ``sh``, ``dc``
    and ``opacity_logit``, which move no Gaussian."""
    template = assets.make_capsule_rig(3, seed=seed, n_around=8)
    texture = init_texture(template, 1, 1, seed=seed)
    motion = assets.make_swing_motion(template, 1, seed=seed, resolution=(16, 16))
    frame, camera = motion.frames[0], motion.camera_for(0)
    skin = vertex_transforms(template, pose_skeleton(template, frame))[:, :3, :3]
    bary = ops.bary_matrix(template, texture)
    rng = np.random.default_rng(seed)
    G = texture.num_gaussians
    point = {"delta": rng.normal(scale=0.02, size=(template.num_vertices, 3)), "gamma": np.zeros(G),
             "du": np.zeros((G, 3)), "sh": rng.normal(scale=0.5, size=texture.sh.shape),
             "dc": rng.normal(scale=0.2, size=(G, 3)), "opacity_logit": rng.normal(size=G)}
    g_out = [rng.normal(size=(G, 3)), rng.normal(size=(G, 3)), rng.normal(size=G)]

    def check(names, reads):
        def build(ts):
            x = {**point, **{name: t.data for name, t in zip(names, ts)}}
            tex = replace(texture, gamma=x["gamma"], sh=x["sh"], opacity_logit=x["opacity_logit"])
            world = deform.pose_frame(template, tex, frame, camera, x["delta"], x["du"], x["dc"]).world
            out = ops.bind(world, skin=skin, bary=bary, **dict(zip(names, ts)))
            return sum((out[i] * Tensor(g_out[i])).sum() for i in reads)

        return grad_check(engine_fn(build), [point[name] for name in names], TOL_SMOOTH, seed=seed)

    a, b = check(("delta", "gamma", "du"), (0,)), check(("sh", "dc", "opacity_logit"), (1, 2))
    return GradReport(max(a.max_rel, b.max_rel), a.checked + b.checked, a.failures + b.failures, TOL_SMOOTH,
                      max(a.max_abs, b.max_abs))


def check_student(seed: int = 11) -> GradReport:
    """Bake's student field (``bake.student_delta_graph``) in float64 on a
    small clothed rig, for the embedding table and both nets (the cloth
    net on the cloth rows). No evaluation may flip a pre-activation's
    sign: with 8 hidden units no ReLU kink lies within FD reach of the
    point checked (with 128 units some do)."""
    template = assets.make_capsule_rig(3, cloth=True, seed=seed, n_around=6)
    frame = assets.make_swing_motion(template, 2, seed=seed, resolution=(16, 16)).frames[1]
    bundle = deform.init_bundle(template, init_texture(template, 1, 1, seed=seed), 2, seed=seed)
    rng = np.random.default_rng(seed)
    dims = [bundle.input_dim, 8, 8, 3]
    params = [rng.normal(scale=0.5, size=bundle.z_table.shape), *_mlp_params(rng, dims), *_mlp_params(rng, dims)]
    g_out = rng.normal(size=(template.num_vertices, 3))

    def nets(arrays):  # the body and cloth layers of [z_table, *body, *cloth]
        return [list(zip(arrays[i:i + 6:2], arrays[i + 1:i + 6:2])) for i in (1, 7)]

    def net_inputs(arrays):  # the cloth net reads the cloth rows only
        x = deform.student_inputs(bundle, template, frame, arrays[0][1])
        body, cloth = nets(arrays)
        return [(body, x), (cloth, x[np.flatnonzero(template.cloth_mask)])]

    def build(ts):
        sb, sc = nets(ts)
        return (student_delta_graph({"z_table": ts[0], "sb": sb, "sc": sc}, template, bundle, frame, 1)
                * Tensor(g_out)).sum()

    return _check_clear_of_kinks("student", build, params, net_inputs, seed)


SUITES = {
    "linear": check_linear,
    "mlp": check_mlp,
    "mapping_net": check_mapping_net,
    "blend_shapes": check_blend_shapes,
    "dssim": check_dssim,
    "nonrigid_loss": check_nonrigid,
    "splat_backward": check_splat,
    "projection": check_projection,
    "splat_render": check_splat_render,
    "bind": check_bind,
    "student": check_student,
}


def run_preflight(names=None) -> dict[str, GradReport]:
    names = names or list(SUITES)
    return {name: SUITES[name]() for name in names}


def preflight_ok(reports: dict[str, GradReport]) -> bool:
    return all(r.ok for r in reports.values())
