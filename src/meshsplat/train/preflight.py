"""Pre-training gradient validation.

Every trainable path is finite-difference checked on small fixtures
before training is allowed: plain linear layers, the deformation MLPs,
mapping nets, blend shapes, D-SSIM, the non-rigid map loss, the splat
backward (color / opacity / 2D mean), the projection Jacobian, and
training's differentiable splat end to end (``ops.splat_render``).
Smooth paths must agree to 1e-3 relative, the splat paths to 1e-2.
"""

from __future__ import annotations

import numpy as np

from ..assets import Camera, look_at, perspective_camera
from ..splat import backproject_mean_grads, composite, composite_backward, meshraster, project_gaussians
from . import losses, ops
from .engine import Tensor, mlp_apply
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


def check_linear(seed: int = 0) -> GradReport:
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(7, 5))
    w = rng.normal(size=(5, 4))
    b = rng.normal(size=4)
    gt = rng.normal(size=(7, 4))

    def build(ts):
        return ((Tensor(x) @ ts[0] + ts[1]) - Tensor(gt)).square().sum()

    return grad_check(engine_fn(build), [w, b], TOL_LINEAR, seed=seed)


def check_mlp(seed: int = 1) -> GradReport:
    rng = np.random.default_rng(seed)
    dims = [12, 16, 16, 16, 16, 3]
    params = []
    for i in range(len(dims) - 1):
        params.append(rng.normal(scale=0.5, size=(dims[i], dims[i + 1])))
        params.append(rng.normal(scale=0.1, size=dims[i + 1]))
    x = rng.normal(size=(9, dims[0]))
    gt = rng.normal(size=(9, 3))

    def build(ts):
        layers = [(ts[2 * i], ts[2 * i + 1]) for i in range(len(dims) - 1)]
        return (mlp_apply(layers, Tensor(x)) - Tensor(gt)).abs().mean()

    return grad_check(engine_fn(build), params, TOL_SMOOTH, seed=seed)


def check_mapping_net(seed: int = 2) -> GradReport:
    rng = np.random.default_rng(seed)
    dims = [10, 24, 8]
    params = [rng.normal(scale=0.5, size=(dims[0], dims[1])), rng.normal(scale=0.1, size=dims[1]),
              rng.normal(scale=0.5, size=(dims[1], dims[2])), rng.normal(scale=0.1, size=dims[2])]
    x = rng.normal(size=(4, dims[0]))
    gt = rng.normal(size=(4, dims[2]))

    def build(ts):
        layers = [(ts[0], ts[1]), (ts[2], ts[3])]
        return (mlp_apply(layers, Tensor(x)) - Tensor(gt)).square().sum()

    return grad_check(engine_fn(build), params, TOL_SMOOTH, seed=seed)


def check_blend_shapes(seed: int = 3) -> GradReport:
    rng = np.random.default_rng(seed)
    G, n = 11, 6
    shapes = rng.normal(size=(G, 3, n))
    coeffs = rng.normal(size=n)
    gt = rng.normal(size=(G, 3))

    def build(ts):
        du = (ts[0] * ts[1].broadcast_to((G, 3, n))).sum(axis=2)
        return (du - Tensor(gt)).abs().mean()

    return grad_check(engine_fn(build), [shapes, coeffs], TOL_SMOOTH, seed=seed)


def check_dssim(seed: int = 4) -> GradReport:
    rng = np.random.default_rng(seed)
    pred = rng.random((20, 20, 3))
    gt = rng.random((20, 20, 3))

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
}


def run_preflight(names=None) -> dict[str, GradReport]:
    names = names or list(SUITES)
    return {name: SUITES[name]() for name in names}


def preflight_ok(reports: dict[str, GradReport]) -> bool:
    return all(r.ok for r in reports.values())
