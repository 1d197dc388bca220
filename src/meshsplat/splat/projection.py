"""Camera projection of 3D Gaussians to screen space (EWA splatting).

Covariance: sigma_world = R S^2 R^T is pushed through the camera rotation
and the projection Jacobian; projected covariance eigenvalues are
clamped to a low-pass floor so the thin axis never aliases below a pixel.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..assets import Camera, ValidationError

EIG_FLOOR = 0.3        # px^2, low-pass clamp on projected covariance
CUTOFF_SIGMA_SQ = 9.0  # 3-sigma footprint cutoff (Mahalanobis^2)
RADIUS_FLOOR = 0.3     # px, dilation floor on the binning radius


@dataclass
class Projected:
    """Screen-space Gaussians plus everything needed for backward."""

    means2d: np.ndarray    # [N,2] px
    depth: np.ndarray      # [N] camera z (meters)
    conic: np.ndarray      # [N,3] inverse 2D covariance (a, b, c)
    radius: np.ndarray     # [N] px, conservative footprint bound
    jac: np.ndarray        # [N,2,3] d means2d / d means3d (camera frame held fixed)
    visible: np.ndarray    # [N] bool, inside the depth range
    cov2d: np.ndarray      # [N,3] clamped 2D covariance (a, b, c)


def camera_center(camera: Camera) -> np.ndarray:
    """World-space camera origin (perspective) or a point on the view axis."""
    R = camera.extrinsic[:3, :3].astype(np.float64)
    t = camera.extrinsic[:3, 3].astype(np.float64)
    return (-R.T @ t).astype(np.float32)


def view_direction(camera: Camera) -> np.ndarray:
    """World-space forward axis of the camera."""
    return camera.extrinsic[2, :3].astype(np.float32)


def _eig_clamp(cov: np.ndarray, floor: float) -> tuple[np.ndarray, np.ndarray]:
    """Clamp eigenvalues of symmetric 2x2 (a,b,c) rows; returns (cov', lam_max)."""
    a, b, c = cov[:, 0], cov[:, 1], cov[:, 2]
    mid = 0.5 * (a + c)
    half = np.sqrt(np.maximum(0.25 * (a - c) ** 2 + b * b, 0.0))
    lam1 = mid + half
    lam2 = mid - half
    l1 = np.maximum(lam1, floor)
    l2 = np.maximum(lam2, floor)
    t = 0.5 * np.arctan2(2.0 * b, a - c)
    ct, st = np.cos(t), np.sin(t)
    a2 = ct * ct * l1 + st * st * l2
    c2 = st * st * l1 + ct * ct * l2
    b2 = ct * st * (l1 - l2)
    return np.stack([a2, b2, c2], axis=1), l1


def project_gaussians(
    means: np.ndarray,
    rot_mats: np.ndarray,
    scales: np.ndarray,
    camera: Camera,
) -> Projected:
    """Project world Gaussians through a perspective or orthographic camera."""
    camera.validate()
    if not (np.isfinite(means).all() and np.isfinite(scales).all()):
        bad = np.nonzero(~(np.isfinite(means).all(axis=1) & np.isfinite(scales).all(axis=1)))[0]
        raise ValidationError(f"non-finite Gaussian inputs at indices {bad[:16].tolist()}")

    W, H = camera.resolution
    Rc = camera.extrinsic[:3, :3].astype(np.float64)
    tc = camera.extrinsic[:3, 3].astype(np.float64)
    x_cam = means.astype(np.float64) @ Rc.T + tc
    z = x_cam[:, 2]
    visible = (z > camera.near) & (z < camera.far)

    n = means.shape[0]
    jac = np.zeros((n, 2, 3))
    if camera.mode == "perspective":
        fx, fy, cx, cy = (float(v) for v in camera.params)
        zs = np.where(z == 0.0, 1e-9, z)
        px = fx * x_cam[:, 0] / zs + cx
        py = fy * x_cam[:, 1] / zs + cy
        jac[:, 0, 0] = fx / zs
        jac[:, 0, 2] = -fx * x_cam[:, 0] / (zs * zs)
        jac[:, 1, 1] = fy / zs
        jac[:, 1, 2] = -fy * x_cam[:, 1] / (zs * zs)
    else:
        ex, ey = float(camera.params[0]), float(camera.params[1])
        sx, sy = W / ex, H / ey
        px = sx * x_cam[:, 0] + 0.5 * W
        py = sy * x_cam[:, 1] + 0.5 * H
        jac[:, 0, 0] = sx
        jac[:, 1, 1] = sy
    means2d = np.stack([px, py], axis=1)

    # world covariance -> camera -> screen
    rs = rot_mats.astype(np.float64) * scales.astype(np.float64)[:, None, :]
    cov_w = rs @ np.swapaxes(rs, 1, 2)
    # full Jacobian in the camera frame
    cov2d_full = np.einsum("nab,nbc,ndc->nad", jac @ Rc, cov_w, jac @ Rc)
    cov2d = np.stack([cov2d_full[:, 0, 0], cov2d_full[:, 0, 1], cov2d_full[:, 1, 1]], axis=1)
    cov2d, lam_max = _eig_clamp(cov2d, EIG_FLOOR)

    det = cov2d[:, 0] * cov2d[:, 2] - cov2d[:, 1] ** 2
    det = np.where(det <= 1e-12, 1e-12, det)
    conic = np.stack([cov2d[:, 2] / det, -cov2d[:, 1] / det, cov2d[:, 0] / det], axis=1)
    radius = np.maximum(3.0 * np.sqrt(np.maximum(lam_max, 0.0)), RADIUS_FLOOR)

    return Projected(
        means2d=means2d,
        depth=z,
        conic=conic,
        radius=radius,
        jac=jac @ Rc,  # directly d(px)/d(world mean)
        visible=visible,
        cov2d=cov2d,
    )


def backproject_mean_grads(proj: Projected, d_means2d: np.ndarray) -> np.ndarray:
    """Pull screen-space mean gradients back to world means via the Jacobian."""
    return np.einsum("nab,na->nb", proj.jac, d_means2d.astype(np.float64))
