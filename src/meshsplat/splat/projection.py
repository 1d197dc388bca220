"""The camera model, and the projection of 3D Gaussians to screen space
(EWA splatting).

``camera_project`` is the one pinhole/orthographic camera model: the
splatter projects Gaussian means through it and the mesh rasterizer
projects vertices through it, so a mesh render and a splat render of
the same surface land on the same pixels.

Covariance: sigma_world = R S^2 R^T is pushed through the camera rotation
and the projection Jacobian. A projected covariance eigenvalue below the
low-pass floor is raised to it, with the eigenvectors kept, so the thin
axis never aliases below a pixel; a covariance whose eigenvalues are
both at or above the floor passes through unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..assets import Camera, ValidationError

EIG_FLOOR = 0.3        # px^2, low-pass clamp on projected covariance
CUTOFF_SIGMA_SQ = 9.0  # 3-sigma footprint cutoff (Mahalanobis^2)


@dataclass
class Projected:
    """Screen-space Gaussians plus everything needed for backward."""

    means2d: np.ndarray    # [N,2] px
    depth: np.ndarray      # [N] camera z (meters)
    conic: np.ndarray      # [N,3] inverse 2D covariance (a, b, c)
    radius: np.ndarray     # [N] px, conservative footprint bound
    jac: np.ndarray        # [N,2,3] d means2d / d means3d (camera frame held fixed)
    visible: np.ndarray    # [N] bool, inside the depth range


def camera_view(camera: Camera) -> dict:
    """``gstexture.local_to_world``'s view argument: the world-space origin
    of a perspective camera, or the forward axis of an orthographic one."""
    if camera.mode != "perspective":
        return {"view_dir": camera.extrinsic[2, :3].astype(np.float32)}
    R = camera.extrinsic[:3, :3].astype(np.float64)
    t = camera.extrinsic[:3, 3].astype(np.float64)
    return {"view_origin": (-R.T @ t).astype(np.float32)}


def _eig_clamp(cov: np.ndarray, floor: float) -> tuple[np.ndarray, np.ndarray]:
    """Raise the eigenvalues of symmetric 2x2 (a,b,c) rows to at least
    ``floor``, keeping the eigenvectors; returns (cov', lam_max).

    With eigenvalues lam1 >= lam2, cov + s (lam1 I - cov) moves lam2 to
    lam2 + s (lam1 - lam2) and keeps lam1. s = clip((floor - lam2) /
    (lam1 - lam2), 0, 1) takes lam2 to the floor, or to lam1 when both
    are below it, and max(floor - lam1, 0) I then lifts both to the
    floor. A row with lam2 >= floor has s = 0 and comes back bit for bit.
    """
    a, b, c = cov[:, 0], cov[:, 1], cov[:, 2]
    mid = 0.5 * (a + c)
    half = np.sqrt(np.maximum(0.25 * (a - c) ** 2 + b * b, 0.0))
    lam1 = mid + half
    lam2 = mid - half
    gap = lam1 - lam2
    s = np.clip((floor - lam2) / np.where(gap > 0.0, gap, 1.0), 0.0, 1.0)
    lift = np.maximum(floor - lam1, 0.0)
    clamped = np.stack([a + s * (lam1 - a) + lift, b - s * b, c + s * (lam1 - c) + lift], axis=1)
    return clamped, np.maximum(lam1, floor)


def camera_project(points: np.ndarray, camera: Camera) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """World points [N,3] through the camera, in float64.

    Returns (camera-frame coordinates [N,3], pixel coordinates [N,2],
    d pixel / d world point [N,2,3]). Perspective divides by the camera
    z (a point at z == 0 is divided by 1e-9 instead); callers cull by
    depth against ``camera.near``.
    """
    Rc = camera.extrinsic[:3, :3].astype(np.float64)
    tc = camera.extrinsic[:3, 3].astype(np.float64)
    x_cam = points.astype(np.float64) @ Rc.T + tc
    z = x_cam[:, 2]
    jac = np.zeros((points.shape[0], 2, 3))
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
        W, H = camera.resolution
        ex, ey = float(camera.params[0]), float(camera.params[1])
        sx, sy = W / ex, H / ey
        px = sx * x_cam[:, 0] + 0.5 * W
        py = sy * x_cam[:, 1] + 0.5 * H
        jac[:, 0, 0] = sx
        jac[:, 1, 1] = sy
    return x_cam, np.stack([px, py], axis=1), jac @ Rc


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

    x_cam, means2d, jac = camera_project(means, camera)
    z = x_cam[:, 2]
    visible = (z > camera.near) & (z < camera.far)

    # world covariance -> screen
    rs = rot_mats.astype(np.float64) * scales.astype(np.float64)[:, None, :]
    cov_w = rs @ np.swapaxes(rs, 1, 2)
    cov2d_full = np.einsum("nab,nbc,ndc->nad", jac, cov_w, jac)
    cov2d = np.stack([cov2d_full[:, 0, 0], cov2d_full[:, 0, 1], cov2d_full[:, 1, 1]], axis=1)
    cov2d, lam_max = _eig_clamp(cov2d, EIG_FLOOR)

    det = cov2d[:, 0] * cov2d[:, 2] - cov2d[:, 1] ** 2
    det = np.where(det <= 1e-12, 1e-12, det)
    conic = np.stack([cov2d[:, 2] / det, -cov2d[:, 1] / det, cov2d[:, 0] / det], axis=1)
    radius = 3.0 * np.sqrt(lam_max)  # lam_max >= EIG_FLOOR

    return Projected(means2d=means2d, depth=z, conic=conic, radius=radius, jac=jac, visible=visible)


def backproject_mean_grads(proj: Projected, d_means2d: np.ndarray) -> np.ndarray:
    """Pull screen-space mean gradients back to world means via the Jacobian."""
    return np.einsum("nab,na->nb", proj.jac, d_means2d.astype(np.float64))
