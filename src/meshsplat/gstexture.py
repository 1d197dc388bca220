"""Gaussian-on-mesh binding math.

Each Gaussian lives in the local frame of its parent triangle: a surface
point from barycentric coordinates, a rotation whose first column is the
triangle normal, and the mean edge length as the unit of scale. Local
attributes are carried to world space by the posed triangle, so Gaussians
follow the mesh rigidly; the fixed local normal [1,0,0] keeps each
Gaussian's thin axis aligned with its triangle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .assets import GaussianTexture, RiggedTemplate, ValidationError, sh_terms
from .rotations import quat_to_matrix

DEGENERATE_AREA = 1e-12  # m^2
THIN_AXIS_SCALE = 0.01  # local thin-axis scale, pre-log

SH_C0 = 0.28209479177387814
SH_C1 = 0.4886025119029199
SH_C2 = (1.0925484305920792, -1.0925484305920792, 0.31539156525252005,
         -1.0925484305920792, 0.5462742152960396)
SH_C3 = (-0.5900435899266435, 2.890611442640554, -0.4570457994644658,
         0.3731763325901154, -0.4570457994644658, 1.445305721320277,
         -0.5900435899266435)


class DegenerateTriangleError(ValidationError):
    def __init__(self, message, indices):
        self.indices = np.atleast_1d(indices)
        super().__init__(f"{message}: triangle indices {self.indices[:16].tolist()}")


def triangle_frames(verts: np.ndarray, faces: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-face (R, e, n) for a (posed) mesh.

    n is the cross-product normal renormalized to unit length; q points
    from v1 toward the midpoint of the opposite edge. Degenerate faces
    (area below threshold, or q parallel to n) raise with their indices.
    """
    tri = verts.astype(np.float64)[faces.astype(np.int64)]  # [F,3,3]
    v1, v2, v3 = tri[:, 0], tri[:, 1], tri[:, 2]
    cross = np.cross(v1 - v2, v3 - v1)
    area = 0.5 * np.linalg.norm(cross, axis=1)
    bad = area <= DEGENERATE_AREA
    if bad.any():
        raise DegenerateTriangleError("degenerate triangle", np.nonzero(bad)[0])
    n = cross / np.linalg.norm(cross, axis=1, keepdims=True)
    mid = 0.5 * (v2 + v3) - v1
    mid_len = np.linalg.norm(mid, axis=1, keepdims=True)
    bad = mid_len[:, 0] < 1e-12
    if bad.any():
        raise DegenerateTriangleError("midpoint direction vanishes", np.nonzero(bad)[0])
    q = mid / mid_len
    align = np.abs(np.einsum("fd,fd->f", n, q))
    bad = align > 0.99
    if bad.any():
        raise DegenerateTriangleError("triangle tangent parallel to normal", np.nonzero(bad)[0])
    R = np.stack([n, q, np.cross(n, q)], axis=2)  # columns
    e = (np.linalg.norm(v1 - v2, axis=1) + np.linalg.norm(v2 - v3, axis=1)
         + np.linalg.norm(v1 - v3, axis=1)) / 3.0
    return R, e, n


def surface_points(verts: np.ndarray, faces: np.ndarray, face_idx: np.ndarray, uv: np.ndarray) -> np.ndarray:
    """Barycentric points on the given faces: u*v1 + v*v2 + (1-u-v)*v3."""
    tri = verts[faces.astype(np.int64)[face_idx.astype(np.int64)]]
    u = uv[:, 0:1]
    v = uv[:, 1:2]
    return u * tri[:, 0] + v * tri[:, 1] + (1.0 - u - v) * tri[:, 2]


def sh_basis(direction: np.ndarray, degree: int) -> np.ndarray:
    """Real SH basis values for unit directions [..,3], degree 0..3."""
    if not 0 <= degree <= 3:
        raise ValueError("sh degree must be in [0,3]")
    x, y, z = direction[..., 0], direction[..., 1], direction[..., 2]
    terms = [np.full_like(x, SH_C0)]
    if degree >= 1:
        terms += [-SH_C1 * y, SH_C1 * z, -SH_C1 * x]
    if degree >= 2:
        xx, yy, zz = x * x, y * y, z * z
        terms += [
            SH_C2[0] * x * y,
            SH_C2[1] * y * z,
            SH_C2[2] * (2.0 * zz - xx - yy),
            SH_C2[3] * x * z,
            SH_C2[4] * (xx - yy),
        ]
    if degree >= 3:
        xx, yy, zz = x * x, y * y, z * z
        terms += [
            SH_C3[0] * y * (3.0 * xx - yy),
            SH_C3[1] * x * y * z,
            SH_C3[2] * y * (4.0 * zz - xx - yy),
            SH_C3[3] * z * (2.0 * zz - 3.0 * xx - 3.0 * yy),
            SH_C3[4] * x * (4.0 * zz - xx - yy),
            SH_C3[5] * z * (xx - yy),
            SH_C3[6] * x * (xx - 3.0 * yy),
        ]
    return np.stack(terms, axis=-1)


def sh_apply(sh: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """SH color from basis values [..,B] (see ``sh_basis``); DC offset
    +0.5, no clamp."""
    return np.einsum("...cb,...b->...c", sh[..., : basis.shape[-1]], basis) + 0.5


@dataclass
class WorldGaussians:
    """World-space Gaussians ready for splatting.

    ``local_to_world`` also keeps the float64 quantities its colors and
    frames were built from, which training holds constant per frame.
    """

    means: np.ndarray      # [G,3]
    rot_mats: np.ndarray   # [G,3,3] world rotation
    scales: np.ndarray     # [G,3] meters, > 0
    opacity: np.ndarray    # [G] in (0,1)
    color: np.ndarray      # [G,3] in [0,1]
    normal: np.ndarray     # [G,3] unit, first column of rot_mats
    semantic: np.ndarray | None = None  # [G,3]
    tri_rot: np.ndarray | None = None   # [G,3,3] f64 parent-triangle frame, column 0 its normal
    sh_basis: np.ndarray | None = None  # [G,B] f64 SH basis along the local view direction

    @property
    def count(self) -> int:
        return self.means.shape[0]


def local_to_world(
    texture: GaussianTexture,
    verts: np.ndarray,
    faces: np.ndarray,
    view_origin: np.ndarray | None = None,
    view_dir: np.ndarray | None = None,
    delta_u: np.ndarray | None = None,
    delta_c: np.ndarray | None = None,
) -> WorldGaussians:
    """Carry local Gaussian attributes to world space via the posed mesh.

    Positions: p + R (gamma * [1,0,0] + delta_u). The world rotation is
    the triangle frame times the local rotation's matrix,
    R @ quat_to_matrix(rotation); scale multiplies by the mean edge
    length, and color is SH evaluated along the local-frame view
    direction plus the optional color residual, clamped to [0,1].
    Exactly one of ``view_origin`` (a world point) or ``view_dir`` (a
    fixed world direction, e.g. for orthographic views) must be given.
    The arrays come out in the precision of ``verts``.
    """
    R_face, e_face, _ = triangle_frames(verts, faces)
    f = texture.face_idx.astype(np.int64)
    R = R_face[f]                       # [G,3,3]
    e = e_face[f]                       # [G]
    p = surface_points(verts.astype(np.float64), faces, texture.face_idx, texture.uv.astype(np.float64))

    offset = np.zeros((texture.num_gaussians, 3))
    offset[:, 0] = texture.gamma
    if delta_u is not None:
        offset = offset + delta_u
    means = p + np.einsum("gab,gb->ga", R, offset)

    rot_mats = R @ quat_to_matrix(texture.rotation)

    scales = e[:, None] * np.exp(texture.log_scale.astype(np.float64))
    opacity = 1.0 / (1.0 + np.exp(-texture.opacity_logit.astype(np.float64)))

    if (view_origin is None) == (view_dir is None):
        raise ValidationError("provide exactly one of view_origin or view_dir")
    if view_origin is not None:
        d = means - np.asarray(view_origin, dtype=np.float64)
        d /= np.linalg.norm(d, axis=1, keepdims=True)
    else:
        d = np.broadcast_to(np.asarray(view_dir, dtype=np.float64), means.shape)
        d = d / np.linalg.norm(d, axis=1, keepdims=True)
    local_dir = np.einsum("gba,gb->ga", R, d)  # R^T d
    basis = sh_basis(local_dir, texture.sh_degree)
    color = sh_apply(texture.sh.astype(np.float64), basis)
    if delta_c is not None:
        color = color + delta_c
    color = np.clip(color, 0.0, 1.0)

    dtype = np.result_type(verts, np.float32)
    return WorldGaussians(
        means=means.astype(dtype),
        rot_mats=rot_mats.astype(dtype),
        scales=scales.astype(dtype),
        opacity=opacity.astype(dtype),
        color=color.astype(dtype),
        normal=rot_mats[:, :, 0].astype(dtype),
        tri_rot=R,
        sh_basis=basis,
    )


def init_texture(
    template: RiggedTemplate,
    k_min: int = 4,
    k_max: int = 6,
    seed: int = 0,
    sh_degree: int = 2,
) -> GaussianTexture:
    """Bind a fresh texture: per triangle, a uniform-random count of
    Gaussians at uniform barycentric positions with neutral attributes
    (mid-gray, half opacity, thin axis along the normal)."""
    if k_min > k_max or k_min < 0:
        raise ValueError("need 0 <= k_min <= k_max")
    rng = np.random.default_rng(seed)
    F = template.num_faces
    counts = rng.integers(k_min, k_max + 1, size=F)
    G = int(counts.sum())
    face_idx = np.repeat(np.arange(F, dtype=np.uint32), counts)

    r1 = rng.random(G)
    r2 = rng.random(G)
    su = np.sqrt(r1)
    uv = np.stack([1.0 - su, su * r2], axis=1).astype(np.float32)

    rot = np.zeros((G, 4), dtype=np.float32)
    rot[:, 0] = 1.0
    log_scale = np.zeros((G, 3), dtype=np.float32)
    log_scale[:, 0] = np.log(THIN_AXIS_SCALE)

    tex = GaussianTexture(
        face_idx=face_idx,
        uv=uv,
        gamma=np.zeros(G, dtype=np.float32),
        rotation=rot,
        log_scale=log_scale,
        opacity_logit=np.zeros(G, dtype=np.float32),
        sh=np.zeros((G, 3, sh_terms(sh_degree)), dtype=np.float32),
        num_faces=F,
        sh_degree=sh_degree,
    )
    tex.validate()
    return tex
