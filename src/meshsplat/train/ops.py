"""Custom differentiable ops bridging the autodiff engine to the
rasterizers, plus semantic label construction.

Per-step linearization: triangle rotations, normals, projection
Jacobians, compositing order, and 2D covariances are computed once from
a plain forward pass and treated as constants inside the graph; only the
contracted gradient paths (channel values, opacities, means through the
weight exponent, and linear raster weights) flow.
"""

from __future__ import annotations

import numpy as np
from scipy.ndimage import correlate1d

from ..assets import Camera, GaussianTexture, RiggedTemplate
from ..splat import backproject_mean_grads, composite_backward, meshraster, splat_forward
from .engine import Function, Tensor


class PointsAffine(Function):
    """y_i = A_i[:, :3] x_i + A_i[:, 3] with constant per-point matrices."""

    def forward(self, x, mats=None):
        self.lin = mats[:, :3, :3]
        return (np.einsum("vab,vb->va", self.lin, x) + mats[:, :3, 3]).astype(x.dtype)

    def backward(self, g):
        return (np.einsum("vab,va->vb", self.lin, g).astype(g.dtype),)


def points_affine(x: Tensor, mats: np.ndarray) -> Tensor:
    return PointsAffine.apply(x, mats=mats)


class RotateRows(Function):
    """y_i = R_i x_i with constant per-row rotations."""

    def forward(self, x, rots=None):
        self.rots = rots
        return np.einsum("gab,gb->ga", rots, x).astype(x.dtype)

    def backward(self, g):
        return (np.einsum("gab,ga->gb", self.rots, g).astype(g.dtype),)


def rotate_rows(x: Tensor, rots: np.ndarray) -> Tensor:
    return RotateRows.apply(x, rots=rots)


class MeshMapApply(Function):
    """Linear rasterization of per-vertex attributes through a fixed
    pixel-to-triangle cache."""

    def forward(self, attrs, cache=None):
        self.cache = cache
        img, _ = cache.apply(attrs)
        return img.astype(attrs.dtype)

    def backward(self, g):
        return (self.cache.backward(g).astype(g.dtype),)


def mesh_map_apply(attrs: Tensor, cache: meshraster.RasterCache) -> Tensor:
    return MeshMapApply.apply(attrs, cache=cache)


class ConvGaussianSame(Function):
    """Depthwise separable blur, zero-padded 'same'. The kernel is
    symmetric, so backward is the same blur of the upstream gradient."""

    def forward(self, img, kernel=None):
        self.kernel = kernel
        return self._blur(img, kernel)

    @staticmethod
    def _blur(img, kernel):
        out = correlate1d(img, kernel, axis=0, mode="constant", cval=0.0)
        return correlate1d(out, kernel, axis=1, mode="constant", cval=0.0)

    def backward(self, g):
        return (self._blur(g, self.kernel),)


def conv_gaussian(img: Tensor, kernel: np.ndarray) -> Tensor:
    return ConvGaussianSame.apply(img, kernel=np.asarray(kernel, dtype=img.data.dtype))


class SplatRender(Function):
    """Differentiable splat of (means3d, values, opacity) -> [H, W, C+1].

    The forward pass is the renderer's ``splat_forward`` in exact depth
    order; the last output channel is alpha. Rotations and scales fix the
    footprint (no covariance gradient); mean gradients flow through the
    weight exponent and return to 3D via ``backproject_mean_grads``.
    """

    def forward(self, means3d, values, opacity, camera=None, rot_mats=None, scales=None, threads=1):
        out, self.proj, self.idx, self.cache = splat_forward(
            means3d, rot_mats, scales, opacity, values, camera, threads=threads, keep_cache=True)
        return out.astype(means3d.dtype)

    def backward(self, g):
        d_values, d_opacity, d_means2d = composite_backward(self.cache, g)
        n = self.proj.means2d.shape[0]
        d2d = np.zeros((n, 2))
        gv = np.zeros((n, d_values.shape[1]), dtype=g.dtype)
        go = np.zeros(n, dtype=g.dtype)
        d2d[self.idx] = d_means2d
        gv[self.idx] = d_values
        go[self.idx] = d_opacity
        return backproject_mean_grads(self.proj, d2d).astype(g.dtype), gv, go


def splat_render(
    means3d: Tensor,
    values: Tensor,
    opacity: Tensor,
    camera: Camera,
    rot_mats: np.ndarray,
    scales: np.ndarray,
    threads: int = 1,
) -> Tensor:
    return SplatRender.apply(
        means3d, values, opacity, camera=camera, rot_mats=rot_mats, scales=scales, threads=threads,
    )


def bary_points(posed: Tensor, faces: np.ndarray, face_idx: np.ndarray, uv: np.ndarray) -> Tensor:
    """Differentiable barycentric surface points on the posed mesh."""
    tri = faces.astype(np.int64)[face_idx.astype(np.int64)]
    dtype = posed.data.dtype
    u = uv[:, 0:1].astype(dtype)
    v = uv[:, 1:2].astype(dtype)
    w = (1.0 - uv[:, 0:1] - uv[:, 1:2]).astype(dtype)
    return posed[tri[:, 0]] * u + posed[tri[:, 1]] * v + posed[tri[:, 2]] * w


# ---------------------------------------------------------------------------
# semantic labels


def semantic_label(template: RiggedTemplate, tau: float) -> np.ndarray:
    """Per-vertex label e = seg_color + sin(tau * position), componentwise."""
    if tau <= 0:
        raise ValueError("tau must be positive")
    return (template.seg_colors.astype(np.float64)
            + np.sin(tau * template.vertices.astype(np.float64))).astype(np.float32)


def gaussian_semantic(template: RiggedTemplate, texture: GaussianTexture, tau: float) -> np.ndarray:
    """Semantic label per Gaussian: barycentric blend of its parent
    triangle's vertex labels."""
    labels = semantic_label(template, tau)
    tri = template.faces.astype(np.int64)[texture.face_idx.astype(np.int64)]
    u = texture.uv[:, 0:1]
    v = texture.uv[:, 1:2]
    w = 1.0 - u - v
    return (labels[tri[:, 0]] * u + labels[tri[:, 1]] * v + labels[tri[:, 2]] * w).astype(np.float32)
