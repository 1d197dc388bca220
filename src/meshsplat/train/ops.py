"""Differentiable ops over the runtime's own forward code: the student
MLP and its inputs, blend shapes, the binding, and the mesh-map and
splat rasterizers; the loss ops, masked absolute error and D-SSIM; and
semantic label construction.

Each op's forward is the runtime's; its backward is written by hand.
The MLP's backward chains the layers' linear maps and ReLU masks
through the forward's activations. Triangle frames, the SH basis and view
direction, projection Jacobians, compositing order, and 2D covariances
come from the forward and are constants inside the graph; only the
contracted gradient paths (the binding's linear map, channel values,
opacities, means through the weight exponent, and linear raster
weights) flow.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse
from scipy.ndimage import correlate1d

from .. import deform
from ..assets import Camera, FrameInput, GaussianTexture, RiggedTemplate
from ..gstexture import WorldGaussians, surface_points
from ..splat import backproject_mean_grads, composite_backward, meshraster, splat_forward
from .engine import Function, Tensor


class MeshMapApply(Function):
    """Linear rasterization of per-vertex attributes through a fixed
    pixel-to-triangle cache."""

    def forward(self, attrs, cache=None):
        self.cache = cache
        return cache.apply(attrs)[0]

    def backward(self, g):
        return (self.cache.backward(g),)


def mesh_map_apply(attrs: Tensor, cache: meshraster.RasterCache) -> Tensor:
    return MeshMapApply.apply(attrs, cache=cache)


class SplatRender(Function):
    """Differentiable splat of (means3d, values, opacity) -> [H, W, C+1].

    The forward pass is the renderer's ``splat_forward`` in exact depth
    order; the last output channel is alpha. Rotations and scales fix the
    footprint (no covariance gradient); mean gradients flow through the
    weight exponent and return to 3D via ``backproject_mean_grads``.
    """

    def forward(self, means3d, values, opacity, camera=None, rot_mats=None, scales=None):
        out, self.proj, self.idx, self.cache = splat_forward(
            means3d, rot_mats, scales, opacity, values, camera, keep_cache=True)
        return out.astype(means3d.dtype)

    def backward(self, g):
        d_values, d_opacity, d_means2d = composite_backward(self.cache, g)
        n = self.proj.means2d.shape[0]
        d2d = np.zeros((n, 2))
        gv = np.zeros((n, d_values.shape[1]))
        go = np.zeros(n)
        d2d[self.idx] = d_means2d
        gv[self.idx] = d_values
        go[self.idx] = d_opacity
        return backproject_mean_grads(self.proj, d2d), gv, go


def splat_render(
    means3d: Tensor,
    values: Tensor,
    opacity: Tensor,
    camera: Camera,
    rot_mats: np.ndarray,
    scales: np.ndarray,
) -> Tensor:
    return SplatRender.apply(means3d, values, opacity, camera=camera, rot_mats=rot_mats, scales=scales)


class AbsErrorSum(Function):
    """sum(|x - y| * mask) against the fixed array ``y`` (taken in ``x``'s
    dtype); the optional boolean ``mask`` broadcasts against ``x``. The
    backward is g * mask * sign(x - y)."""

    def forward(self, x, y=None, mask=None):
        diff = x - y.astype(x.dtype, copy=False)
        self.sign, self.mask = np.sign(diff), mask
        err = np.abs(diff)
        return np.asarray((err if mask is None else err * mask).sum())

    def backward(self, g):
        grad = g * self.sign
        return (grad if self.mask is None else grad * self.mask,)


class DSSIM(Function):
    """D-SSIM, (1 - mean S) / 2, of ``x`` against the fixed image ``y``:
    S is SSIM (Wang et al., IEEE TIP 2004) over Gaussian windows
    (``kernel`` along both axes, zero-padded 'same'),
    S = A1 A2 / (B1 B2) per pixel, with A1 = 2 mx my + c1,
    B1 = mx² + my² + c1, A2 = 2 sxy + c2 and B2 = sx² + sy² + c2. The
    backward is closed-form through the blurred moments mx = G*x, G*x²
    and G*xy. At x = y, A1 == B1 and A2 == B2 bit for bit, so every term
    of the gradient is exactly 0.

    The blurs run only on the occupied window: the bounding box of the
    pixels where ``x`` or ``y`` is non-zero, widened by 2r (r =
    len(kernel) // 2) and clipped to the image. That is exact. More
    than r from the content every blurred moment is exactly 0, so
    A1 = B1 = c1, A2 = B2 = c2 and S = 1 exactly, and ``d_mu`` is
    exactly 0; more than 2r away the gradient is exactly 0. Inside the
    window each value reads only pixels within 2r of it, where the
    crop's zero padding equals the image's own zeros. The one exception
    is blur(S / A2) and blur(S / B2) within r of the crop's edge, which
    multiply a ``y`` and an ``x`` that are 0 there. The loss is the mean
    of a full-size S that holds 1 outside the window, so its float sum
    is the full-frame sum, and the gradient is scaled by 1/N of the full
    image. Two all-zero images run no blur."""

    def forward(self, x, y=None, kernel=None, c1=None, c2=None):
        self.shape, self.dtype = x.shape, x.dtype
        self.win = _occupied_window(x, y, 2 * (len(kernel) // 2))
        s_full = np.ones(x.shape, x.dtype)
        if self.win is not None:
            self.x, self.y = x, y = x[self.win], y[self.win]
            self.mu_x, self.mu_y = mu_x, mu_y = self._blur(x), self._blur(y)
            sig_x = self._blur(x * x) - mu_x * mu_x
            sig_y = self._blur(y * y) - mu_y * mu_y
            sig_xy = self._blur(x * y) - mu_x * mu_y
            self.a1 = mu_x * mu_y * 2.0 + c1
            self.b1 = mu_x * mu_x + mu_y * mu_y + c1
            self.a2 = sig_xy * 2.0 + c2
            self.b2 = sig_x + sig_y + c2
            s_full[self.win] = self.s = self.a1 * self.a2 / (self.b1 * self.b2)
        return np.asarray((1.0 - s_full.sum() * (1.0 / s_full.size)) * 0.5)

    def _blur(self, img):
        kernel = self.kwargs["kernel"]
        out = correlate1d(img, kernel, axis=0, mode="constant", cval=0.0)
        return correlate1d(out, kernel, axis=1, mode="constant", cval=0.0)

    def backward(self, g):
        grad = np.zeros(self.shape, self.dtype)
        if self.win is not None:
            s, mu_x, mu_y, a2, b2 = self.s, self.mu_x, self.mu_y, self.a2, self.b2
            d_mu = s * 2.0 * ((mu_y / self.a1 - mu_x / self.b1) + (mu_x / b2 - mu_y / a2))
            grad[self.win] = self._blur(d_mu) + (self.y * self._blur(s / a2) - self.x * self._blur(s / b2)) * 2.0
        return (grad * (g * -0.5 * (1.0 / grad.size)),)


def _occupied_window(x, y, margin):
    """The (row, column) slices of the bounding box of the pixels where
    ``x`` or ``y`` is non-zero in any channel, widened by ``margin`` and
    clipped to the image; None where both are all zero."""
    occupied = (x != 0) | (y != 0)
    occupied = occupied.reshape(*occupied.shape[:2], -1).any(axis=2)
    rows, cols = np.flatnonzero(occupied.any(axis=1)), np.flatnonzero(occupied.any(axis=0))
    if rows.size == 0:
        return None
    return (slice(max(rows[0] - margin, 0), rows[-1] + margin + 1),
            slice(max(cols[0] - margin, 0), cols[-1] + margin + 1))


class MLP(Function):
    """``deform.mlp_forward`` over ``x`` and the flat weights and biases."""

    def forward(self, x, *weights):
        self.x = x
        self.layers = list(zip(weights[0::2], weights[1::2]))
        self.acts = deform.mlp_activations(self.layers, x)
        return self.acts[-1]

    def backward(self, g):
        need_x = self.parents[0].requires_grad_path
        grads = []
        for i in reversed(range(len(self.layers))):
            if i != len(self.layers) - 1:
                g = g * (self.acts[i] > 0)
            h = self.acts[i - 1] if i else self.x.astype(self.acts[0].dtype)
            grads[:0] = [h.T @ g, g.sum(axis=0)]
            if i or need_x:
                g = g @ self.layers[i][0].T
        return (g if need_x else None, *grads)


def mlp(layers: list[tuple[Tensor, Tensor]], x: Tensor) -> Tensor:
    return MLP.apply(x, *[t for layer in layers for t in layer])


class StudentInputs(Function):
    """``deform.student_inputs``; the embedding ``z``'s gradient is its
    columns summed over the vertices."""

    def forward(self, z, bundle=None, template=None, frame=None):
        return deform.student_inputs(bundle, template, frame, z)

    def backward(self, g):
        return (g[:, -self.kwargs["bundle"].embed_dim:].sum(axis=0),)


def student_inputs(bundle: deform.StudentBundle, template: RiggedTemplate, frame: FrameInput, z: Tensor) -> Tensor:
    return StudentInputs.apply(z, bundle=bundle, template=template, frame=frame)


class BlendShapes(Function):
    """``deform.blend_shape_apply``, the runtime's blend-shape offsets."""

    def forward(self, shapes, coeffs):
        self.shapes, self.coeffs = shapes, coeffs
        return deform.blend_shape_apply(shapes, coeffs)

    def backward(self, g):
        return g[:, :, None] * self.coeffs, np.einsum("gcn,gc->n", self.shapes, g)


def blend_shapes(shapes: Tensor, coeffs: Tensor) -> Tensor:
    return BlendShapes.apply(shapes, coeffs)


def bary_matrix(template: RiggedTemplate, texture: GaussianTexture) -> sparse.csr_matrix:
    """Sparse [G, V] barycentric weights: times the posed vertices, the
    Gaussians' surface points."""
    tri = template.faces.astype(np.int64)[texture.face_idx.astype(np.int64)]
    u, v = texture.uv.astype(np.float64).T
    return sparse.csr_matrix((np.stack([u, v, 1.0 - u - v], axis=1).ravel(), tri.ravel(),
                              np.arange(0, tri.size + 1, 3)), shape=(len(tri), template.num_vertices))


class Bind(Function):
    """The runtime's binding: the forward is ``world``'s means, colours and
    opacities ([G, 7]) as ``local_to_world`` built them; the backward is
    its linear map with the triangle frames, SH basis and view direction
    held. Each input in ``names`` maps through: ``delta`` [V,3], the
    skinning rotations ``skin`` [V,3,3] then the barycentric weights
    ``bary`` [G,V]; ``gamma`` [G], the triangle normal; ``du`` [G,3], the
    triangle frame; ``sh`` [G,3,B], the SH basis, and ``dc`` [G,3], both
    where the colour is not clipped; ``opacity_logit`` [G], o(1 - o).
    """

    def forward(self, *inputs, world=None, names=(), skin=None, bary=None):
        return np.concatenate([world.means, world.color, world.opacity[:, None]], axis=1)

    def backward(self, g):
        world, skin, bary = (self.kwargs[k] for k in ("world", "skin", "bary"))
        g_means = g[:, 0:3]
        g_color = g[:, 3:6] * ((world.color > 0.0) & (world.color < 1.0))
        grads = {
            "delta": lambda: np.einsum("vab,va->vb", skin, bary.T @ g_means),
            "gamma": lambda: np.einsum("ga,ga->g", world.tri_rot[:, :, 0], g_means),
            "du": lambda: np.einsum("gab,ga->gb", world.tri_rot, g_means),
            "sh": lambda: g_color[:, :, None] * world.sh_basis[:, None, :],
            "dc": lambda: g_color,
            "opacity_logit": lambda: g[:, 6] * world.opacity * (1.0 - world.opacity),
        }
        return tuple(grads[name]() for name in self.kwargs["names"])


def bind(world: WorldGaussians, skin=None, bary=None, **inputs: Tensor) -> tuple[Tensor, Tensor, Tensor]:
    """``world``'s (means, colours, opacities) over the named ``inputs``."""
    out = Bind.apply(*inputs.values(), world=world, names=tuple(inputs), skin=skin, bary=bary)
    return out[:, 0:3], out[:, 3:6], out[:, 6]


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
    return surface_points(labels, template.faces, texture.face_idx, texture.uv).astype(np.float32)
