"""Tile-based software Gaussian splatter and mesh rasterizer.

``projection.camera_project`` is the one camera model; the Gaussian
projection and ``rasterize_mesh_camera`` both call it.
``splat_forward`` is the one splat forward pass: project, cull to the
visible set, order by ``order_key`` (exact f32 or u16-quantized depth)
and composite. ``render`` (color/alpha/normal/depth/semantic channels)
gathers channels and calls it; training's differentiable splat
(``train.ops.SplatRender``) calls it too, and its backward is
``composite_backward`` of the ``TileCache`` the forward kept. Also here:
``sort_keys`` (the visible front-to-back permutation under the same
key), the canonical front/back maps (``map_caches`` rasterizes a mesh
once and ``apply_map_caches`` interpolates a field through that raster),
``rasterize_mesh_camera``, ``relight``, and image IO.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..assets import Camera, ValidationError
from ..gstexture import WorldGaussians
from . import images, meshraster, projection, tiles
from .images import read_pgm, read_ppm, write_pgm, write_png, write_ppm
from .meshraster import RasterCache, apply_map_caches, map_bounds, map_caches, rasterize_mesh_camera
from .projection import Projected, backproject_mean_grads, camera_view, project_gaussians
from .tiles import TILE, composite, composite_backward

CHANNELS = ("color", "normal", "semantic", "depth")
U16_BINS = 65535


@dataclass
class RenderTarget:
    """Composited output channels; absent channels are None."""

    color: np.ndarray | None = None      # [H,W,3]
    alpha: np.ndarray | None = None      # [H,W]
    normal: np.ndarray | None = None     # [H,W,3]
    depth: np.ndarray | None = None      # [H,W]
    semantic: np.ndarray | None = None   # [H,W,3]


def quantized_depth_keys(depth: np.ndarray, near: float, far: float) -> np.ndarray:
    """UInt16 sort keys over [near, far]; one bin is (far-near)/65535."""
    if not near < far:
        raise ValidationError("need near < far")
    k = np.floor((depth - near) / (far - near) * U16_BINS)
    return np.clip(k, 0, U16_BINS).astype(np.uint16)


def order_key(depth: np.ndarray, camera: Camera, mode: str = "exact_f32") -> np.ndarray:
    """Front-to-back compositing key: camera depth rounded to float32
    (``exact_f32``) or quantized to u16 bins over the camera's depth range
    (``quant_u16``, the deployment ordering). Ties are broken by index."""
    if mode == "exact_f32":
        return depth.astype(np.float32)
    if mode == "quant_u16":
        return quantized_depth_keys(depth, camera.near, camera.far)
    raise ValueError(f"unknown sort mode '{mode}'")


def sort_keys(gaussians: WorldGaussians, camera: Camera, mode: str = "exact_f32") -> np.ndarray:
    """Front-to-back permutation of the visible Gaussians: the order
    ``composite`` runs (``tiles.front_to_back`` of ``order_key``).

    Gaussians outside (near, far) are culled from the permutation, not an
    error. Ties (equal depth or equal quantized key) keep index order.
    """
    proj = project_gaussians(gaussians.means, gaussians.rot_mats, gaussians.scales, camera)
    idx = np.nonzero(proj.visible)[0]
    return idx[tiles.front_to_back(order_key(proj.depth[idx], camera, mode))]


def splat_forward(means, rot_mats, scales, opacity, values, camera: Camera,
                  sort_mode: str = "exact_f32", keep_cache: bool = False):
    """The splat forward pass that rendering and training share.

    Projects the world Gaussians, culls them to the visible set, orders
    them by ``order_key`` and composites ``values`` ([N, C], or a function
    from the ``Projected`` to it). Returns (image [H, W, C+1] with alpha
    last, Projected, visible indices, TileCache or None).
    """
    proj = project_gaussians(means, rot_mats, scales, camera)
    idx = np.nonzero(proj.visible)[0]
    if callable(values):
        values = values(proj)
    key = order_key(proj.depth[idx], camera, sort_mode)
    out, cache = composite(proj.means2d[idx], proj.conic[idx], opacity[idx], values[idx], key,
                           proj.radius[idx], *camera.resolution, keep_cache=keep_cache)
    return out, proj, idx, cache


def _gather_values(gaussians: WorldGaussians, channels):
    """The requested channels' per-Gaussian columns as a function of the
    projection (depth is the projected depth), and their column ranges."""
    cols, layout, at = [], {}, 0
    for ch in channels:
        if ch == "alpha":
            continue
        if ch not in CHANNELS:
            raise ValueError(f"unknown channel '{ch}'")
        if ch == "semantic" and gaussians.semantic is None:
            raise ValidationError("semantic channel requested but Gaussians carry no labels")
        cols.append(None if ch == "depth" else getattr(gaussians, ch))
        layout[ch] = (at, at + (1 if ch == "depth" else cols[-1].shape[1]))
        at = layout[ch][1]

    def values(proj: Projected) -> np.ndarray:
        if not cols:
            return np.zeros((proj.depth.size, 0), dtype=np.float32)
        depth = proj.depth[:, None].astype(np.float32)
        return np.concatenate([depth if c is None else c for c in cols], axis=1)

    return values, layout


def render(
    gaussians: WorldGaussians,
    camera: Camera,
    channels=("color", "alpha"),
    sort_mode: str = "exact_f32",
) -> RenderTarget:
    """Splat world Gaussians through the camera into the requested channels.

    Background is transparent black. All channels share one binning and
    compositing pass; ``sort_mode`` selects exact f32 depth ordering or
    the u16-quantized deployment ordering.
    """
    if not np.isfinite(gaussians.opacity).all():
        bad = np.nonzero(~np.isfinite(gaussians.opacity))[0]
        raise ValidationError(f"non-finite opacity at indices {bad[:16].tolist()}")
    values, layout = _gather_values(gaussians, channels)
    out, _, _, _ = splat_forward(gaussians.means, gaussians.rot_mats, gaussians.scales,
                                 gaussians.opacity, values, camera, sort_mode)
    target = RenderTarget(alpha=out[:, :, -1])
    for ch, (a, b) in layout.items():
        block = out[:, :, a:b]
        setattr(target, ch, block[:, :, 0] if b - a == 1 else block)
    return target


def relight(
    color: np.ndarray,
    normal: np.ndarray,
    light_dir,
    light_rgb=(1.0, 1.0, 1.0),
    ambient: float = 0.0,
) -> np.ndarray:
    """Lambertian shading of a rendered image using its normal map.

    out = color * (ambient + light_rgb * max(0, n . l)), clamped to [0,1];
    ``light_dir`` points from the surface toward the light.
    """
    if color.shape[:2] != normal.shape[:2]:
        raise ValidationError("color and normal images must share resolution")
    l = np.asarray(light_dir, dtype=np.float64)
    norm = np.linalg.norm(l)
    if not 0 < norm < np.inf:
        raise ValidationError(f"light direction must be finite and nonzero, got {l.tolist()}")
    l = l / norm
    rgb = np.asarray(light_rgb, dtype=np.float64)
    if not (np.isfinite(rgb).all() and 0 <= ambient < np.inf):
        raise ValidationError("light color must be finite and ambient term finite and >= 0, "
                              f"got {rgb.tolist()} and {ambient}")
    ndotl = np.maximum(normal.astype(np.float64) @ l, 0.0)
    shade = ambient + rgb * ndotl[..., None]
    return np.clip(color.astype(np.float64) * shade, 0.0, 1.0).astype(np.float32)


def write_image(img: np.ndarray, path) -> None:
    """Write an [H, W, 3] image as PNG if ``path`` ends in .png, else as PPM."""
    if str(path).lower().endswith(".png"):
        write_png(img, path)
    else:
        write_ppm(img, path)


__all__ = [
    "RenderTarget", "render", "splat_forward", "order_key", "sort_keys", "quantized_depth_keys",
    "relight", "write_image", "rasterize_mesh_camera", "map_bounds", "map_caches",
    "apply_map_caches", "RasterCache", "Projected", "project_gaussians", "backproject_mean_grads", "camera_view", "composite", "composite_backward",
    "write_ppm", "read_ppm", "write_pgm", "read_pgm", "write_png", "TILE", "U16_BINS",
    "images", "meshraster", "projection", "tiles", "CHANNELS",
]
