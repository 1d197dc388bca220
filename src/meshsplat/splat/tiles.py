"""Tile-based front-to-back alpha compositing of projected Gaussians.

The screen is cut into 16x16 tiles. Gaussians are binned into every tile
their 3-sigma footprint touches, sorted per tile by (depth, index), and
composited per pixel: C = sum_i v_i w_i prod_{j<i} (1 - w_j) with
w_i = opacity_i * exp(-0.5 * mahalanobis^2), truncated at 3 sigma and
clamped to 0.999. The per-pixel math is a pure function of the depth
order, so a dense per-pixel compositor over the same order reproduces it
exactly; tiling only prunes zero contributions.

The backward pass consumes cached per-tile weights and emits gradients
for per-Gaussian channel values, opacities, and 2D means (the weight
exponent path); the 2D covariance is held fixed.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .projection import CUTOFF_SIGMA_SQ

TILE = 16
W_MAX = 0.999


@dataclass
class TileCache:
    """Everything backward needs; one entry per non-empty tile."""

    width: int
    height: int
    n_values: int
    tiles: list        # (x0, y0, ids [n], w [n, px]) per tile


def _tile_pixel_centers(x0: int, y0: int, width: int, height: int):
    w = min(TILE, width - x0)
    h = min(TILE, height - y0)
    xs = x0 + 0.5 + np.arange(w)
    ys = y0 + 0.5 + np.arange(h)
    px = np.stack(np.meshgrid(xs, ys), axis=0).reshape(2, -1)  # [2, h*w]
    return px, w, h


def _weights(means2d, conic, opacity, px):
    """w = alpha * exp(power) truncated at the 3-sigma cutoff. [n, npx]."""
    dx = px[0][None, :] - means2d[:, 0:1]
    dy = px[1][None, :] - means2d[:, 1:2]
    power = -0.5 * (conic[:, 0:1] * dx * dx + conic[:, 2:3] * dy * dy) - conic[:, 1:2] * dx * dy
    w = opacity[:, None] * np.exp(power)
    w[power < -0.5 * CUTOFF_SIGMA_SQ] = 0.0
    return np.minimum(w, W_MAX)


def bin_gaussians(means2d, radius, depth, width, height):
    """Depth-sorted (tile -> gaussian) pair lists.

    Returns (tile_of_pair, gauss_of_pair, tile_starts_dict) with pairs
    grouped by tile and ordered front-to-back, ties broken by index.
    """
    ntx = (width + TILE - 1) // TILE
    nty = (height + TILE - 1) // TILE
    x0 = np.clip(np.floor((means2d[:, 0] - radius) / TILE).astype(np.int64), 0, ntx)
    x1 = np.clip(np.floor((means2d[:, 0] + radius) / TILE).astype(np.int64) + 1, 0, ntx)
    y0 = np.clip(np.floor((means2d[:, 1] - radius) / TILE).astype(np.int64), 0, nty)
    y1 = np.clip(np.floor((means2d[:, 1] + radius) / TILE).astype(np.int64) + 1, 0, nty)
    counts = np.maximum(x1 - x0, 0) * np.maximum(y1 - y0, 0)
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, np.int64), np.empty(0, np.int64)
    gauss = np.repeat(np.arange(means2d.shape[0]), counts)
    starts = np.concatenate([[0], np.cumsum(counts)[:-1]])
    within = np.arange(total) - starts[gauss]
    rect_w = np.maximum(x1 - x0, 1)
    dx = within % rect_w[gauss]
    dy = within // rect_w[gauss]
    tile = (y0[gauss] + dy) * ntx + (x0[gauss] + dx)
    order = np.lexsort((gauss, depth[gauss], tile))
    return tile[order], gauss[order]


def composite(
    means2d: np.ndarray,
    conic: np.ndarray,
    opacity: np.ndarray,
    values: np.ndarray,
    depth: np.ndarray,
    radius: np.ndarray,
    width: int,
    height: int,
    keep_cache: bool = False,
    threads: int = 1,
):
    """Rasterize to [H, W, C+1]; the last channel is alpha.

    ``values`` is [N, C] with every channel composited identically;
    ``depth`` is the front-to-back order key (ties go by index). Inputs
    must already be restricted to visible Gaussians.
    """
    n, n_values = values.shape
    out_dtype = np.result_type(means2d.dtype, np.float32)
    out = np.zeros((height, width, n_values + 1), dtype=np.float64)
    cache = TileCache(width, height, n_values, []) if keep_cache else None
    if n == 0:
        return out.astype(out_dtype), cache

    tile_of, gauss_of = bin_gaussians(means2d, radius, depth, width, height)
    if tile_of.size == 0:
        return out.astype(out_dtype), cache
    boundaries = np.flatnonzero(np.diff(tile_of)) + 1
    starts = np.concatenate([[0], boundaries])
    ends = np.concatenate([boundaries, [tile_of.size]])
    ntx = (width + TILE - 1) // TILE

    means64 = means2d.astype(np.float64)
    conic64 = conic.astype(np.float64)
    op64 = opacity.astype(np.float64)
    val64 = values.astype(np.float64)

    def run_tile(k):
        t = int(tile_of[starts[k]])
        ids = gauss_of[starts[k] : ends[k]]
        ty, tx = divmod(t, ntx)
        px, w_px, h_px = _tile_pixel_centers(tx * TILE, ty * TILE, width, height)
        w = _weights(means64[ids], conic64[ids], op64[ids], px)
        trans = np.cumprod(1.0 - w, axis=0)
        t_excl = np.empty_like(trans)
        t_excl[0] = 1.0
        t_excl[1:] = trans[:-1]
        contrib = w * t_excl  # [n, npx]
        tile_out = val64[ids].T @ contrib  # [C, npx]
        alpha = contrib.sum(axis=0)
        block = np.concatenate([tile_out, alpha[None]], axis=0)
        out[ty * TILE : ty * TILE + h_px, tx * TILE : tx * TILE + w_px] = (
            block.reshape(n_values + 1, h_px, w_px).transpose(1, 2, 0)
        )
        if keep_cache:
            return (tx * TILE, ty * TILE, ids, w)
        return None

    idxs = range(len(starts))
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as ex:
            results = list(ex.map(run_tile, idxs))
    else:
        results = [run_tile(k) for k in idxs]
    if keep_cache:
        cache.tiles = [r for r in results if r is not None]
    return out.astype(out_dtype), cache


def composite_backward(
    cache: TileCache,
    means2d: np.ndarray,
    conic: np.ndarray,
    opacity: np.ndarray,
    values: np.ndarray,
    d_out: np.ndarray,
):
    """Gradients of ``composite`` w.r.t. values, opacity, and 2D means.

    ``d_out`` is [H, W, C+1] including the alpha channel. Covariance and
    the compositing order are treated as constants.
    """
    n = values.shape[0]
    d_values = np.zeros((n, values.shape[1] + 1))  # alpha column appended, dropped at the end
    d_opacity = np.zeros(n)
    d_means = np.zeros((n, 2))

    means64 = means2d.astype(np.float64)
    conic64 = conic.astype(np.float64)
    op64 = np.maximum(opacity.astype(np.float64), 1e-12)
    val_ext = np.concatenate([values.astype(np.float64), np.ones((n, 1))], axis=1)

    for (x0, y0, ids, w) in cache.tiles:
        px, w_px, h_px = _tile_pixel_centers(x0, y0, cache.width, cache.height)
        g_tile = (
            d_out[y0 : y0 + h_px, x0 : x0 + w_px]
            .astype(np.float64)
            .transpose(2, 0, 1)
            .reshape(cache.n_values + 1, -1)
        )  # [C+1, npx]
        trans = np.cumprod(1.0 - w, axis=0)
        t_excl = np.empty_like(trans)
        t_excl[0] = 1.0
        t_excl[1:] = trans[:-1]
        contrib = w * t_excl

        # channel-value gradients: dL/dv_ic = sum_px g_c * contrib_i
        d_values[ids] += contrib @ g_tile.T

        # weight gradients: dL/dw_i = P_i T_i - S_i / (1 - w_i)
        p = val_ext[ids] @ g_tile  # [n_i, npx]
        m = contrib * p
        s = np.flip(np.cumsum(np.flip(m, axis=0), axis=0), axis=0) - m  # strict suffix sum
        d_w = p * t_excl - s / (1.0 - w)
        d_w[w >= W_MAX] = 0.0  # clamp boundary
        d_w[w == 0.0] = 0.0

        d_opacity[ids] += (d_w * (w / op64[ids][:, None])).sum(axis=1)

        dx = px[0][None, :] - means64[ids, 0:1]
        dy = px[1][None, :] - means64[ids, 1:2]
        gx = conic64[ids, 0:1] * dx + conic64[ids, 1:2] * dy
        gy = conic64[ids, 1:2] * dx + conic64[ids, 2:3] * dy
        dww = d_w * w
        d_means[ids, 0] += (dww * gx).sum(axis=1)
        d_means[ids, 1] += (dww * gy).sum(axis=1)

    return d_values[:, :-1], d_values[:, -1], d_opacity, d_means
