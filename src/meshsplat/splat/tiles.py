"""Tile-based front-to-back alpha compositing of projected Gaussians.

The screen is cut into 16x16 tiles. Gaussians are binned into every tile
their 3-sigma footprint touches, sorted per tile by (depth, index), and
composited per pixel: C = sum_i v_i w_i T_i with T_i = prod_{j<i} (1 - w_j)
and w_i = opacity_i * exp(-0.5 * mahalanobis^2), truncated at 3 sigma and
clamped to 0.999.

Each tile walks its depth list front to back in chunks (``CHUNK``
Gaussians, doubling from one chunk to the next) and carries the per-pixel
transmittance T across them. A chunk evaluates the weights only over the
pixels still alive. After a chunk, pixel p stops once
T_p * max(1, max|v|) <= ``STOP_BOUND``: anything composited behind it
adds at most max|v| * T_p to a channel and T_p to alpha, so every channel
stays within ``STOP_BOUND`` of the full composite whatever its scale
(the depth channel is near 3). A tile ends when no pixel is alive or its
list runs out. Until a pixel stops, its sum is the dense per-pixel
composite over the same order: tiling prunes only zero contributions,
and the carried T is the dense running product bit for bit.

The cache keeps each chunk's Gaussians, alive pixels, weights and
exclusive transmittance. The backward pass walks a tile's chunks back to
front, carrying each pixel's suffix sum over the later chunks, and emits
the exact gradient of the truncated forward for per-Gaussian channel
values, opacities, and 2D means (the weight exponent path); the 2D
covariance is held fixed.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .projection import CUTOFF_SIGMA_SQ

TILE = 16
W_MAX = 0.999
STOP_BOUND = 1e-8  # below half a float32 ulp at 1.0
CHUNK = 256        # Gaussians in a tile's first chunk; each later chunk doubles


@dataclass
class TileCache:
    """Everything backward needs; one entry per non-empty tile."""

    width: int
    height: int
    n_values: int
    tiles: list        # (x0, y0, chunks) per tile, front to back
                       # chunk: (ids [n], alive px [m], w [n, m], t_excl [n, m])


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
    v_max = np.abs(val64).max(initial=1.0)

    def run_tile(k):
        t = int(tile_of[starts[k]])
        ty, tx = divmod(t, ntx)
        px, w_px, h_px = _tile_pixel_centers(tx * TILE, ty * TILE, width, height)
        trans = np.ones(px.shape[1])
        acc = np.zeros((n_values + 1, px.shape[1]))
        alive = np.arange(px.shape[1])
        chunks = []
        s, size = starts[k], CHUNK
        while s < ends[k] and alive.size:
            ids = gauss_of[s : min(s + size, ends[k])]
            s, size = s + size, 2 * size
            w = _weights(means64[ids], conic64[ids], op64[ids], px[:, alive])
            # the carried T heads the running product, which then rounds
            # exactly as one product over the whole list would
            run = np.cumprod(np.concatenate([trans[alive][None], 1.0 - w]), axis=0)
            t_excl = run[:-1]
            contrib = w * t_excl  # [n, alive]
            acc[:n_values, alive] += val64[ids].T @ contrib
            acc[n_values, alive] += contrib.sum(axis=0)
            trans[alive] = run[-1]
            if keep_cache:
                chunks.append((ids, alive, w, t_excl))
            alive = alive[run[-1] * v_max > STOP_BOUND]
        out[ty * TILE : ty * TILE + h_px, tx * TILE : tx * TILE + w_px] = (
            acc.reshape(n_values + 1, h_px, w_px).transpose(1, 2, 0)
        )
        return (tx * TILE, ty * TILE, chunks) if keep_cache else None

    idxs = range(len(starts))
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as ex:
            results = list(ex.map(run_tile, idxs))
    else:
        results = [run_tile(k) for k in idxs]
    if keep_cache:
        cache.tiles = results
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

    ``d_out`` is [H, W, C+1] including the alpha channel. Covariance, the
    compositing order and the pixels' stopping points are treated as
    constants.
    """
    n = values.shape[0]
    d_values = np.zeros((n, values.shape[1] + 1))  # alpha column appended, dropped at the end
    d_opacity = np.zeros(n)
    d_means = np.zeros((n, 2))

    means64 = means2d.astype(np.float64)
    conic64 = conic.astype(np.float64)
    op64 = np.maximum(opacity.astype(np.float64), 1e-12)
    val_ext = np.concatenate([values.astype(np.float64), np.ones((n, 1))], axis=1)

    for (x0, y0, chunks) in cache.tiles:
        px, w_px, h_px = _tile_pixel_centers(x0, y0, cache.width, cache.height)
        g_tile = (
            d_out[y0 : y0 + h_px, x0 : x0 + w_px]
            .astype(np.float64)
            .transpose(2, 0, 1)
            .reshape(cache.n_values + 1, -1)
        )  # [C+1, npx]
        later = np.zeros(px.shape[1])  # per pixel: sum of contrib * p over later chunks
        for ids, alive, w, t_excl in reversed(chunks):
            g = g_tile[:, alive]
            contrib = w * t_excl

            # channel-value gradients: dL/dv_ic = sum_px g_c * contrib_i
            d_values[ids] += contrib @ g.T

            # weight gradients: dL/dw_i = P_i T_i - S_i / (1 - w_i), S_i the
            # strict suffix sum of contrib * P; the later chunks' sum heads
            # the running sum, which then rounds as one over the whole list
            p = val_ext[ids] @ g  # [n_i, alive]
            m = contrib * p
            run = np.cumsum(np.concatenate([later[alive][None], m[::-1]]), axis=0)
            later[alive] = run[-1]
            d_w = p * t_excl - (run[:0:-1] - m) / (1.0 - w)
            d_w[w >= W_MAX] = 0.0  # clamp boundary
            d_w[w == 0.0] = 0.0

            d_opacity[ids] += (d_w * (w / op64[ids][:, None])).sum(axis=1)

            dx = px[0, alive][None, :] - means64[ids, 0:1]
            dy = px[1, alive][None, :] - means64[ids, 1:2]
            gx = conic64[ids, 0:1] * dx + conic64[ids, 1:2] * dy
            gy = conic64[ids, 1:2] * dx + conic64[ids, 2:3] * dy
            dww = d_w * w
            d_means[ids, 0] += (dww * gx).sum(axis=1)
            d_means[ids, 1] += (dww * gy).sum(axis=1)

    return d_values[:, :-1], d_values[:, -1], d_opacity, d_means
