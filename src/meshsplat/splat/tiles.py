"""Tile-based front-to-back alpha compositing of projected Gaussians.

The screen is cut into ``TILE`` x ``TILE`` tiles (12 px: a projected
Gaussian covers a small part of a tile, and every entry of a tile's
dense weight block is evaluated, cached and differentiated, so the
tile follows the footprint). ``tile_pairs`` takes the Gaussians in
(depth, index) order, pairs each with the tiles of the box of its
3-sigma ellipse (within the square of half-width ``radius``,
3 sqrt(lambda_max), around its mean), keeps the pairs whose ellipse
reaches the box of their tile's pixel centres (the others would add
only exact zeros), and groups the survivors by tile with one stable
sort, so each tile's list runs front to back. Each tile's list is
composited per pixel:
C = sum_i v_i w_i T_i with T_i = prod_{j<i} (1 - w_j) and
w_i = opacity_i * exp(-0.5 * mahalanobis^2), truncated at 3 sigma and
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

Weights are evaluated in tile-local coordinates. With (u, v) a pixel
centre and (du, dv) a Gaussian's mean, both relative to the tile centre,
the exponent -0.5 * mahalanobis^2 is a quadratic in (u, v): a row of six
per-Gaussian coefficients (``_exponent_coefs``) times the pixel's
monomials [1, u, v, u^2, v^2, uv] (``FEATURES``, one constant for every
full tile), built with each pair's opacity for all pairs before the tile
loop. A chunk's exponents are one [n, 6] @ [6, m] BLAS product of a slice
of those rows, and the cutoff, exp, opacity and clamp run in place on
that buffer. The expansion rounds differently from the direct form by a
few ulps of its constant term, which is at most
0.5 * (3 + (TILE / 2) * sqrt(2 / EIG_FLOOR))^2, about 170, wherever a
weight is non-zero: the weights agree with the direct form to about
1e-13.

The cache keeps the float64 inputs that were composited, and each
chunk's Gaussians, alive pixels, weights w and contributions w * T (the
product the forward composites), so the backward pass needs only the
image gradient. It walks a tile's chunks back to front, carrying each
pixel's suffix sum of w * T * P (P the pixel's gradient dotted with the
Gaussian's values and alpha) over the later chunks, and emits the exact
gradient of the truncated forward for per-Gaussian channel values,
opacities, and 2D means (the weight exponent path); the 2D covariance is
held fixed. With S_i the strict suffix sum behind Gaussian i,
dL/dw_i * w_i = w_i T_i P_i - S_i w_i / (1 - w_i). The opacity and mean
gradients need that only through its moments M over [1, u, v], one
[n, m] @ [m, 3] product: dL/dopacity = M_1 / opacity and
dL/dmean = conic @ ((M_u, M_v) - (du, dv) * M_1).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .projection import CUTOFF_SIGMA_SQ

TILE = 12
W_MAX = 0.999
STOP_BOUND = 1e-8  # below half a float32 ulp at 1.0
CHUNK = 256        # Gaussians in a tile's first chunk; each later chunk doubles


@dataclass
class TileCache:
    """Everything backward needs: the composited Gaussians in float64 and
    one entry per non-empty tile."""

    width: int
    height: int
    means2d: np.ndarray  # [N,2]
    conic: np.ndarray    # [N,3]
    opacity: np.ndarray  # [N]
    values: np.ndarray   # [N,C]
    tiles: list          # (x0, y0, chunks) per tile, front to back
                         # chunk: (ids [n], alive px [m], w [n, m], w * T [n, m])


# Pixel centres of a full tile relative to its centre, (u, v), and the
# monomials [1, u, v, u^2, v^2, uv] of each: the exponent of any Gaussian
# over a tile is one row of coefficients times these columns. An edge
# tile takes the columns of the pixels it has.
_U, _V = np.stack(np.meshgrid(np.arange(TILE), np.arange(TILE))).reshape(2, -1) + 0.5 - TILE / 2
FEATURES = np.stack([np.ones(TILE * TILE), _U, _V, _U * _U, _V * _V, _U * _V])  # [6, TILE^2]


def _tile_features(w_px: int, h_px: int) -> np.ndarray:
    """``FEATURES`` of the pixels of a tile ``w_px`` wide and ``h_px`` high
    (a view for a full tile)."""
    return FEATURES.reshape(6, TILE, TILE)[:, :h_px, :w_px].reshape(6, -1)


def _tile_offsets(means, x0, y0) -> np.ndarray:
    """Means relative to the centre of the tile at (x0, y0), the origin of
    ``FEATURES``'s (u, v); one tile, or one per row. [n, 2]."""
    return means - np.stack([x0 + TILE / 2, y0 + TILE / 2], axis=-1)


def _exponent_coefs(conic, offset):
    """[n, 6] coefficients K with ``K @ FEATURES`` = -0.5 * mahalanobis^2,
    for means at ``offset`` [n, 2] from the tile centre."""
    a, b, c = conic[:, 0], conic[:, 1], conic[:, 2]
    du, dv = offset[:, 0], offset[:, 1]
    return np.stack([-0.5 * (a * du * du + c * dv * dv) - b * du * dv,
                     a * du + b * dv, c * dv + b * du, -0.5 * a, -0.5 * c, -b], axis=1)


def _may_clamp(opacity) -> bool:
    """Whether a weight of these opacities can reach ``W_MAX``: the
    tile-local exponent's exp rounds to at most ~1e-13 above 1."""
    return opacity.max(initial=0.0) * (1.0 + 1e-9) >= W_MAX


def _weights(coefs, opacity, feats):
    """w = opacity * exp(coefs @ feats) truncated at the 3-sigma cutoff and
    clamped to ``W_MAX``. [n, m], built in place on the one exponent buffer."""
    w = coefs @ feats
    inside = w >= -0.5 * CUTOFF_SIGMA_SQ
    np.exp(w, out=w)
    w *= opacity[:, None]
    w *= inside  # a product, not a masked store: same bits, fewer branches
    if _may_clamp(opacity):
        np.minimum(w, W_MAX, out=w)
    return w


def _tile_span(centre, half, n_tiles):
    """[first, last + 1) of the tiles that the interval ``centre`` +-
    ``half`` overlaps on one axis, clipped to [0, n_tiles]."""
    return (np.clip(np.floor((centre - half) / TILE).astype(np.int64), 0, n_tiles),
            np.clip(np.floor((centre + half) / TILE).astype(np.int64) + 1, 0, n_tiles))


def _radius_boxes(means2d, radius, width, height):
    """Per Gaussian, the tile columns [x0, x1) and rows [y0, y1) of the
    square of half-width ``radius`` around its mean."""
    ntx, nty = (width + TILE - 1) // TILE, (height + TILE - 1) // TILE
    return (*_tile_span(means2d[:, 0], radius, ntx), *_tile_span(means2d[:, 1], radius, nty))


def _box_pairs(x0, x1, y0, y1, depth):
    """(tile column, tile row, Gaussian) of every tile of each Gaussian's
    box [x0, x1) x [y0, y1), the Gaussians taken in (depth, index) order.
    [P] each. Each Gaussian is repeated over its rows and each row over
    its columns, so no pair needs a division."""
    front_to_back = np.argsort(depth, kind="stable")
    x0, x1, y0, y1 = (v[front_to_back] for v in (x0, x1, y0, y1))
    cols = np.maximum(x1 - x0, 0)
    rows = np.where(cols > 0, np.maximum(y1 - y0, 0), 0)
    row_of = np.repeat(np.arange(rows.size), rows)  # Gaussian (in order) of each row
    ty = y0[row_of] + np.arange(row_of.size) - np.repeat(np.cumsum(rows) - rows, rows)
    row_cols = cols[row_of]
    # a pair's column is its index less the row's first pair index, plus x0
    tx = np.arange(row_cols.sum()) + np.repeat(x0[row_of] - (np.cumsum(row_cols) - row_cols), row_cols)
    return tx, np.repeat(ty, row_cols), np.repeat(front_to_back[row_of], row_cols)


def _by_tile(tx, ty, gauss, width, height):
    """(tile_of_pair, gauss_of_pair), grouped by tile in their order. The
    ids sort as the least type that holds them, which numpy radix-sorts."""
    ntx, nty = (width + TILE - 1) // TILE, (height + TILE - 1) // TILE
    tile = ty * ntx + tx
    order = np.argsort(tile.astype(np.min_scalar_type(ntx * nty - 1)), kind="stable")
    return tile[order], gauss[order]


def bin_gaussians(means2d, radius, depth, width, height):
    """``tile_pairs`` without its cull, over the radius squares:
    (tile_of_pair, gauss_of_pair) of every tile of each Gaussian's
    radius square, grouped by tile and ordered front to back, ties broken
    by index."""
    return _by_tile(*_box_pairs(*_radius_boxes(means2d, radius, width, height), depth), width, height)


def _ellipse_boxes(means2d, conic, radius, width, height):
    """``_radius_boxes`` cut to the box of each Gaussian's 3-sigma ellipse,
    widened for the cull's 1e-6 margin and its rounding. Where that box
    is not finite, or the conic is too ill-conditioned for the cull's
    rounding to be bounded (det < 1e-6 a c, a condition number above
    about 4e6), the radius square is kept."""
    x0, x1, y0, y1 = _radius_boxes(means2d, radius, width, height)
    ntx, nty = (width + TILE - 1) // TILE, (height + TILE - 1) // TILE
    a, b, c = (np.asarray(col, np.float64) for col in np.asarray(conic).T)
    with np.errstate(all="ignore"):
        det = a * c - b * b
        scale = CUTOFF_SIGMA_SQ * (1.0 + 1e-4) / det
        hx, hy = np.sqrt(c * scale), np.sqrt(a * scale)  # 3 sigma along x and y
        ok = (det > 1e-6 * a * c) & np.isfinite(hx) & np.isfinite(hy)
    means64 = np.asarray(means2d, np.float64)
    ex0, ex1 = _tile_span(means64[:, 0], np.where(ok, hx, 0.0), ntx)
    ey0, ey1 = _tile_span(means64[:, 1], np.where(ok, hy, 0.0), nty)
    return (np.where(ok, np.maximum(x0, ex0), x0), np.where(ok, np.minimum(x1, ex1), x1),
            np.where(ok, np.maximum(y0, ey0), y0), np.where(ok, np.minimum(y1, ey1), y1))


def _edge_min(a, b, c, d, lo, hi):
    """min over t in [lo, hi] of a d^2 + 2 b d t + c t^2: the Mahalanobis^2
    along one edge of a box, at fixed offset d across the edge."""
    t = np.clip(-b * d / c, lo, hi)
    return a * d * d + (2.0 * b * d + c * t) * t


def tile_pairs(means2d, conic, radius, depth, width, height):
    """The (tile -> gaussian) pair lists ``composite`` walks: the pairs of
    ``bin_gaussians`` that can reach a pixel centre of their tile, in the
    same order. Each Gaussian's pairs are expanded over the box of its
    3-sigma ellipse within its radius square (``_ellipse_boxes``), which
    holds every pair the cull keeps, and the cull runs on them before the
    tile sort, so only the survivors are sorted.

    A pair is kept iff the minimum of the Mahalanobis^2 over the box of
    the tile's pixel centres is within the 3-sigma cutoff. That minimum
    is 0 when the mean is inside the box; otherwise it lies on an edge
    with the mean on its outer side, so it is the lesser of two edge
    minima, across x and across y at the box's nearest offset to the mean
    (an offset of 0 where the mean is within the box's range on that
    axis, which gives the value at a point of the box). The 1e-6 relative
    margin covers the rounding of the tile-local exponent (about 1e-13),
    so every dropped pair has weight 0 at every pixel of its tile.
    """
    tx, ty, gauss = _box_pairs(*_ellipse_boxes(means2d, conic, radius, width, height), depth)
    # per pair, each input column gathered from a contiguous copy of it
    mx, my, a, b, c = (np.ascontiguousarray(col, np.float64)[gauss]
                       for col in (*np.asarray(means2d).T, *np.asarray(conic).T))
    # pixel-centre box of each pair's tile, relative to its Gaussian's mean
    x_lo = tx * TILE + 0.5 - mx
    x_hi = np.minimum(tx * TILE + TILE, width) - 0.5 - mx
    y_lo = ty * TILE + 0.5 - my
    y_hi = np.minimum(ty * TILE + TILE, height) - 0.5 - my
    q_min = np.minimum(_edge_min(a, b, c, np.clip(0.0, x_lo, x_hi), y_lo, y_hi),
                       _edge_min(c, b, a, np.clip(0.0, y_lo, y_hi), x_lo, x_hi))
    keep = q_min <= CUTOFF_SIGMA_SQ * (1.0 + 1e-6)
    return _by_tile(tx[keep], ty[keep], gauss[keep], width, height)


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
):
    """Rasterize to [H, W, C+1]; the last channel is alpha.

    ``values`` is [N, C] with every channel composited identically;
    ``depth`` is the front-to-back order key (ties go by index). Inputs
    must already be restricted to visible Gaussians.
    """
    n, n_values = values.shape
    out_dtype = np.result_type(means2d.dtype, np.float32)
    out = np.zeros((height, width, n_values + 1), dtype=np.float64)
    means64 = means2d.astype(np.float64)
    conic64 = conic.astype(np.float64)
    op64 = opacity.astype(np.float64)
    val64 = values.astype(np.float64)
    cache = TileCache(width, height, means64, conic64, op64, val64, []) if keep_cache else None
    if n == 0:
        return out.astype(out_dtype), cache

    tile_of, gauss_of = tile_pairs(means2d, conic, radius, depth, width, height)
    if tile_of.size == 0:
        return out.astype(out_dtype), cache
    boundaries = np.flatnonzero(np.diff(tile_of)) + 1
    starts = np.concatenate([[0], boundaries])
    ends = np.concatenate([boundaries, [tile_of.size]])
    ntx = (width + TILE - 1) // TILE
    ty_of, tx_of = np.divmod(tile_of, ntx)  # per pair: coefficients about its tile's centre
    offsets = _tile_offsets(means64[gauss_of], tx_of * TILE, ty_of * TILE)
    coefs_of, op_of = _exponent_coefs(conic64[gauss_of], offsets), op64[gauss_of]
    v_max = np.abs(val64).max(initial=1.0)
    val_ext = np.concatenate([val64, np.ones((n, 1))], axis=1)  # alpha composites a 1

    for k in range(len(starts)):
        ty, tx = int(ty_of[starts[k]]), int(tx_of[starts[k]])
        x0, y0 = tx * TILE, ty * TILE
        w_px, h_px = min(TILE, width - x0), min(TILE, height - y0)
        feats = _tile_features(w_px, h_px)
        trans = np.ones(w_px * h_px)
        acc = np.zeros((n_values + 1, w_px * h_px))
        alive = np.arange(w_px * h_px)
        chunks = []
        s, size = starts[k], CHUNK
        while s < ends[k] and alive.size:
            e = min(s + size, ends[k])
            ids = gauss_of[s:e]
            w = _weights(coefs_of[s:e], op_of[s:e], feats[:, alive])
            s, size = e, 2 * size
            # the carried T heads the running product, which then rounds
            # exactly as one product over the whole list would
            run = np.empty((ids.size + 1, alive.size))
            run[0] = trans[alive]
            np.subtract(1.0, w, out=run[1:])
            np.multiply.accumulate(run, axis=0, out=run)
            wt = np.multiply(w, run[:-1], out=None if keep_cache else w)
            acc[:, alive] += val_ext[ids].T @ wt
            trans[alive] = run[-1]
            if keep_cache:
                chunks.append((ids, alive, w, wt))
            alive = alive[run[-1] * v_max > STOP_BOUND]
        out[y0 : y0 + h_px, x0 : x0 + w_px] = acc.reshape(n_values + 1, h_px, w_px).transpose(1, 2, 0)
        if keep_cache:
            cache.tiles.append((x0, y0, chunks))
    return out.astype(out_dtype), cache


def composite_backward(cache: TileCache, d_out: np.ndarray):
    """Gradients of ``composite`` w.r.t. the values, opacities and 2D
    means it composited: (d_values [N, C], d_opacity [N], d_means2d [N, 2]).

    ``d_out`` is [H, W, C+1] including the alpha channel. Covariance, the
    compositing order and the pixels' stopping points are treated as
    constants. Each chunk leaves one row per Gaussian (its value
    gradients and its moments over [1, u, v]); after the tile loop one
    ``bincount`` per output column sums the rows in (tile, back-to-front
    chunk) order, the order of a per-chunk scatter-add.
    """
    n, n_values = cache.values.shape
    means64, conic64 = cache.means2d, cache.conic
    op64 = np.maximum(cache.opacity, 1e-12)
    val_ext = np.concatenate([cache.values, np.ones((n, 1))], axis=1)
    clamped = _may_clamp(cache.opacity)  # else no weight reached W_MAX
    # per chunk: its Gaussians, their value-gradient and moment rows and
    # its tile's origin, after an empty entry that serves an empty cache
    rows_ids, rows_val = [np.empty(0, np.int64)], [np.empty((0, n_values))]
    rows_mom, rows_origin = [np.empty((0, 3))], [np.empty((0, 2))]

    for (x0, y0, chunks) in cache.tiles:
        w_px, h_px = min(TILE, cache.width - x0), min(TILE, cache.height - y0)
        feats = _tile_features(w_px, h_px)[:3]
        g_tile = (
            d_out[y0 : y0 + h_px, x0 : x0 + w_px]
            .astype(np.float64)
            .transpose(2, 0, 1)
            .reshape(n_values + 1, -1)
        )  # [C+1, npx]
        later = np.zeros(w_px * h_px)  # per pixel: sum of w T P over later chunks
        for ids, alive, w, wt in reversed(chunks):
            g = g_tile[:, alive]

            # channel-value gradients: dL/dv_ic = sum_px g_c * w_i T_i
            rows_val.append(wt @ g[:n_values].T)

            # dL/dw_i * w_i = m_i - S_i w_i / (1 - w_i) with m = w T P and
            # S_i the strict suffix sum of m; the later chunks' sum heads
            # the running sum, which then rounds as one over the whole list
            m = val_ext[ids] @ g  # P [n_i, alive]
            m *= wt
            run = np.empty((ids.size + 1, alive.size))
            run[0] = later[alive]
            run[1:] = m[::-1]
            np.cumsum(run, axis=0, out=run)
            later[alive] = run[-1]
            q = np.subtract(1.0, w)
            np.divide(w, q, out=q)
            q *= run[-2::-1]  # S, row i holding the sum over rows after i
            dww = np.subtract(m, q, out=m)  # zero wherever w is
            if clamped:
                dww[w >= W_MAX] = 0.0  # clamp boundary

            # w = op exp(K F), so dL/dop = sum_px dww / op and dL/dmean =
            # conic (x - mean) summed against dww: both from the moments of
            # dww over the tile-local pixel coordinates [1, u, v]
            rows_mom.append(dww @ feats[:, alive].T)  # [n_i, 3]
            rows_ids.append(ids)
            rows_origin.append(np.broadcast_to([x0, y0], (ids.size, 2)))

    ids, mom = np.concatenate(rows_ids), np.concatenate(rows_mom)
    origin = np.concatenate(rows_origin)
    r = mom[:, 1:] - _tile_offsets(means64[ids], origin[:, 0], origin[:, 1]) * mom[:, :1]
    cn = conic64[ids]
    columns = [*np.concatenate(rows_val).T, mom[:, 0] / op64[ids],
               cn[:, 0] * r[:, 0] + cn[:, 1] * r[:, 1], cn[:, 1] * r[:, 0] + cn[:, 2] * r[:, 1]]
    d = np.stack([np.bincount(ids, col, minlength=n) for col in columns], axis=1)
    return d[:, :n_values], d[:, n_values], d[:, n_values + 1:]
